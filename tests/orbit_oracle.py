"""Word counts over <w>, the completeness check on the census's dedup layer.

The census keeps one canonical form per dihedral class.  Every rotation
and reflection of a quiddity is a quiddity with the same sign, so the
words of size n with matrix eps*Id number the sum, over the listed
classes of that size and sign, of their orbit sizes.  `word_counts`
counts those words with no dedup at all: every prefix of length
l = n - n//2 meets every suffix of length n//2 through the same
meet-in-the-middle keys as the search, but each side holds only a
`Counter` of held matrices, never a word.  So a class the search drops
makes an orbit sum fall short, and a duplicate makes it exceed.  It shares
the word kernel with the census, and nothing of `classify`: it checks the
least-entry walk and the canonical-hit test, not the kernel's arithmetic.
"""

from __future__ import annotations

from collections import Counter

from quiddity.core import _WordKernel, dihedral_images


def word_counts(w, n_max: int, k_bound: int) -> dict[tuple[int, int], int]:
    """{(size, eps): number of words of that size over |k| <= k_bound
    whose matrix is eps*Id}, for sizes 2..n_max."""
    top = 0 if w.is_zero else k_bound
    pool = range(-top, top + 1)
    kernel = _WordKernel(w, n_max, top)
    d = kernel.d
    # held matrices of the suffixes per length, and the same keyed by d
    # times the matrix, which is how a suffix one entry shorter than its
    # prefix meets it
    even = [Counter() for _ in range(n_max // 2 + 1)]
    odd = [Counter() for _ in range(n_max // 2 + 1)]
    for ks, mat in kernel.words(n_max // 2, pool):
        even[len(ks)][mat] += 1
        odd[len(ks)][tuple(d * x for x in mat)] += 1
    counts = Counter()
    for ks, mat in kernel.words(n_max - n_max // 2, pool):
        l = len(ks)
        for size, by_length in ((2 * l - 1, odd), (2 * l, even)):
            if 2 <= size <= n_max:
                for eps, key in kernel.inverse_keys(mat):
                    counts[size, eps] += by_length[size - l][key]
    return {k: v for k, v in counts.items() if v}


def orbit_sums(members) -> dict[tuple[int, int], int]:
    """{(size, eps): the sum of the orbit sizes of the listed classes}."""
    sums = Counter()
    for m in members:
        sums[m.size, m.epsilon] += len(set(dihedral_images(m.multipliers)))
    return dict(sums)
