"""Typed refusals of malformed input across the modules."""

from fractions import Fraction as F

import pytest

from quiddity.core import QuiddityTuple, m_product_entries, reduce_pm_one
from quiddity.numfield import (
    FieldElement,
    NumberField,
    RatInterval,
    coords_from_json,
    embed,
    isolate_roots,
    modulus_compare,
)
from quiddity.polycrit import (
    gauss_disk_count_strict,
    irreducible_over_Q,
    rouche_dominant_count,
    schur_cohn_count,
)
from quiddity.polynomials import GaussRat, NotSquarefree, QPoly, as_rat, refine_real_root
from quiddity.verify import field_eighth_root, field_sqrt

SQRT2 = field_sqrt(2)
ZETA8 = field_eighth_root()
W = SQRT2.generator()
CUBIC = QPoly((1, -3, 0, 1))

GUARDS = {
    "interval endpoints out of order": (ValueError, lambda: RatInterval.make(2, 1)),
    "empty tuple": (ValueError, lambda: QuiddityTuple(SQRT2, W, [])),
    "empty word": (ValueError, lambda: m_product_entries([])),
    "reduce position past the end": (
        IndexError,
        lambda: reduce_pm_one(QuiddityTuple(SQRT2, SQRT2.one(), [1, 1, 1]), 3),
    ),
    "reduce position below zero": (
        IndexError,
        lambda: reduce_pm_one(QuiddityTuple(SQRT2, SQRT2.one(), [1, 1, 1]), -1),
    ),
    "selected root past the boxes": (
        ValueError,
        lambda: NumberField(SQRT2.min_poly, SQRT2.root_boxes, 2),
    ),
    "with_selected past the degree": (ValueError, lambda: SQRT2.with_selected(2)),
    "element of the wrong length": (ValueError, lambda: FieldElement(SQRT2, (1,))),
    "json coordinates of the wrong length": (
        ValueError,
        lambda: coords_from_json(SQRT2, ["1", "0", "0"]),
    ),
    "embed past the degree": (ValueError, lambda: embed(W, 2, 8)),
    "embed below zero": (ValueError, lambda: embed(W, -1, 8)),
    "negative modulus threshold": (ValueError, lambda: modulus_compare(W, 0, -1)),
    "Schur-Cohn radius zero": (ValueError, lambda: schur_cohn_count(CUBIC, 0)),
    "strict radius negative": (
        ValueError,
        lambda: gauss_disk_count_strict(CUBIC, GaussRat.of(0), F(-1, 2)),
    ),
    "dominant radius zero": (ValueError, lambda: rouche_dominant_count(CUBIC, 3, 0)),
    "strict count of the zero polynomial": (
        ValueError,
        lambda: gauss_disk_count_strict(QPoly(()), GaussRat.of(0), 1),
    ),
    "Schur-Cohn count of the zero polynomial": (ValueError, lambda: schur_cohn_count(QPoly(()), 1)),
    "isolating the roots of the zero polynomial": (ValueError, lambda: isolate_roots(QPoly(()))),
    "isolating a repeated nonreal root, (X^2 + 1)^2": (
        NotSquarefree,
        lambda: isolate_roots(QPoly((1, 0, 2, 0, 1))),
    ),
    "isolating a repeated nonreal root, (X^2 + X + 1)^3": (
        NotSquarefree,
        lambda: isolate_roots(QPoly((1, 3, 6, 7, 6, 3, 1))),
    ),
    "irreducibility of a constant": (ValueError, lambda: irreducible_over_Q(QPoly((3,)))),
    "isolating interval ending on a root": (
        ValueError,
        lambda: refine_real_root(QPoly((-1, 0, 1)), F(1, 2), F(1), F(1, 8)),
    ),
    "bisection to width zero": (
        ValueError,
        lambda: refine_real_root(QPoly((-2, 0, 1)), F(1), F(2), F(0)),
    ),
    "bisection to a negative width": (
        ValueError,
        lambda: refine_real_root(QPoly((-2, 0, 1)), F(1), F(2), F(-1, 4)),
    ),
    "real root refined to width zero": (ValueError, lambda: SQRT2.refined(0, 0)),
    "nonreal root refined to width zero": (ValueError, lambda: ZETA8.refined(0, 0)),
    "nonreal root refined to a negative width": (ValueError, lambda: ZETA8.refined(0, F(-1, 4))),
    "refined past the degree": (ValueError, lambda: ZETA8.refined(4, F(1, 4))),
    "refined below zero": (ValueError, lambda: ZETA8.refined(-1, F(1, 4))),
    "float as an exact rational": (TypeError, lambda: as_rat(1.5)),
    "polynomial division by zero": (ZeroDivisionError, lambda: divmod(CUBIC, QPoly(()))),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_refuses(case):
    error, call = GUARDS[case]
    with pytest.raises(error):
        call()
