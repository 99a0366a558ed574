#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Workloads are described in workloads.py.  The run imports the package
from `src/` next to this directory, builds the job list from the seed
(several times, half of them before the passes and half after, for a
steady set-up time), then runs the job list in
round(--seconds / the workload's nominal pass time) passes, at least one,
one job at a time.  The pass count depends on the arguments only, never
on the machine's speed, so every run of a seed attempts the same jobs.
Each job has a time limit enforced in this process; an overrun or an
exception counts as a failed job and is not retried, and so does a job
whose output fails its checks.  Any failed timed job makes the run
incorrect.  After the passes, the workload's probes (inputs the library
fails on as it stands) run once; their failures are counted but do not
make the run incorrect unless an output they return is wrong, and their
time enters no metric.  No job runs past RUN_LIMIT_S from the start of
the process: its limit is cut to the time left, and a job with no time
left is not started and counts as failed.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

    setup_s      import, input generation and warm-up (median of repeats)
    wall_s       time in library calls to finish the job list (median pass)
    peak_rss_mb  peak resident memory of the process

With `--trace 1`, untraced and traced passes alternate (at least one of
each, starting untraced) and the metrics
are the per-layer ones from layers.METRICS, with trace.overhead_ratio
the traced over the untraced wall time.  The line before the result is
a record of the run: failures by input, fail_ratio, the median job
latency, the tail latency where the job count allows one, per-job and
probe latencies, the workload's traffic dimensions, and the machine
(revision, Python, CPU count, load average at start and end).  On
census and roots a run makes one pass, so wall_s is a single pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # set-ups per run: at least this many, and
SETUP_MIN_S = 2.0  # enough to span this many seconds, up to
SETUP_MAX_REPEATS = 60
RUN_LIMIT_S = 165.0  # no job runs past this many seconds into the run
TAIL_MIN_SAMPLES = 20  # below this the tail percentile would be the median


class JobTimeout(BaseException):
    """Raised inside a job by the interval timer.  Not an Exception, so
    that no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class PassResult:
    labels: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_job(job, limit_s: float, tracer=None) -> tuple[float, str | None, bool]:
    """(latency, failure reason or None, output was wrong)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    latency = None
    try:
        if tracer is not None:
            tracer.active = True
        out = job.run()
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        problems = job.check(out)
        if problems:
            return latency, "wrong output: " + "; ".join(problems[:5]), True
        return latency, None, False
    except JobTimeout:
        return latency or time.perf_counter() - t0, f"exceeded the {limit_s:g} s limit", False
    except Exception as exc:  # a failed job is recorded and the run goes on
        return latency or time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.active = False
            tracer.abandon_stack()


def run_pass(workload, run_deadline: float, tracer=None) -> PassResult:
    res = PassResult()
    for job in workload.jobs:
        left = run_deadline - time.perf_counter()
        if left <= 0:
            res.failures.append({"job": job.label, "reason": "not started: run time limit"})
            continue
        latency, reason, _ = run_job(job, min(workload.limit_s, left), tracer)
        res.labels.append(job.label)
        res.latencies.append(latency)
        if reason is not None:
            res.failures.append({"job": job.label, "reason": reason})
    return res


def tail(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    k = n - 10
    return {"value": sorted(latencies)[k - 1], "unit": "s", "percentile": 100 * k / n, "samples": n}


def machine() -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("census", "roots", "polycrit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


def _import_library() -> float:
    """Import quiddity from this checkout's src/; the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import quiddity
    except ImportError as exc:
        raise ImportError(f"cannot import quiddity from {SRC}: {exc}") from exc
    if not Path(quiddity.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"quiddity was imported from {quiddity.__file__}, not {SRC}")
    return time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; {"record": ..., "result": ...} as printed.
    `tiny` shrinks the inputs for the self-test."""
    load_start = os.getloadavg()
    process_start = time.perf_counter()
    import_s = _import_library()
    import layers
    import workloads

    run_deadline = process_start + RUN_LIMIT_S
    setup_samples: list[float] = []
    warm_failures = {}  # one failure per warm-up job, however many set-ups

    def set_up_until(repeats: int, span_s: float):
        """Set up until there are `repeats` samples spanning `span_s`
        seconds in all; the workload of the last set-up."""
        workload = None
        while time.perf_counter() < run_deadline and (len(setup_samples) < repeats or (
            sum(setup_samples) < span_s and len(setup_samples) < SETUP_MAX_REPEATS
        )):
            t0 = time.perf_counter()
            workload = workloads.build(name, seed, tiny)
            for job in workload.warmup:
                _, reason, _ = run_job(job, workload.limit_s)
                if reason is not None:
                    warm_failures.setdefault(job.label, {"job": "warm-up " + job.label, "reason": reason})
            setup_samples.append(time.perf_counter() - t0)
        return workload

    # Half the set-ups run before the passes and half after them, so that
    # a slow spell of a shared machine weighs on both halves of a run.
    workload = set_up_until(SETUP_REPEATS - 1, SETUP_MIN_S / 2)

    tracer = layers.Tracer() if trace else None
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    layer_samples: list[dict] = []
    n_passes = max(1, round(seconds / workload.pass_s))
    if tracer is not None:
        n_passes = max(2, n_passes)
    for i in range(n_passes):
        if tracer is not None and i % 2:
            tracer.reset()
            with tracer:
                traced.append(run_pass(workload, run_deadline, tracer))
            layer_samples.append(tracer.metrics())
        else:
            passes.append(run_pass(workload, run_deadline))

    probe_latencies, probe_failures, probe_wrong = [], [], 0
    for job in workload.probes:
        left = run_deadline - time.perf_counter()
        if left <= 0:
            probe_failures.append({"job": "probe " + job.label, "reason": "not started: run time limit"})
            continue
        latency, reason, wrong = run_job(job, min(workload.probe_limit_s, left))
        probe_latencies.append((job.label, latency))
        probe_wrong += wrong
        if reason is not None:
            probe_failures.append({"job": "probe " + job.label, "reason": reason})

    set_up_until(SETUP_REPEATS, SETUP_MIN_S)
    setup_s = import_s + statistics.median(setup_samples)
    everything = passes + traced
    timed_failures = list(warm_failures.values()) + [f for p in everything for f in p.failures]
    failures = timed_failures + probe_failures
    attempted = (len(everything) * len(workload.jobs) + len(workload.warmup)
                 + len(workload.probes))
    latencies = [x for p in passes for x in p.latencies]
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        values = layers.median_metrics(layer_samples)
        values["trace.overhead_ratio"] = (
            statistics.median(p.wall for p in traced) / e2e["wall_s"][0]
        )
        metrics = {
            metric: {"value": values[metric], "unit": unit}
            for metric, (unit, _) in layers.METRICS.items()
        }

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one client",
        "passes": len(passes),
        "traced_passes": len(traced),
        "jobs_per_pass": len(workload.jobs),
        # all six end-to-end metrics, bounded in BENCHMARK.json or not
        "end_to_end": {
            **{k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "job_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "job_s_tail": tail(latencies),
            "fail_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        },
        "job_latency_s": _per_job_median(passes),
        "probe_latency_s": probe_latencies,
        "setup_samples_s": setup_samples,
        "import_s": import_s,
        "failures": failures,
        "dims": workload.dims,
        "machine": machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    result = {
        "correct": not timed_failures and probe_wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def _per_job_median(passes: list[PassResult]) -> list[tuple[str, float]]:
    """Median latency of each job over the passes that ran all jobs."""
    whole = [p for p in passes if not p.failures]
    if not whole:
        return []
    return [
        (label, statistics.median(p.latencies[i] for p in whole))
        for i, label in enumerate(whole[0].labels)
    ]


if __name__ == "__main__":
    sys.exit(main())
