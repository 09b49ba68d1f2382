"""One round of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --round R \
        --tmp DIR --result FILE --cache DIR [--trace]

Imports hoytmimo, builds the round's inputs, reports the moment set-up
ended, runs the operations in a timed section, then checks their outputs
and writes a JSON result for run.py.  With --trace the layers' public
functions are wrapped first (see spans.py) and their metrics are added.

Host speed.  On a shared machine the speed of this process drifts by up
to 2x over tens of seconds, and interpreted code slows more than batched
numpy code does.  A fixed calibration kernel, independent of hoytmimo and
of the workload's code mix (interpreted or numpy), is timed between
segments of the timed section.  Each operation's time is divided by the
kernel's mean slowdown around its segment, which gives its time at the
reference speed.  Raw times are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import hoytmimo
from workloads import WORKLOADS, is_truncation

WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
ORACLE_SAMPLES = 20000  # draws of the independent sampler per input
SEGMENT_S = 0.4  # timed-section time between two calibrations, at least


def interpreted_pass() -> float:
    """Slowdown of interpreted arithmetic and small numpy calls, 4 ms at the reference speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 20000):
        total += math.log(i) * math.sqrt(i)
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    return (time.perf_counter() - start) / 0.004


def numpy_pass() -> float:
    """Slowdown of batched eigvalsh and array-wide ufuncs, 14 ms at the reference speed."""
    start = time.perf_counter()
    x = np.random.default_rng(0).standard_normal((512, 4, 4))
    np.linalg.eigvalsh(x + np.swapaxes(x, 1, 2))
    u = np.sqrt(np.arange(500_000.0))
    np.histogram(np.cos(u), bins=50)
    return (time.perf_counter() - start) / 0.014


def slowdown(kernel) -> float:
    """The host's current slowdown against the reference speed: median of three passes."""
    return statistics.median(kernel() for _ in range(3))


def run_ops(ops, kernel) -> None:
    """Run every op in order, recording its outcome, raw time and reference time."""
    before = slowdown(kernel)
    segment: list = []
    segment_start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            op.result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
        op.seconds = time.perf_counter() - t0
        segment.append(op)
        if time.perf_counter() - segment_start >= SEGMENT_S or i == len(ops) - 1:
            after = slowdown(kernel)
            scale = 2.0 / (before + after)
            for done in segment:
                done.ref_seconds = done.seconds * scale
            segment, before, segment_start = [], after, time.perf_counter()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": openblas,
        "hoytmimo": os.path.realpath(os.path.dirname(hoytmimo.__file__)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--cache", required=True, help="directory the rounds of a run share")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    build, check, kernel = WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, args.round, WORKLOAD_IDS[args.workload]])
    ops = build(rng, args.tmp)
    setup_done = time.monotonic()
    kernel = {"interpreted": interpreted_pass, "numpy": numpy_pass}[kernel]
    kernel()  # the first pass warms the kernel's code paths
    setup_scale = 1.0 / slowdown(kernel)

    tracer = None
    if args.trace:
        from spans import Tracer, table_cache_entries

        tracer = Tracer()
        tracer.install()
    run_ops(ops, kernel)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = sum(op.seconds for op in ops)
    wall_ref = sum(op.ref_seconds for op in ops)
    layers = None
    if tracer is not None:
        # taken before the checks, which call into the program too; self
        # times move to the reference speed with the round's mean scale
        layers = tracer.metrics(table_cache_entries(), wall_ref / wall)

    problems = []
    for op in ops:
        if op.error is not None and not (op.expect_failure and is_truncation(op)):
            problems.append(f"{op.label} failed: {op.error[:300]}")
    if not problems:
        from oracles import Sampler

        sampler = Sampler(args.cache, ORACLE_SAMPLES)
        problems = check([op for op in ops if op.error is None or op.expect_failure], sampler)

    result = {
        "setup_done": setup_done,
        "setup_scale": setup_scale,
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "problems": problems,
        "ops": {op.label: op.ref_seconds for op in ops},
        "kind_of": {op.label: op.kind for op in ops},
        "units": {op.label: 0 if op.error else op.units for op in ops},
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = layers
        result["untraced_names"] = tracer.missing
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
