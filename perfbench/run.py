"""Benchmark of hoytmimo: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Rounds of the workload run one
after another, each in a fresh single-threaded interpreter (worker.py),
until S seconds have passed; a round that has started always finishes.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it, each
starting with '#', record the environment and the per-operation rates.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("capacity-table", "near-one-sided", "monte-carlo", "pfaffian-kernels")
DEADLINE_S = 170.0  # every run must end within 180 s
KIND_UNITS = {
    "capacity": "capacity_per_s",
    "density": "density_points_per_s",
    "mc_samples": "mc_samples_per_s",
    "jpd": "jpd_per_s",
    "correlation": "correlation_per_s",
}


def git_sha(root: str) -> str:
    """HEAD of the checkout from .git itself; 'unknown' outside a git tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def median_ops(rounds: list) -> dict:
    """Each operation's median time at the reference speed across the rounds."""
    return {label: statistics.median(r["ops"][label] for r in rounds) for label in rounds[0]["ops"]}


def kind_rates(rounds: list, op_seconds: dict) -> dict:
    """Values produced per second of each kind of operation, at the reference speed."""
    rates = {}
    for kind, metric in KIND_UNITS.items():
        labels = [label for label, k in rounds[0]["kind_of"].items() if k == kind]
        if labels:
            rates[metric] = sum(rounds[0]["units"][label] for label in labels) / sum(op_seconds[label] for label in labels)
    if "validate-quick" in op_seconds:
        rates["validate_quick_s"] = op_seconds["validate-quick"]
    return rates


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("HOYTMIMO_THREADS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=src,
    )
    return env


def run_round(args, round_index: int, traced: bool, tmp: str, env: dict, deadline: float) -> dict:
    """One worker process; returns its result with the measured set-up time."""
    name = f"round{round_index}{'-traced' if traced else ''}"
    work = os.path.join(tmp, name)
    os.mkdir(work)
    result_path = os.path.join(work, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--round", str(round_index),
        "--tmp", work, "--result", result_path, "--cache", tmp,
    ] + (["--trace"] if traced else [])
    log_path = os.path.join(work, "log.txt")
    spawned = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: {name} did not finish within the run's deadline")
    if proc.returncode != 0:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"perfbench: {name} exited with code {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = (result["setup_done"] - spawned) * result["setup_scale"]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hoytmimo", "__init__.py")):
        print("perfbench: no hoytmimo sources under ./src; run from a checkout's root", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = worker_env(src)
    os.makedirs(os.path.join(root, ".bench_build"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perfbench-", dir=os.path.join(root, ".bench_build"))
    plain, traced = [], []
    try:
        round_index = 0
        while round_index == 0 or time.monotonic() - start < args.seconds:
            plain.append(run_round(args, round_index, False, tmp, env, deadline))
            if args.trace:
                traced.append(run_round(args, round_index, True, tmp, env, deadline))
            round_index += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    foreign = {r["environment"]["hoytmimo"] for r in rounds} - {os.path.realpath(os.path.join(src, "hoytmimo"))}
    problems += [f"imported hoytmimo from {path}, not ./src" for path in sorted(foreign)]

    env_info = dict(plain[0]["environment"], git_sha=git_sha(root), nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)))
    print("# environment " + json.dumps(env_info))
    op_seconds = median_ops(plain)
    print(f"# {args.workload} seed {args.seed}: {len(plain)} rounds of {plain[0]['attempted']} operations")
    print("# round wall_ref_s " + " ".join(f"{r['wall_ref_s']:.3f}" for r in plain)
          + ", raw wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print("# rates " + json.dumps({k: round(v, 3) for k, v in kind_rates(plain, op_seconds).items()}))
    print("# op_seconds " + json.dumps({k: round(v, 5) for k, v in op_seconds.items() if not k.startswith("jpd-")}))
    for p in problems[:20]:
        print(f"# problem: {p}")

    if args.trace:
        untraced_wall = sum(op_seconds.values())
        traced_wall = sum(median_ops(traced).values())
        metrics = {}
        for name in traced[0]["layers"]:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / untraced_wall - 1.0), "unit": "%"}
        missing = sorted({n for r in traced for n in r["untraced_names"]})
        if missing:
            print("# not traced, absent from the program: " + ", ".join(missing))
        print(f"# tracing overhead: {metrics['trace.overhead_pct']['value']:.1f}% "
              f"({traced_wall:.4f} s traced vs {untraced_wall:.4f} s untraced)")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "wall_ref_s": {"value": sum(op_seconds.values()), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in plain), "unit": "MiB"},
        }

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
