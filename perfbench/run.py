"""fsspack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-n10 --seed 1 --seconds 60 --trace 0

Builds the workload's cases from the seed, then runs passes over them
(every case once per pass) until --seconds is used up, at least two.
Every result is checked; see README.md for the checks and the metrics.
With --trace 0 it prints the end-to-end metrics; with --trace 1
untraced and traced passes alternate, and it prints the per-layer
metrics.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics.  Run it from the root of a
source checkout: the program is imported from src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 3
# A fresh interpreter that imports fsspack and builds the workload's cases.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters importing fsspack and building inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        tic = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            check=True,
            timeout=120,
        )
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    # A checkout without .git has no commit; the hash of src/ still
    # tells which code was measured.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fsspack" / "__init__.py").is_file():
        print(f"error: no fsspack sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload, args.seed)
    cases = workloads.build_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    search = args.workload == "search-n10"

    # Each pass: (PassResult, tracer or None); traced passes also get
    # their per-layer metrics.
    passes = []
    layer_metrics = []
    # Failed operation -> what failed.  An operation is one case in one
    # pass, or the tracer self-check of one traced pass.
    failures: dict[tuple[int, object], list[str]] = {}
    attempted = 0
    # With --trace 1, untraced and traced passes alternate, so each traced
    # pass has an untraced neighbour taken under nearly the same load.
    min_passes = 4 if args.trace else 2
    started = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            result = workloads.run_pass(args.workload, cases, tracer, OUT)
        finally:
            unrestored = tracer.uninstall() if tracer is not None else []
        passes.append((result, tracer))
        attempted += result.attempted
        for i, messages in result.failures.items():
            failures.setdefault((len(passes), i), []).extend(messages)
        if tracer is not None:
            # The tracer self-check is one more operation per traced pass.
            attempted += 1
            problems = [f"wrapped name not restored: {name}" for name in unrestored]
            if search:
                found, checks = layers.search_layers(tracer.spans, cases, result.reports, result.wall_s)
                problems += checks
            else:
                found = layers.exact_layers(tracer.spans, result.wall_s)
            layer_metrics.append(found)
            if problems:
                failures[(len(passes), "tracer")] = problems
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    # Repeated passes over one seed must agree exactly: the radius, and on
    # the search workload also the centres and the merit calls.
    first = passes[0][0]
    for k, (result, _) in enumerate(passes[1:], start=2):
        for i, case in enumerate(cases):
            if result.outcomes[i] != first.outcomes[i]:
                failures.setdefault((k, i), []).append(f"{case.name}: result differs from pass 1")
    failed = len(failures)

    untraced = [r for r, t in passes if t is None]
    traced = [(r, t) for r, t in passes if t is not None]
    wall_s = statistics.median(r.wall_s for r in untraced)
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layer_metrics) for name in layer_metrics[0]}
        metrics["trace.wall_s"] = statistics.median(r.wall_s for r, _ in traced)
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for (u, _), (t, _) in zip(passes[0::2], passes[1::2])
        )
        for k, (_, t) in enumerate(passes, start=1):
            if t is not None:
                t.write(OUT / f"trace-{args.workload}-seed{args.seed}-pass{k}.jsonl")
        declared = spec["per_layer"]
    else:
        ratios = first.ratios or [0.0]
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "radius_ratio_min": min(ratios),
            "radius_ratio_mean": statistics.fmean(ratios),
            "passed_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) - set(units):
        print(f"error: metrics {sorted(set(metrics) - set(units))} are not in BENCHMARK.json", file=sys.stderr)
        return 3
    # A layer the workload never runs reports 0.
    metrics = {name: metrics.get(name, 0.0) for name in units}

    for name in sorted(metrics):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    messages = [f"pass {k}: {'; '.join(m)}" for (k, _), m in sorted(failures.items(), key=str)]
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": [{"traced": t is not None, "wall_s": r.wall_s, "cpu_s": r.cpu_s} for r, t in passes],
        "cases": [
            {"name": case.name, "radius": out[0] if out else None}
            for case, out in zip(cases, first.outcomes)
        ],
        "failures": messages,
        "env": environment(),
    }
    print(json.dumps({"run": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
