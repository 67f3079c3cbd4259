"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the saved standard output of run.py, one file per
run.  Runs are paired by (workload, seed, trace).  For every workload and
metric it prints each side's median and quartiles, the share of pairs
the new side won, and a verdict:

  gain          new wins >= 90% of pairs (ties count for neither side) and
                the medians differ by more than the base's quartile spread
  regression    new median worse than the base's by more than the bound
                in BENCHMARK.json, or the mirror image of a gain
  unresolved    neither, and the base's own quartile spread is wider than
                the bound, so a change inside the bound cannot be told apart
  within bound  neither, and the base is steady enough to tell
  invalid       the group cannot be judged: a run of either side is not
                correct, the new side failed more operations than the
                base, a run has no partner on the other side, or a file in
                either directory could not be read as a run.py output.  It
                replaces every other verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load_runs(directory: Path) -> tuple[dict[tuple[str, int, int], dict], list[str]]:
    """(workload, seed, trace) -> {"run": run record, "result": final line},
    and the files that are not a complete run.py output."""
    runs, skipped = {}, []
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        try:
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["run"]
            key = (record["workload"], record["seed"], record["trace"])
            if not {"correct", "failed", "metrics"} <= result.keys():
                raise KeyError("result line lacks correct, failed or metrics")
        except (IndexError, json.JSONDecodeError, KeyError, TypeError):
            skipped.append(str(path))
            continue
        runs[key] = {"run": record, "result": result}
    return runs, skipped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], higher_better: bool, bound: float | None) -> tuple[float, str]:
    """Share of pairs won by `new`, and the verdict; base[i] pairs with new[i]."""
    sign = 1.0 if higher_better else -1.0
    won = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    lost = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    q1, base_median, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (statistics.median(new) - base_median)
    limit = bound * abs(base_median) if bound is not None else None
    if limit is not None and -gain > limit:
        return won / len(base), "regression"
    if won >= WIN_SHARE * len(base) and gain > spread:
        return won / len(base), "gain"
    if lost >= WIN_SHARE * len(base) and -gain > spread:
        return won / len(base), "regression"
    if limit is not None and spread > limit:
        return won / len(base), "unresolved"
    return won / len(base), "within bound"


def invalid_reasons(base: list[dict], new: list[dict]) -> list[str]:
    """Why a group of paired results cannot be judged; empty if it can."""
    reasons = []
    for label, results in (("base", base), ("new", new)):
        wrong = sum(1 for r in results if not r["correct"])
        if wrong:
            reasons.append(f"{wrong} {label} runs not correct")
    base_failed, new_failed = sum(r["failed"] for r in base), sum(r["failed"] for r in new)
    if new_failed > base_failed:
        reasons.append(f"new side failed {new_failed} operations, base {base_failed}")
    return reasons


def compare(base_runs: dict, new_runs: dict, spec: dict, skipped: list[str] = ()) -> list[str]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    groups = sorted({(w, t) for w, _, t in [*base_runs, *new_runs]})
    for workload, trace in groups:
        seeds = sorted(
            s for w, s, t in base_runs if (w, t) == (workload, trace) and (w, s, t) in new_runs
        )
        lines.append(f"{workload} (trace {trace}, {len(seeds)} paired seeds)")
        if not seeds:
            lines.append("  invalid: no run has a partner on the other side")
            continue
        base = [base_runs[(workload, s, trace)]["result"] for s in seeds]
        new = [new_runs[(workload, s, trace)]["result"] for s in seeds]
        reasons = invalid_reasons(base, new)
        unpaired = sum(1 for w, _, t in [*base_runs, *new_runs] if (w, t) == (workload, trace)) - 2 * len(seeds)
        if unpaired:
            reasons.append(f"{unpaired} runs without a partner")
        if skipped:
            reasons.append(f"{len(skipped)} unreadable files")
        if reasons:
            lines.append("  invalid: " + "; ".join(reasons))
        for name, meta in declared.items():
            if not all(name in r["metrics"] for r in base + new):
                continue
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            share, word = verdict(b, n, meta["better"] == "higher", meta.get("bound"))
            if reasons:
                word = "invalid"
            bq, nq = quartiles(b), quartiles(n)
            lines.append(
                f"  {name:34s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                f"new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {meta['unit']}  "
                f"won {share:.0%}  {word}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (base_runs, base_skipped), (new_runs, new_skipped) = (load_runs(Path(p)) for p in argv)
    skipped = base_skipped + new_skipped
    for path in skipped:
        print(f"skipped, not a complete run.py output: {path}")
    if not base_runs or not new_runs:
        print("error: no run.py results found in one of the directories", file=sys.stderr)
        return 2
    for label, runs in (("base", base_runs), ("new", new_runs)):
        envs = {json.dumps(r["run"]["env"], sort_keys=True) for r in runs.values()}
        for env in sorted(envs):
            print(f"{label} env: {env}")
    lines = compare(base_runs, new_runs, spec, skipped)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
