"""Per-layer metrics and the tracer self-check, computed from one traced pass.

Search passes are traced through the wrapped fsspack names (see
tracer.TARGETS) under one `bench.run` span per case; exact-check passes
record `geometry.*` spans around the harness's own calls.  Each function
returns only the metrics of the layers its workload runs.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import Span, children_of, self_times

# A corrected radius that changes by more than this counts as a move.
MOVE_THRESHOLD = 1e-7


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _case_roots(spans: list[Span]) -> list[int]:
    """Index of the enclosing `bench.run` span for every span, or -1."""
    roots = []
    for span in spans:
        if span.name == "bench.run":
            roots.append(len(roots))
        elif span.parent >= 0:
            roots.append(roots[span.parent])
        else:
            roots.append(-1)
    return roots


def unpruned_rows(n: int, prohibited: int) -> int:
    """Rows of the program before pruning: containment, pairs, prohibited."""
    return n + n * (n - 1) // 2 + n * prohibited


def search_layers(spans: list[Span], cases: list, reports: list, pass_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced search pass, and self-check failures."""
    problems: list[str] = []
    kids = children_of(spans)
    own = self_times(spans)
    roots = _case_roots(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def durations(name: str) -> list[float]:
        return [spans[i].duration for i in by_name.get(name, [])]

    run_spans = by_name.get("bench.run", [])
    solves = by_name.get("engine.solve", [])
    minimizes = by_name.get("solver.minimize", [])
    merits = by_name.get("formulation.augmented_lagrangian", [])

    # Self-check: solve spans per case against RunReport.nlp_solves, and
    # minimize spans per solve against SolverResult.outer_iterations.
    if len(run_spans) != len(cases):
        problems.append(f"{len(run_spans)} bench.run spans for {len(cases)} cases")
    for root, case, report in zip(run_spans, cases, reports):
        if report is None:
            continue
        counted = sum(1 for i in solves if roots[i] == root)
        if counted != report.nlp_solves:
            problems.append(f"{case.name}: {counted} solve spans, RunReport.nlp_solves={report.nlp_solves}")
    mismatched = []
    for i in solves:
        rounds = sum(1 for c in kids[i] if spans[c].name == "solver.minimize")
        expected = spans[i].attrs.get("outer_iterations")
        if rounds != expected:
            mismatched.append(f"solve span {i}: {rounds} minimize spans, outer_iterations={expected}")
    if mismatched:
        problems.append(f"{len(mismatched)} solves, first: " + "; ".join(mismatched[:3]))

    solve_ms = [d * 1e3 for d in durations("engine.solve")]
    solve_total = sum(solve_ms) / 1e3
    merit_total = sum(durations("formulation.augmented_lagrangian"))
    n_solves = max(len(solves), 1)

    statuses = {"converged": 0, "iteration_limit": 0, "numerical_failure": 0}
    moved = steps = solves_to_best = 0
    time_to_best = 0.0
    iteration_ms = []
    built_rows = built_unpruned = 0
    prohibited = {root: case.instance.f_count for root, case in zip(run_spans, cases)}
    for i in by_name.get("engine.build_nlp", []):
        built_rows += spans[i].attrs.get("rows", 0)
        built_unpruned += unpruned_rows(spans[i].attrs.get("n", 0), prohibited.get(roots[i], 0))

    for root, case, report in zip(run_spans, cases, reports):
        if report is None:
            continue
        for trace in report.traces:
            for step in trace:
                statuses[step.status] = statuses.get(step.status, 0) + 1
                iteration_ms.append(step.elapsed * 1e3)
            for before, after in zip(trace, trace[1:]):
                steps += 1
                moved += abs(after.r_star - before.r_star) > MOVE_THRESHOLD
        rep = report.replication_of_best
        hits = [t for t, step in enumerate(report.traces[rep]) if step.r_star == report.best_radius]
        # Serial order: every earlier replication ran all its iterations.
        count = rep * case.config.iterations + hits[0] + 1 if hits else 0
        corrections = [i for i in by_name.get("engine.correct_radius", []) if roots[i] == root]
        if 0 < count <= len(corrections):
            solves_to_best += count
            time_to_best += spans[corrections[count - 1]].end - spans[root].start

    metrics = {
        "engine.replication_ms": _median([d * 1e3 for d in durations("engine.run_replication")]),
        "engine.iteration_ms": _median(iteration_ms),
        "engine.moved_frac": moved / steps if steps else 0.0,
        "engine.solves_to_best": solves_to_best,
        "engine.time_to_best_s": time_to_best,
        "engine.status.converged": statuses["converged"],
        "engine.status.iteration_limit": statuses["iteration_limit"],
        "engine.status.numerical_failure": statuses["numerical_failure"],
        "solver.solve_ms.p50": float(np.percentile(solve_ms, 50)) if solve_ms else 0.0,
        "solver.solve_ms.p90": float(np.percentile(solve_ms, 90)) if solve_ms else 0.0,
        "solver.outer_rounds": len(minimizes),
        "solver.merit_calls_per_solve": len(merits) / n_solves,
        "solver.scipy_self_ms": sum(own[i] for i in minimizes) * 1e3 / n_solves,
        "solver.self_ms": sum(own[i] for i in solves) * 1e3 / n_solves,
        "formulation.merit_us": _median([d * 1e6 for d in durations("formulation.augmented_lagrangian")]),
        "formulation.merit_calls": len(merits),
        "formulation.merit_share": merit_total / solve_total if solve_total else 0.0,
        "formulation.lagrangian_gradient_us": _median([d * 1e6 for d in durations("formulation.lagrangian_gradient")]),
        "formulation.linear_violations_us": _median([d * 1e6 for d in durations("formulation.linear_violations")]),
        "formulation.prune_us": _median([d * 1e6 for d in durations("engine.prune_pairs")]),
        "formulation.build_us": _median([d * 1e6 for d in durations("engine.build_nlp")]),
        "formulation.rows": built_rows / max(len(by_name.get("engine.build_nlp", [])), 1),
        "formulation.rows_kept_frac": built_rows / built_unpruned if built_unpruned else 0.0,
        "geometry.correct_radius_us": _median([d * 1e6 for d in durations("engine.correct_radius")]),
        "trace.solve_share": solve_total / pass_wall if pass_wall else 0.0,
    }
    return metrics, problems


def exact_layers(spans: list[Span], pass_wall: float) -> dict:
    """Per-layer metrics of one traced exact-check pass."""

    def ms(name: str, n: int | None = None) -> list[float]:
        return [
            span.duration * 1e3
            for span in spans
            if span.name == name and (n is None or span.attrs.get("n") == n)
        ]

    verify_total = sum(ms("geometry.verify_layout")) / 1e3
    return {
        "geometry.correct_radius_us": _median(ms("geometry.correct_radius")) * 1e3,
        "geometry.verify_ms.n50": _median(ms("geometry.verify_layout", 50)),
        "geometry.verify_ms.n100": _median(ms("geometry.verify_layout", 100)),
        "geometry.verify_ms.n200": _median(ms("geometry.verify_layout", 200)),
        "geometry.io_ms": _median(ms("geometry.io")),
        "trace.verify_share": verify_total / pass_wall if pass_wall else 0.0,
    }
