"""Checks of the benchmark harness itself: python3 -m pytest perfbench/tests"""

import json
import math
from pathlib import Path

import pytest

import layers
import workloads
from compare import compare, load_runs, verdict
from fsspack import FssConfig, Layout, correct_radius, instance_from_name, verify_layout
from tracer import TARGETS, Span, Tracer, self_times

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        Span("leaf", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
        Span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_verdicts_on_synthetic_runs():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [b * 0.8 for b in base]
    assert verdict(base, faster, higher_better=False, bound=0.1) == (1.0, "gain")
    slower = [b * 1.2 for b in base]
    assert verdict(base, slower, higher_better=False, bound=0.1)[1] == "regression"
    # Within the bound and not consistently better: no claim either way.
    mixed = [b * (1.01 if i % 2 else 0.99) for i, b in enumerate(base)]
    assert verdict(base, mixed, higher_better=False, bound=0.1)[1] == "within bound"
    # A base spread wider than the bound cannot resolve a small change.
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 1.01 for v in noisy], higher_better=False, bound=0.1)[1] == "unresolved"
    # Higher-is-better metrics flip the direction.
    assert verdict(base, faster, higher_better=True, bound=0.1)[1] == "regression"
    # Ties count for neither side.
    assert verdict(base, list(base), higher_better=False, bound=0.1) == (0.0, "within bound")


def _fingerprint(cases):
    out = []
    for case in cases:
        if isinstance(case, workloads.SearchCase):
            out.append((case.name, case.config.seed, case.config.n))
        else:
            out.append((case.name, case.centers.tobytes()))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(workload):
    one = _fingerprint(workloads.build_inputs(workload, 1))
    assert one == _fingerprint(workloads.build_inputs(workload, 1))
    other = _fingerprint(workloads.build_inputs(workload, 2))
    assert [name for name, *_ in one] == [name for name, *_ in other]
    assert all(a != b for a, b in zip(one, other))


def test_exact_layouts_are_sharp_at_their_corrected_radius():
    for case in workloads.build_inputs("exact-check", 3):
        n = int(case.name.rsplit("-n", 1)[1])
        assert case.centers.shape == (n, 2)
        radius = correct_radius(case.centers, case.instance)
        assert radius > 0.0
        assert verify_layout(Layout(case.centers, radius), case.instance, 0.0).feasible
        above = math.nextafter(radius, math.inf)
        assert not verify_layout(Layout(case.centers, above), case.instance, 0.0).feasible


def test_exact_pass_reports_no_failures(tmp_path):
    cases = workloads.build_inputs("exact-check", 4)[:2]
    result = workloads.run_pass("exact-check", cases, None, tmp_path)
    assert result.attempted == 2 and result.failures == {}
    assert all(0.0 < r < 1.0 for r in result.ratios)


def test_tracer_counts_match_the_program_and_restore_every_name():
    case = workloads.SearchCase(
        "problem6-n4",
        instance_from_name("problem6"),
        FssConfig(n=4, iterations=2, replications=2, seed=5),
    )
    originals = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        result = workloads.run_pass("search-n10", [case], tracer)
    finally:
        assert tracer.uninstall() == []
    assert [owner.__dict__[attr] for owner, attr, _ in TARGETS] == originals
    assert result.failures == {}

    metrics, problems = layers.search_layers(tracer.spans, [case], result.reports, result.wall_s)
    assert problems == []
    solves = [s for s in tracer.spans if s.name == "engine.solve"]
    assert len(solves) == result.reports[0].nlp_solves == 4
    assert metrics["solver.outer_rounds"] == sum(s.attrs["outer_iterations"] for s in solves)
    # The untraced merit counter and the merit spans agree.
    assert metrics["formulation.merit_calls"] == result.outcomes[0][2] > 0
    assert 1 <= metrics["engine.solves_to_best"] <= 4
    assert 0.0 < metrics["formulation.rows_kept_frac"] <= 1.0
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(metrics) <= declared


def test_self_check_flags_a_missing_minimize_span():
    spans = [
        Span("bench.run", 0.0, 5.0, -1),
        Span("engine.solve", 1.0, 2.0, 0, {"outer_iterations": 2, "status": "converged"}),
        Span("solver.minimize", 1.1, 1.5, 1),
    ]
    _, problems = layers.search_layers(spans, [], [], 5.0)
    assert any("minimize" in p for p in problems)


def _result_file(directory, name, workload, seed, wall, failed=0):
    record = {"run": {"workload": workload, "seed": seed, "trace": 0, "env": {}}}
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
    }
    (directory / name).write_text(json.dumps(record) + "\n" + json.dumps(result) + "\n")


def test_compare_marks_failures_and_unreadable_runs_invalid(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    for seed in range(1, 11):
        _result_file(base, f"{seed}.out", "search-n10", seed, 10.0 + 0.01 * seed)
        # Much faster on every seed, but one seed failed a check.
        _result_file(new, f"{seed}.out", "search-n10", seed, 5.0, failed=int(seed == 3))
    lines = compare(*(load_runs(d)[0] for d in (base, new)), SPEC)
    wall = next(line for line in lines if "wall_s" in line)
    assert wall.endswith("invalid")
    assert any("1 new runs not correct" in line for line in lines)

    # Without the failure the same numbers read as a gain ...
    _result_file(new, "3.out", "search-n10", 3, 5.0)
    runs = [load_runs(d) for d in (base, new)]
    assert next(x for x in compare(runs[0][0], runs[1][0], SPEC) if "wall_s" in x).endswith("gain")
    # ... but a crashed run's file is listed and blocks the verdict.
    (new / "crashed.out").write_text("Traceback (most recent call last):\n")
    new_runs, skipped = load_runs(new)
    assert skipped == [str(new / "crashed.out")]
    lines = compare(runs[0][0], new_runs, SPEC, skipped)
    assert next(x for x in lines if "wall_s" in x).endswith("invalid")
    # A seed whose new run is missing leaves its base run without a partner.
    (new / "3.out").unlink()
    lines = compare(runs[0][0], load_runs(new)[0], SPEC)
    assert next(x for x in lines if "wall_s" in x).endswith("invalid")
