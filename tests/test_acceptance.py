"""Acceptance gate: nine criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
search-quality criteria use real budgets, so this file takes minutes.
Every tolerance is pinned here, not computed.
"""

import json
import math
import time

import numpy as np
import pytest

from fsspack.cli import main as cli_main
from fsspack.engine import FssConfig, run
from fsspack.formulation import build_nlp, prune_pairs
from fsspack.geometry import (
    CartesianPoint,
    Instance,
    Layout,
    ProhibitedCircle,
    correct_radius,
    radius_upper_bound,
    verify_layout,
)
from fsspack.instances import builtin_instance
from fsspack.solver import gradient_check, solve

EMPTY = Instance("empty", [])

# Exact small-n optima in the empty container.
BEST_N1 = 1.0
BEST_N2 = 0.5
BEST_N3 = 2.0 * math.sqrt(3.0) - 3.0

# Reference radii for the bundled problems at n = 10, and the floor
# factor the search must reach at the reduced 40 x 10 budget.
REFERENCE_N10 = {
    "problem2": 0.25060817,
    "problem3": 0.26225892,
    "problem6": 0.26018588,
    "problem1-f11": 0.24958389,
}
FLOOR_N10 = {
    "problem2": 0.24058384,
    "problem3": 0.25176856,
    "problem6": 0.24977844,
    "problem1-f11": 0.23960053,
}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- shared expensive runs ---------------------------------------------------


@pytest.fixture(scope="session")
def small_runs():
    out = {}
    for n in (1, 2, 3):
        cfg = FssConfig(n=n, iterations=40, replications=5, seed=0)
        out[n] = run(EMPTY, cfg)
    return out


@pytest.fixture(scope="session")
def annulus_run():
    cfg = FssConfig(n=1, iterations=40, replications=5, seed=0)
    return run(builtin_instance(2), cfg)


@pytest.fixture(scope="session")
def published_runs():
    out = {}
    for name, inst in (
        ("problem2", builtin_instance(2)),
        ("problem3", builtin_instance(3)),
        ("problem6", builtin_instance(6)),
        ("problem1-f11", builtin_instance(1, 11)),
    ):
        cfg = FssConfig(n=10, iterations=40, replications=10, seed=0)
        started = time.perf_counter()
        out[name] = (run(inst, cfg), time.perf_counter() - started)
    return out


@pytest.fixture(scope="session")
def scaling_runs():
    inst = builtin_instance(2)
    out = {}
    for n in (10, 20):
        cfg = FssConfig(n=n, iterations=80, replications=25, seed=0)
        started = time.perf_counter()
        out[n] = (run(inst, cfg), time.perf_counter() - started)
    return out


# --- criteria ----------------------------------------------------------------


def test_c1_small_packings_match_exact_optima(small_runs):
    got = {n: small_runs[n].best_radius for n in (1, 2, 3)}
    want = {1: BEST_N1, 2: BEST_N2, 3: BEST_N3}
    errs = {n: abs(got[n] - want[n]) for n in got}
    ok = all(err <= 1e-3 for err in errs.values())
    report(
        "C1 small-n analytic optima",
        ok,
        ", ".join(f"n={n}: {got[n]:.8f} vs {want[n]:.8f}" for n in got),
    )
    assert ok, errs


def test_c2_single_circle_with_central_disk_matches_scan(annulus_run):
    # Independent 1-D oracle: with one circle the best centre lies on a
    # ray, so maximise min(1 - d, d - hole) over the centre distance.
    hole = builtin_instance(2).prohibited[0].radius

    def margin(d):
        return min(1.0 - d, d - hole)

    grid = np.linspace(hole, 1.0, 200001)
    d0 = grid[np.argmax([margin(d) for d in grid])]
    lo, hi = d0 - 1e-4, d0 + 1e-4
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if margin(m1) < margin(m2):
            lo = m1
        else:
            hi = m2
    oracle = margin((lo + hi) / 2)

    got = annulus_run.best_radius
    ok = abs(got - oracle) <= 1e-4
    report("C2 annular single-circle vs oracle", ok, f"got {got:.8f}, oracle {oracle:.8f}")
    assert ok


def test_c3_reduced_budget_reaches_reference_floors(published_runs):
    details = []
    ok = True
    for name, (rep, elapsed) in published_runs.items():
        floor = FLOOR_N10[name]
        reached = rep.best_radius >= floor
        ok = ok and reached
        details.append(
            f"{name}: {rep.best_radius:.8f} (floor {floor:.8f}, "
            f"ref {REFERENCE_N10[name]:.8f}, {elapsed:.0f}s)"
        )
    report("C3 published-value floors at 40x10", ok, "; ".join(details))
    assert ok, details


def test_c4_radius_shrinks_with_more_circles(scaling_runs):
    r10, t10 = scaling_runs[10]
    r20, t20 = scaling_runs[20]
    ok = r20.best_radius < r10.best_radius
    report(
        "C4 monotone in n at full 80x25 budget",
        ok,
        f"n=10: {r10.best_radius:.8f} ({t10:.0f}s), n=20: {r20.best_radius:.8f} ({t20:.0f}s)",
    )
    assert ok


def test_c5_correction_is_sound_and_sharp():
    # Random centre clouds: the corrected radius always verifies at
    # tolerance zero and admits no 1e-9 inflation.
    rng = np.random.default_rng(2024)
    inst = builtin_instance(6)
    fc = inst.prohibited_centers()
    fr = inst.prohibited_radii()
    sound = sharp = checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        inside = np.hypot(pts[:, 0], pts[:, 1]) < 1.0
        clear = (
            np.hypot(pts[:, None, 0] - fc[None, :, 0], pts[:, None, 1] - fc[None, :, 1])
            > fr[None, :]
        ).all(axis=1)
        if not (inside & clear).all():
            continue
        r = correct_radius(pts, inst)
        if r <= 1e-9:
            continue
        checked += 1
        if verify_layout(Layout(pts, r), inst, 0.0).feasible:
            sound += 1
        if not verify_layout(Layout(pts, r + 1e-9), inst, 1e-10).feasible:
            sharp += 1
    ok = sound == 1000 and sharp == 1000
    report("C5 radius correction sound and sharp", ok, f"{sound}/1000 sound, {sharp}/1000 sharp")
    assert ok


def test_c6_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pts = rng.uniform(-0.6, 0.6, size=(n, 2))
        polar = np.array([rng.random() >= 0.5 for _ in range(n)])
        k = int(rng.integers(0, 3))
        disks = [
            ProhibitedCircle(
                CartesianPoint(*rng.uniform(-0.5, 0.5, size=2)), float(rng.uniform(0.05, 0.2))
            )
            for _ in range(k)
        ]
        inst = Instance("random", disks)
        pairs = (np.column_stack(np.triu_indices(n, k=1)), np.indices((n, k)).reshape(2, -1).T)
        problem = build_nlp(inst, polar, Layout(pts, 0.0), 0.5, pairs, 0.7)
        z = problem.pack_start(pts, float(rng.uniform(0.05, 0.3)))
        # Keep the point interior so central differences stay in bounds.
        z = np.clip(z, problem.lower + 1e-4, problem.upper - 1e-4)
        worst = max(worst, gradient_check(problem, z))
    ok = worst < 1e-6
    report("C6 derivative exactness", ok, f"worst relative error {worst:.3e} over 100 programs")
    assert ok


def test_c7_pruning_never_changes_the_reachable_optimum():
    rng = np.random.default_rng(4242)
    inst = builtin_instance(6)
    fc = inst.prohibited_centers()
    fr = inst.prohibited_radii()

    def box_of(c, delta):
        return np.maximum(-1.0, c - delta), np.minimum(1.0, c + delta)

    pruned_total = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        pts = rng.uniform(-0.95, 0.95, size=(n, 2))
        delta = float(rng.uniform(0.0, 0.25))
        r_cap = float(rng.uniform(0.05, radius_upper_bound(inst, n)))
        polar = np.array([rng.random() >= 0.7 for _ in range(n)])
        circle_pairs, clearances = prune_pairs(Layout(pts, 0.0), polar, delta, r_cap, inst)
        kept_c = set(map(tuple, circle_pairs.tolist()))
        kept_f = set(map(tuple, clearances.tolist()))
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) in kept_c:
                    continue
                pruned_total += 1
                lo_i, hi_i = box_of(pts[i], delta)
                lo_j, hi_j = box_of(pts[j], delta)
                gap = np.maximum(0.0, np.maximum(lo_j - hi_i, lo_i - hi_j))
                assert math.hypot(*gap) >= 2.0 * r_cap - 1e-12
            for f in range(len(fr)):
                if (i, f) in kept_f:
                    continue
                pruned_total += 1
                lo, hi = box_of(pts[i], delta)
                nearest = np.clip(fc[f], lo, hi)
                assert math.hypot(*(nearest - fc[f])) >= r_cap + float(fr[f]) - 1e-12

    # Pruned and unpruned programs must land on the same optimum.
    agree_worst = 0.0
    solves = 0
    for trial in range(12):
        n = int(rng.integers(3, 6))
        lay = Layout(rng.uniform(-0.85, 0.85, size=(n, 2)), 0.0)
        polar = np.zeros(n, dtype=bool)
        r_cap = radius_upper_bound(inst, n)
        delta = 0.05
        kept = prune_pairs(lay, polar, delta, r_cap, inst)
        full = (
            np.column_stack(np.triu_indices(n, k=1)),
            np.indices((n, len(fr))).reshape(2, -1).T,
        )
        n_pruned = sum(len(rows) for rows in full) - sum(len(rows) for rows in kept)
        if n_pruned == 0:
            continue
        best = {}
        for label, pairs in (("pruned", kept), ("full", full)):
            problem = build_nlp(inst, polar, lay, delta, pairs, r_cap)
            res = solve(problem, problem.pack_start(lay.centers, 0.0))
            best[label] = correct_radius(problem.extract_centers(res.point), inst)
        solves += 1
        agree_worst = max(agree_worst, abs(best["pruned"] - best["full"]))
    ok = pruned_total > 100 and solves >= 5 and agree_worst <= 1e-7
    report(
        "C7 pruning soundness",
        ok,
        f"{pruned_total} pruned pairs certified, {solves} solve pairs agree within "
        f"{agree_worst:.2e}",
    )
    assert ok


def test_c8_end_to_end_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(
            ["run", "--problem", "2", "--n", "3", "--seed", "77",
             "--iterations", "3", "--replications", "2", "--out", str(out)]
        )
        assert code == 0
        assert cli_main(
            ["render", str(out / "problem2-n3.json"), "--svg", str(out / "lay.svg")]
        ) == 0
        outs.append(out)
    doc_a = json.loads((outs[0] / "results.json").read_text())
    doc_b = json.loads((outs[1] / "results.json").read_text())
    for row in doc_a + doc_b:
        row.pop("total_time_s")
    same_json = doc_a == doc_b
    same_layout = (outs[0] / "problem2-n3.json").read_bytes() == (
        outs[1] / "problem2-n3.json"
    ).read_bytes()
    same_svg = (outs[0] / "lay.svg").read_bytes() == (outs[1] / "lay.svg").read_bytes()
    ok = same_json and same_layout and same_svg
    report(
        "C8 end-to-end determinism",
        ok,
        f"results {'=' if same_json else '!='}, layouts {'=' if same_layout else '!='}, "
        f"svg {'=' if same_svg else '!='}",
    )
    assert ok


def test_c9_no_iteration_exceeds_the_radius_cap(
    small_runs, annulus_run, published_runs, scaling_runs
):
    checked = 0
    worst_excess = -math.inf
    cases = []
    for n, rep in small_runs.items():
        cases.append((EMPTY, n, rep))
    cases.append((builtin_instance(2), 1, annulus_run))
    for name, (rep, _) in published_runs.items():
        inst = builtin_instance(1, 11) if name == "problem1-f11" else {
            "problem2": builtin_instance(2),
            "problem3": builtin_instance(3),
            "problem6": builtin_instance(6),
        }[name]
        cases.append((inst, 10, rep))
    for n, (rep, _) in scaling_runs.items():
        cases.append((builtin_instance(2), n, rep))
    for inst, n, rep in cases:
        cap = radius_upper_bound(inst, n)
        for traces in rep.traces:
            for t in traces:
                checked += 1
                worst_excess = max(worst_excess, t.r_star - cap)
    ok = worst_excess <= 1e-12
    report(
        "C9 corrected radii respect the area bound",
        ok,
        f"{checked} iterations, worst excess {worst_excess:.2e}",
    )
    assert ok
