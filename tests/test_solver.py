"""Augmented Lagrangian solver on problems with known optima."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from fsspack import solver
from fsspack.formulation import EvaluationError, build_nlp, row_id_count
from fsspack.geometry import (
    CartesianPoint,
    Instance,
    Layout,
    ProhibitedCircle,
    correct_radius,
    radius_upper_bound,
)
from fsspack.instances import builtin_instance
from fsspack.solver import (
    CONVERGED,
    ITERATION_LIMIT,
    NUMERICAL_FAILURE,
    gradient_check,
    solve,
)

EMPTY = Instance("empty", [])


def annulus_oracle(hole: float) -> float:
    # Best single-circle radius with a central prohibited disk.  The
    # radius at centre distance d is min(1 - d, d - hole); maximise it
    # by dense scan plus ternary refinement around the peak.
    def margin(d):
        return min(1.0 - d, d - hole)

    grid = np.linspace(hole, 1.0, 100001)
    best = grid[np.argmax([margin(d) for d in grid])]
    lo, hi = best - 1e-5, best + 1e-5
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if margin(m1) < margin(m2):
            lo = m1
        else:
            hi = m2
    return margin((lo + hi) / 2)


def mask(n, *polar):
    # Polar mask of n circles, True at the given indices.
    out = np.zeros(n, dtype=bool)
    out[list(polar)] = True
    return out


def build_for(centers, polar, instance=EMPTY, delta=2.0, r_cap=None, pairs=None):
    centers = np.asarray(centers, dtype=float)
    n, _ = centers.shape
    if r_cap is None:
        r_cap = radius_upper_bound(instance, n)
    if pairs is None:
        pairs = (
            np.column_stack(np.triu_indices(n, k=1)),
            np.indices((n, instance.f_count)).reshape(2, -1).T,
        )
    return build_nlp(instance, polar, Layout(centers, 0.0), delta, pairs, r_cap)


@pytest.fixture
def monotone_merit(monkeypatch):
    """Assert that no inner minimisation of a solve increases its own merit.

    Wraps the solver's `minimize` and evaluates the merit function at the
    start and at the clipped result of every call.
    """
    real = solver.minimize
    calls = []

    def checked(merit, x0, bounds, **kwargs):
        before = merit(x0)
        result = real(merit, x0, bounds=bounds, **kwargs)
        after = merit(np.clip(result.x, bounds.lb, bounds.ub))
        slack = 1e-9 * (1.0 + abs(before))
        assert after <= before + slack, (
            f"inner minimisation increased the merit: {before} -> {after}"
        )
        calls.append(after)
        return result

    monkeypatch.setattr(solver, "minimize", checked)
    yield
    assert calls, "the solver never called minimize"


def test_single_circle_fills_container(monotone_merit):
    p = build_for([(0.3, 0.2)], mask(1))
    res = solve(p, p.pack_start(np.array([[0.3, 0.2]]), 0.1))
    assert res.status == CONVERGED
    assert res.objective == pytest.approx(1.0, abs=1e-6)
    assert res.max_constraint_violation <= 1e-8


def test_two_circles_split_the_diameter(monotone_merit):
    centers = np.array([[0.4, 0.1], [-0.3, -0.2]])
    p = build_for(centers, mask(2, 1))
    res = solve(p, p.pack_start(centers, 0.1))
    assert res.status in (CONVERGED, ITERATION_LIMIT)
    corrected = correct_radius(p.extract_centers(res.point), EMPTY)
    assert corrected == pytest.approx(0.5, abs=1e-6)


def test_annular_single_circle_matches_scan_oracle(monotone_merit):
    hole = 0.2
    inst = Instance("hole", [ProhibitedCircle(CartesianPoint(0.0, 0.0), hole)])
    want = annulus_oracle(hole)
    assert want == pytest.approx((1.0 - hole) / 2.0, abs=1e-9)
    centers = np.array([[0.55, 0.1]])
    p = build_for(centers, mask(1), inst)
    res = solve(p, p.pack_start(centers, 0.05))
    corrected = correct_radius(p.extract_centers(res.point), inst)
    assert corrected == pytest.approx(want, abs=1e-7)


def test_polar_formulation_reaches_the_same_optimum(monotone_merit):
    hole = 0.2
    inst = Instance("hole", [ProhibitedCircle(CartesianPoint(0.0, 0.0), hole)])
    centers = np.array([[0.55, 0.1]])
    p = build_for(centers, mask(1, 0), inst)
    res = solve(p, p.pack_start(centers, 0.05))
    corrected = correct_radius(p.extract_centers(res.point), inst)
    assert corrected == pytest.approx((1.0 - hole) / 2.0, abs=1e-7)


def test_solver_is_deterministic():
    rng = np.random.default_rng(13)
    centers = rng.uniform(-0.5, 0.5, size=(6, 2))
    inst = Instance("d", [ProhibitedCircle(CartesianPoint(0.1, -0.2), 0.15)])
    p = build_for(centers, mask(6, 1, 3, 5), inst, delta=0.3)
    start = p.pack_start(centers, 0.1)
    first = solve(p, start)
    second = solve(p, start)
    assert np.array_equal(first.point, second.point)
    assert first.status == second.status
    assert first.outer_iterations == second.outer_iterations


def test_converged_objective_agrees_with_correction():
    # On a clean convergence the NLP radius and the exact corrected
    # radius of the final centres must agree to within the tolerance.
    p = build_for([(0.3, 0.2)], mask(1))
    res = solve(p, p.pack_start(np.array([[0.3, 0.2]]), 0.1))
    assert res.status == CONVERGED
    corrected = correct_radius(p.extract_centers(res.point), EMPTY)
    assert abs(corrected - res.objective) <= 1e-8 + 1e-9


def test_infeasible_start_recovers():
    # Nearly coincident centres at a fat radius guess massively violate
    # separation; the solver must still reach the two-circle optimum.
    centers = np.array([[0.2, 0.2], [0.21, 0.2]])
    p = build_for(centers, mask(2))
    res = solve(p, p.pack_start(centers, 0.4))
    assert res.status in (CONVERGED, ITERATION_LIMIT)
    assert res.max_constraint_violation <= 1e-8
    corrected = correct_radius(p.extract_centers(res.point), EMPTY)
    assert corrected == pytest.approx(0.5, abs=1e-6)


def test_coincident_start_degrades_gracefully():
    # Exactly coincident centres sit on a symmetric saddle: the pair
    # constraint has zero gradient there, so the solver cannot split
    # them.  It must report honestly rather than crash.
    centers = np.array([[0.2, 0.2], [0.2, 0.2]])
    p = build_for(centers, mask(2))
    res = solve(p, p.pack_start(centers, 0.4))
    assert res.status in (CONVERGED, ITERATION_LIMIT, NUMERICAL_FAILURE)
    assert np.all(np.isfinite(res.point))


def test_gradient_check_interior_and_bounds():
    rng = np.random.default_rng(29)
    inst = Instance("d", [ProhibitedCircle(CartesianPoint(0.25, -0.1), 0.12)])
    centers = rng.uniform(-0.5, 0.5, size=(4, 2))
    p = build_for(centers, mask(4, 1, 3), inst, delta=0.5)
    interior = p.pack_start(centers, 0.2)
    assert gradient_check(p, interior) < 1e-8
    # Clamp a point onto the bounds; one-sided differences are coarser.
    at_bounds = np.clip(interior, p.lower, p.lower)
    assert gradient_check(p, at_bounds) < 1e-5


def test_gradient_check_rejects_bad_point_shape():
    p = build_for([(0.3, 0.2)], mask(1))
    for bad in (np.zeros(4), np.zeros((1, 3)), 0.2):
        with pytest.raises(ValueError, match=r"point must have shape \(3,\)"):
            gradient_check(p, bad)
    z = p.pack_start(np.array([[0.3, 0.2]]), 0.1)
    z[1] = np.nan
    with pytest.raises(EvaluationError, match="non-finite value"):
        gradient_check(p, z)


def test_stall_exit_spares_the_outer_budget():
    # Warm restarts at a degenerate optimum stop early instead of
    # burning all outer rounds on an unreachable stationarity target.
    centers = np.array([[0.5, 0.0], [-0.5, 0.0]])
    p = build_for(centers, mask(2))
    res = solve(p, p.pack_start(centers, 0.5))
    assert res.outer_iterations < 50
    assert res.max_constraint_violation <= 1e-8
    corrected = correct_radius(p.extract_centers(res.point), EMPTY)
    assert corrected == pytest.approx(0.5, abs=1e-8)


def test_numerical_failure_is_reported_not_raised():
    p = build_for([(0.3, 0.2)], mask(1))

    real = p.augmented_lagrangian

    def poisoned(z, multipliers, penalty):
        value, grad = real(z, multipliers, penalty)
        return float("nan"), grad

    p.augmented_lagrangian = poisoned
    res = solve(p, p.pack_start(np.array([[0.3, 0.2]]), 0.1))
    assert res.status == NUMERICAL_FAILURE
    assert np.all(np.isfinite(res.point))


def test_solve_rejects_bad_start_shape():
    p = build_for([(0.3, 0.2)], mask(1))
    with pytest.raises(ValueError):
        solve(p, np.zeros(7))
    # np.clip would broadcast these to the right shape.
    with pytest.raises(ValueError):
        solve(p, np.zeros(1))
    with pytest.raises(ValueError):
        solve(p, np.float64(0.2))


def test_gradient_memo_never_serves_a_stale_gradient(monkeypatch):
    # scipy asks for the gradient right after the value at the same point,
    # but the solver must not rely on it.  This stand-in for minimize asks
    # for it first, again after the value, and at another point, in every
    # outer round, and ends each round with a value at the point it
    # returns.  The start overlaps two circles, so the penalty grows
    # between rounds and a gradient kept from the last round would be stale.
    centers = np.array([[0.2, 0.2], [0.21, 0.2]])
    p = build_for(centers, mask(2, 1))
    real = p.augmented_lagrangian
    evaluations = []

    def counted(z, multipliers, penalty):
        evaluations.append((multipliers.copy(), penalty))
        return real(z, multipliers, penalty)

    p.augmented_lagrangian = counted
    rounds = []

    def stub(fun, x0, jac, bounds, **kwargs):
        first = jac(x0)
        fun(x0)
        multipliers, penalty = evaluations[-1]
        again = jac(x0)
        used = len(evaluations)
        other = np.clip(x0 + 0.01, bounds.lb, bounds.ub)
        moved = jac(other)
        rounds.append(penalty)
        assert np.array_equal(first, real(x0, multipliers, penalty)[1])
        assert np.array_equal(again, first) and used == len(evaluations) - 1
        assert np.array_equal(moved, real(other, multipliers, penalty)[1])
        fun(x0)
        return OptimizeResult(x=x0)

    monkeypatch.setattr(solver, "minimize", stub)
    solve(p, p.pack_start(centers, 0.4))
    assert len(set(rounds)) > 1


def test_non_finite_gradient_on_the_jac_path_is_reported(monkeypatch):
    p = build_for([(0.3, 0.2)], mask(1))
    real = p.augmented_lagrangian

    def poisoned(z, multipliers, penalty):
        value, grad = real(z, multipliers, penalty)
        grad[-1] = float("nan")
        return value, grad

    def stub(fun, x0, jac, bounds, **kwargs):
        jac(x0)
        raise AssertionError("a non-finite gradient must end the solve")

    p.augmented_lagrangian = poisoned
    monkeypatch.setattr(solver, "minimize", stub)
    res = solve(p, p.pack_start(np.array([[0.3, 0.2]]), 0.1))
    assert res.status == NUMERICAL_FAILURE
    assert res.outer_iterations == 1


def test_zero_multipliers_are_the_default():
    centers = np.array([[0.2, 0.2], [0.21, 0.2]])
    p = build_for(centers, mask(2, 1))
    start = p.pack_start(centers, 0.4)
    cold = solve(p, start)
    zeros = solve(p, start, np.zeros(p.m))
    assert np.array_equal(cold.point, zeros.point)
    assert np.array_equal(cold.multipliers, zeros.multipliers)
    assert cold.merit_calls == zeros.merit_calls > 0
    assert cold.multipliers.shape == (p.m,) and (cold.multipliers >= 0.0).all()


def test_solve_rejects_bad_multipliers():
    p = build_for([(0.3, 0.2)], mask(1))
    start = p.pack_start(np.array([[0.3, 0.2]]), 0.1)
    for bad in (np.zeros(p.m + 1), np.zeros(()), -np.ones(p.m), np.full(p.m, np.nan)):
        with pytest.raises(ValueError, match="multipliers"):
            solve(p, start, bad)


def projected_lagrangian_gradient(problem, z, multipliers):
    grad = problem.lagrangian_gradient(z, multipliers)
    return np.max(np.abs(z - np.clip(z - grad, problem.lower, problem.upper)))


def test_warm_start_survives_a_coordinate_flip():
    # Solve, then re-pose the program with every circle's coordinates
    # flipped, as the search does to some circles each iteration.  The
    # exit multipliers, carried by row id in distance units, are still
    # multipliers of the same KKT point: the warm solve confirms the
    # radius in fewer merit calls than a cold one.
    inst = builtin_instance(2)
    n = 4
    rng = np.random.default_rng(1)
    angle, dist = rng.uniform(0.0, 2.0 * np.pi, n), rng.uniform(0.3, 0.9, n)
    centers = np.column_stack((dist * np.cos(angle), dist * np.sin(angle)))
    first = build_for(centers, mask(4, 1, 3), inst)
    exit_ = solve(first, first.pack_start(centers, 0.05))
    exit_centers = first.extract_centers(exit_.point)
    radius = correct_radius(exit_centers, inst)

    flipped = build_for(exit_centers, mask(4, 0, 2), inst)
    start = flipped.pack_start(exit_centers, radius)
    carried = np.zeros(row_id_count(n, inst.f_count))
    carried[first.row_ids] = first.distance_multipliers(exit_.multipliers, exit_.point[0])
    warm_multipliers = flipped.row_multipliers(carried[flipped.row_ids], start[0])
    assert warm_multipliers.any()

    # Re-scaled multipliers nearly annul the Lagrangian gradient at the
    # flipped start; zeros, or the old rows' values unscaled, do not.
    warm_kkt = projected_lagrangian_gradient(flipped, start, warm_multipliers)
    unscaled = np.zeros_like(carried)
    unscaled[first.row_ids] = exit_.multipliers
    unscaled = unscaled[flipped.row_ids]
    assert warm_kkt < 1e-4
    assert projected_lagrangian_gradient(flipped, start, np.zeros(flipped.m)) > 100 * warm_kkt
    assert projected_lagrangian_gradient(flipped, start, unscaled) > 100 * warm_kkt

    warm = solve(flipped, start, warm_multipliers)
    cold = solve(flipped, start)
    for result in (warm, cold):
        assert correct_radius(flipped.extract_centers(result.point), inst) == pytest.approx(
            radius, abs=1e-9
        )
    assert warm.merit_calls < cold.merit_calls
