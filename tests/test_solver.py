"""Augmented Lagrangian solver on problems with known optima."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from fsspack import engine, solver
from fsspack.engine import FssConfig, replication_rng, run, run_replication
from fsspack.formulation import EvaluationError, NlpProblem, build_nlp, row_id_count
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


def mask(n, *free):
    # Free (unboxed) mask of n circles, True at the given indices.
    out = np.zeros(n, dtype=bool)
    out[list(free)] = True
    return out


def build_for(centers, free, instance=EMPTY, delta=2.0, r_cap=None, pairs=None):
    centers = np.asarray(centers, dtype=float)
    n, _ = centers.shape
    if r_cap is None:
        r_cap = radius_upper_bound(instance, n)
    if pairs is None:
        pairs = (
            np.column_stack(np.triu_indices(n, k=1)),
            np.indices((n, instance.f_count)).reshape(2, -1).T,
        )
    return build_nlp(instance, free, Layout(centers, 0.0), delta, pairs, r_cap)


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


def test_free_circle_reaches_the_same_optimum(monotone_merit):
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


@pytest.mark.parametrize("carried", [300.0, 1000.0])
def test_a_multiplier_on_a_slack_row_does_not_converge_short(carried):
    # The disk lies outside the container, so its clearance row is slack
    # at the optimum (radius 1 at the origin).  A large carried multiplier
    # on it drives the first round to radius 0 at a box corner, where the
    # Lagrangian gradient vanishes at a still positive multiplier:
    # stationary, but not complementary, so not converged.
    inst = Instance("outside", [ProhibitedCircle(CartesianPoint(3.0, 0.0), 1.0)])
    centers = np.array([[0.0, 0.0]])
    p = build_for(centers, mask(1), inst)
    multipliers = np.zeros(p.m)
    multipliers[-1] = carried
    res = solve(p, p.pack_start(centers, 0.5), multipliers)
    corrected = correct_radius(p.extract_centers(res.point), inst)
    assert res.status != CONVERGED or corrected == pytest.approx(1.0, abs=1e-8)
    if res.status == CONVERGED:
        assert res.multipliers[-1] == 0.0


def test_the_penalty_grows_only_by_the_growth_factor(monkeypatch):
    # One rule moves the penalty: it starts at its initial value in every
    # solve and grows by _PENALTY_GROWTH when a round misses its
    # feasibility target.  Record the penalty each merit call of a short
    # search sees, solve by solve.
    solves = []
    real_solve, real_merit = engine.solve, NlpProblem.augmented_lagrangian

    def recording_solve(*args):
        # Reported as iteration_limit, a converged solve does not end the
        # replication at a fixed point, so every iteration runs.
        solves.append([])
        result = real_solve(*args)
        if result.status == CONVERGED:
            result = dataclasses.replace(result, status=ITERATION_LIMIT)
        return result

    def recording_merit(self, z, multipliers, penalty):
        solves[-1].append(penalty)
        return real_merit(self, z, multipliers, penalty)

    monkeypatch.setattr(engine, "solve", recording_solve)
    monkeypatch.setattr(NlpProblem, "augmented_lagrangian", recording_merit)
    config = FssConfig(n=10, iterations=3, replications=1)
    run_replication(builtin_instance(2), config, replication_rng(config.seed, 0))
    assert len(solves) == 3
    rises = []
    for penalties in solves:
        assert penalties[0] == solver._INITIAL_PENALTY
        rises += [b / a for a, b in zip(penalties, penalties[1:]) if b != a]
    assert rises and all(rise == solver._PENALTY_GROWTH for rise in rises)


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
    # Move every boxed variable onto its lower bound; one-sided
    # differences are coarser.  The free circle's variables are unbounded.
    at_bounds = np.where(np.isfinite(p.lower), p.lower, interior)
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
    # for the gradient or the value first, in turn, then for the other at
    # the same point, again for both, and for the gradient at another
    # point, in every outer round; it ends each round with a value at the
    # point it returns, which is where the next round starts.  The start
    # overlaps two circles, so the penalty grows between rounds and a value
    # or a gradient kept from the last round would be stale.
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
        before = len(evaluations)
        if len(rounds) % 2:
            value, first = fun(x0), jac(x0)
        else:
            first, value = jac(x0), fun(x0)
        # One fresh evaluation, at this round's multipliers and penalty.
        assert len(evaluations) == before + 1
        multipliers, penalty = evaluations[-1]
        want_value, want_grad = real(x0, multipliers, penalty)
        assert value == want_value and np.array_equal(first, want_grad)
        assert fun(x0) == value and np.array_equal(jac(x0), first)
        assert len(evaluations) == before + 1
        other = np.clip(x0 + 0.01, bounds.lb, bounds.ub)
        moved = jac(other)
        assert len(evaluations) == before + 2
        assert np.array_equal(moved, real(other, multipliers, penalty)[1])
        rounds.append((multipliers.copy(), penalty))
        fun(x0)
        return OptimizeResult(x=x0, nit=0)

    monkeypatch.setattr(solver, "minimize", stub)
    solve(p, p.pack_start(centers, 0.4))
    assert len(rounds) > 2
    assert len({penalty for _, penalty in rounds}) > 1
    # Some round kept the penalty and took new multipliers.
    assert any(
        a[1] == b[1] and not np.array_equal(a[0], b[0]) for a, b in zip(rounds, rounds[1:])
    )


def test_the_no_step_shortcut_fires_exactly_when_scipy_takes_no_step(monkeypatch):
    # solver.minimize answers a round itself when the start passes
    # L-BFGS-B's first test.  On random small programs it must do so
    # exactly when scipy.optimize.minimize returns the start, bit for bit,
    # after one evaluation, and then give what scipy gives.  A line search
    # that fails in the first iteration also returns the start at nit 0,
    # but after more evaluations: that round is scipy's.  Starts are drawn
    # raw, with R at 0 or at r_cap and boxed centres on their bounds, or
    # polished by a first L-BFGS-B run, which leaves the test near its
    # threshold.
    optimize = solver.load_optimizer()
    real = optimize.minimize
    scipy_calls = []

    def counted(*args, **kwargs):
        scipy_calls.append(1)
        return real(*args, **kwargs)

    def options(gtol):
        return {"maxiter": 500, "maxfun": 5000, "ftol": 1e-14, "gtol": gtol, "maxcor": 12}

    monkeypatch.setattr(optimize, "minimize", counted)
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(150):
        n, k = int(rng.integers(1, 9)), int(rng.integers(0, 3))
        disks = [
            ProhibitedCircle(CartesianPoint(*rng.uniform(-0.8, 0.8, 2)), rng.uniform(0.05, 0.3))
            for _ in range(k)
        ]
        inst = Instance("random", disks)
        centers = rng.uniform(-0.7, 0.7, (n, 2))
        p = build_for(centers, rng.random(n) > 0.5, inst, delta=rng.uniform(0.01, 0.3))
        r_cap = p.upper[0]
        z = p.pack_start(centers, rng.choice([0.0, r_cap, rng.uniform(0.0, r_cap)]))
        boxed = np.isfinite(p.lower)
        on_bound = boxed & (rng.random(p.nv) < 0.3)
        z[on_bound] = np.where(rng.random(p.nv) < 0.5, p.lower, p.upper)[on_bound]
        multipliers = rng.exponential(1.0, p.m) * (rng.random(p.m) < rng.random())
        penalty = 10.0 ** rng.integers(1, 9)

        def fun(x):
            return p.augmented_lagrangian(x, multipliers, penalty)[0]

        def jac(x):
            return p.augmented_lagrangian(x, multipliers, penalty)[1]

        bounds = optimize.Bounds(p.lower, p.upper)
        kwargs = {"jac": jac, "method": "L-BFGS-B", "bounds": bounds}
        gtol = 10.0 ** -rng.integers(1, 10)
        if rng.random() < 0.7:
            polish = min(gtol * 10.0 ** rng.integers(-1, 2), 0.1)
            z = real(fun, z, options=options(polish), **kwargs).x
        scipy_calls.clear()
        ours = solver.minimize(fun, z, options=options(gtol), **kwargs)
        theirs = real(fun, z, options=options(gtol), **kwargs)
        no_step = theirs.nit == 0 and theirs.nfev == 1
        assert (not scipy_calls) == no_step
        if no_step:
            assert theirs.x.tobytes() == z.tobytes()
        assert ours.x.tobytes() == theirs.x.tobytes()
        assert (ours.nit, ours.nfev, ours.fun) == (theirs.nit, theirs.nfev, theirs.fun)
        assert np.array_equal(ours.jac, theirs.jac)
        outcomes.append(no_step)
    # Both branches ran, often.
    assert outcomes.count(True) >= 25 and outcomes.count(False) >= 25


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


def test_warm_start_survives_a_mask_flip():
    # Solve, then re-pose the program with every circle's coordinates
    # flipped, as the search does to some circles each iteration.  A row
    # is the same function of the centres in either posing, so the exit
    # multipliers, carried by row id as they are, are still multipliers
    # of the same KKT point: the warm solve confirms the radius in fewer
    # merit calls than a cold one.
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
    carried[first.row_ids] = exit_.multipliers
    warm_multipliers = carried[flipped.row_ids]
    assert warm_multipliers.any()

    # The carried multipliers nearly annul the Lagrangian gradient at the
    # flipped start; zeros do not.
    warm_kkt = projected_lagrangian_gradient(flipped, start, warm_multipliers)
    assert warm_kkt < 1e-4
    assert projected_lagrangian_gradient(flipped, start, np.zeros(flipped.m)) > 100 * warm_kkt

    # The warm solve confirms the first exit.  The cold one may climb a
    # little past it (the first exit stops 2.8e-9 short of sqrt(2) - 1),
    # but must not fall short of it.
    warm = solve(flipped, start, warm_multipliers)
    cold = solve(flipped, start)
    assert correct_radius(flipped.extract_centers(warm.point), inst) == pytest.approx(
        radius, abs=1e-9
    )
    assert correct_radius(flipped.extract_centers(cold.point), inst) >= radius - 1e-9
    assert warm.merit_calls < cold.merit_calls


def test_capped_rounds_count_the_inner_rounds_at_the_iteration_cap(monkeypatch):
    # The first solve of this n = 30 replication has an inner round that
    # stops at the 500-iteration cap; later ones start near its exit.
    real = solver.minimize
    iterations = []

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result.nit)
        return result

    monkeypatch.setattr(solver, "minimize", recording)
    config = FssConfig(n=30, iterations=1, replications=1, seed=1)
    _, traces = run_replication(builtin_instance(2), config, replication_rng(1, 0))
    assert max(iterations) == solver._MAX_INNER
    assert traces[0].capped_rounds == iterations.count(solver._MAX_INNER) > 0
    assert len(iterations) == traces[0].outer_rounds


# --- the active-set polish ----------------------------------------------------

HOLE = Instance("hole", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.2)])
# (centres, instance, exact optimum): two and three circles in the empty
# disk, one circle in the annulus around a central hole of radius 0.2.
POLISHED = {
    "n2": ([(0.4, 0.1), (-0.3, -0.2)], EMPTY, 0.5),
    "n3": ([(0.4, 0.1), (-0.3, -0.2), (0.0, 0.5)], EMPTY, 2.0 * math.sqrt(3.0) - 3.0),
    "annulus": ([(0.55, 0.1)], HOLE, 0.4),
}


def recording_polish(monkeypatch, wrap=None):
    """Record whether each polish the solver tries is accepted."""
    real = solver.polish
    accepted = []

    def recording(*args):
        outcome = (wrap or real)(*args)
        accepted.append(outcome is not None)
        return outcome

    monkeypatch.setattr(solver, "polish", recording)
    return accepted


def without_polish(monkeypatch, problem, start):
    with monkeypatch.context() as patch:
        patch.setattr(solver, "polish", lambda *args: None)
        return solve(problem, start)


def outcome(res):
    return (
        res.point.tobytes(), res.multipliers.tobytes(), res.status, res.outer_iterations,
        res.merit_calls, res.capped_rounds, res.max_constraint_violation, res.stationarity,
    )


@pytest.mark.parametrize("free", [False, True])
@pytest.mark.parametrize("case", sorted(POLISHED))
def test_polish_finishes_small_packings_exactly(monkeypatch, case, free):
    # Without the polish these solves stop at the stall exit or the
    # loop's own 1e-8 test; with it they end on the exact optimum.  One
    # circle in the empty disk is not here: see
    # test_a_rejected_polish_leaves_the_solve_as_it_was.
    centers, inst, want = POLISHED[case]
    centers = np.array(centers)
    p = build_for(centers, np.full(len(centers), free), inst)
    accepted = recording_polish(monkeypatch)
    res = solve(p, p.pack_start(centers, 0.05))
    assert accepted[-1]
    assert res.status == CONVERGED
    assert abs(correct_radius(p.extract_centers(res.point), inst) - want) <= 1e-12
    assert res.max_constraint_violation <= solver._POLISH_VIOLATION
    assert res.stationarity <= solver._KKT_TOL
    # Multipliers are nonnegative, and zero off the rows at the optimum.
    assert (res.multipliers >= 0.0).all()
    assert (res.multipliers[p.constraint_values(res.point) > 1e-9] == 0.0).all()


def test_the_polished_stationarity_is_the_kkt_residual_of_the_exit(monkeypatch):
    centers, inst, _ = POLISHED["n3"]
    centers = np.array(centers)
    p = build_for(centers, mask(3, 1), inst)
    res = solve(p, p.pack_start(centers, 0.05))
    assert res.status == CONVERGED
    grad = p.lagrangian_gradient(res.point, res.multipliers)
    projected = res.point - np.clip(res.point - grad, p.lower, p.upper)
    complementarity = np.minimum(p.constraint_values(res.point), res.multipliers)
    assert res.stationarity == np.max(np.abs(np.concatenate((projected, complementarity))))
    assert res.max_constraint_violation == max(np.max(p.linear_violations(res.point)), 0.0)
    # The loop's own exits report the residual at their last candidate
    # multipliers; a solve whose first round fails has none.
    loop = without_polish(monkeypatch, p, p.pack_start(centers, 0.05))
    assert 0.0 < loop.stationarity < math.inf
    real = p.augmented_lagrangian
    p.augmented_lagrangian = lambda *args: (math.nan, real(*args)[1])
    failed = solve(p, p.pack_start(centers, 0.05))
    assert failed.status == NUMERICAL_FAILURE and failed.stationarity == math.inf


def narrowed(real):
    """The real polish, on a copy of the program whose bounds are one ulp
    either side of z: every variable is still an unknown, so the Newton
    steps are the same, but any move leaves the box."""

    def polish(problem, z, *args):
        assert real(problem, z, *args) is not None
        tight = copy.copy(problem)
        tight.lower, tight.upper = np.nextafter(z, -np.inf), np.nextafter(z, np.inf)
        return real(tight, z, *args)

    return polish


def _raises(*args, **kwargs):
    raise np.linalg.LinAlgError("poisoned")


def _not_a_number(a, b, rcond=None):
    return np.full(a.shape[1], np.nan), np.empty(0), 0, np.empty(0)


@pytest.mark.parametrize(
    "cause", ["lstsq raises", "lstsq gives NaN", "the point leaves the box", "linear Newton"]
)
def test_a_rejected_polish_leaves_the_solve_as_it_was(monkeypatch, cause):
    # A polish that fails in any way changes nothing: the solve goes on
    # exactly as with the polish stubbed out.  The last cause is real: one
    # circle in the empty disk ends at R = r_cap = 1 with its centre at the
    # origin, where the containment row's gradient vanishes, so each
    # Newton step only halves the centre and the multiplier, and the
    # residual misses the tolerance after _POLISH_STEPS steps.  That solve
    # ends by the loop's own test.
    if cause == "linear Newton":
        centers, inst = np.array([[0.3, 0.2]]), EMPTY
    else:
        centers, inst = np.array(POLISHED["n3"][0]), EMPTY
    p = build_for(centers, np.ones(len(centers), dtype=bool), inst)
    start = p.pack_start(centers, 0.05)
    wrap = None
    if cause == "lstsq raises":
        monkeypatch.setattr(np.linalg, "lstsq", _raises)
    elif cause == "lstsq gives NaN":
        monkeypatch.setattr(np.linalg, "lstsq", _not_a_number)
    elif cause == "the point leaves the box":
        wrap = narrowed(solver.polish)
    accepted = recording_polish(monkeypatch, wrap)
    res = solve(p, start)
    assert accepted and not any(accepted)
    assert outcome(res) == outcome(without_polish(monkeypatch, p, start))
    if cause == "linear Newton":
        assert res.status == CONVERGED
        assert correct_radius(p.extract_centers(res.point), inst) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("inst", [builtin_instance(2), builtin_instance(1, 11)])
def test_polish_never_lowers_a_search(monkeypatch, inst):
    config = FssConfig(n=10, iterations=10, replications=3, seed=1)
    polished = run(inst, config)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "polish", lambda *args: None)
        plain = run(inst, config)
    assert polished.best_radius >= plain.best_radius
    statuses = [t.status for trace in polished.traces for t in trace]
    assert statuses.count(CONVERGED) > statuses.count(ITERATION_LIMIT)
    converged = [t for trace in polished.traces for t in trace if t.status == CONVERGED]
    assert all(t.stationarity <= solver._KKT_TOL for t in converged)


def test_polish_is_tried_once_per_active_set_seen_twice_in_a_row(monkeypatch):
    # The estimated active set of a round: rows within _ACTIVE_TOL of
    # binding, at a positive candidate multiplier.  The polish is tried
    # after a round whose set matches the round before and has not been
    # tried yet, on that round's point and candidate multipliers.
    rng = np.random.default_rng(2)
    centers = rng.uniform(-0.5, 0.5, size=(6, 2))
    inst = Instance("d", [ProhibitedCircle(CartesianPoint(0.1, -0.2), 0.15)])
    p = build_for(centers, mask(6, 1, 3, 5), inst, delta=0.3)
    real = p.outer_update
    rounds = []

    def recording(z, multipliers, penalty):
        out = real(z, multipliers, penalty)
        _, violations, candidate, _ = out
        active = (np.abs(violations) <= solver._ACTIVE_TOL) & (candidate > 0.0)
        rounds.append((z.copy(), candidate, active))
        return out

    tried = []

    def stub(problem, z, violation, multipliers, active):
        assert problem is p
        tried.append((len(rounds), z.copy(), multipliers.copy(), active.copy()))

    p.outer_update = recording
    monkeypatch.setattr(solver, "polish", stub)
    res = solve(p, p.pack_start(centers, 0.1))
    assert len(rounds) == res.outer_iterations > 3
    want, sets, repeats = [], [], 0
    for r in range(1, len(rounds)):
        z, mu, active = rounds[r]
        if np.array_equal(active, rounds[r - 1][2]):
            if any(np.array_equal(active, a) for a in sets):
                repeats += 1
            else:
                sets.append(active)
                want.append((r + 1, z, mu, active))
    # Two sets were tried, and some set came back without a second try.
    assert len(want) >= 2 and repeats > 0
    assert len(tried) == len(want)
    for (r, z, mu, active), (r_want, z_want, mu_want, active_want) in zip(tried, want):
        assert r == r_want
        assert np.array_equal(z, z_want) and np.array_equal(mu, mu_want)
        assert np.array_equal(active, active_want)
