"""Search driver: randomness contracts, replications, and run reports."""

import dataclasses
import json
import math
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsspack import engine, solver
from fsspack.engine import (
    EngineError,
    FssConfig,
    run,
    run_replication,
    random_assignment,
    random_initial_layout,
    replication_rng,
)
from fsspack.formulation import NlpProblem
from fsspack.geometry import (
    CartesianPoint,
    Instance,
    ProhibitedCircle,
    radius_upper_bound,
    verify_layout,
)
from fsspack.instances import builtin_instance, instance_from_name
from fsspack.solver import CONVERGED, ITERATION_LIMIT, NUMERICAL_FAILURE
from strategies import drawn_instances

EMPTY = Instance("empty", [])


class StubRng:
    """Feeds a fixed sequence to the assignment coin."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, n):
        out = np.array(self.draws[:n], dtype=float)
        del self.draws[:n]
        return out


def test_replication_rng_streams_are_stable_and_disjoint():
    a = replication_rng(42, 0).random(8)
    b = replication_rng(42, 0).random(8)
    c = replication_rng(42, 1).random(8)
    d = replication_rng(7, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_initial_layout_radial_law():
    lay = random_initial_layout(replication_rng(0, 0), 1000)
    norms = np.hypot(lay.centers[:, 0], lay.centers[:, 1])
    assert (norms <= 1.0).all()
    assert lay.radius == 0.0
    # Distance is uniform on [0, 1], so the mean norm concentrates at 1/2.
    big = random_initial_layout(replication_rng(0, 1), 100_000)
    mean = np.hypot(big.centers[:, 0], big.centers[:, 1]).mean()
    assert mean == pytest.approx(0.5, abs=0.01)


def test_initial_layout_draw_order():
    # Distances first, then angles, from the same stream.
    rng = replication_rng(5, 0)
    lay = random_initial_layout(rng, 3)
    rng2 = replication_rng(5, 0)
    dist = rng2.random(3)
    angle = rng2.random(3) * (2.0 * math.pi)
    want = np.column_stack((dist * np.cos(angle), dist * np.sin(angle)))
    assert np.array_equal(lay.centers, want)


def test_assignment_boundary_is_boxed():
    free = random_assignment(StubRng([0.5, 0.5000000001, 0.0, 0.7]), 4)
    assert free.dtype == bool
    assert free.tolist() == [False, True, False, True]


def test_assignment_is_roughly_balanced():
    rng = replication_rng(1, 0)
    counts = [np.count_nonzero(~random_assignment(rng, 20)) for _ in range(500)]
    assert 8.5 <= np.mean(counts) <= 11.5


def test_fss_config_validates():
    with pytest.raises(ValueError):
        FssConfig(n=0)
    with pytest.raises(ValueError):
        FssConfig(n=1, iterations=0)
    with pytest.raises(ValueError):
        FssConfig(n=1, replications=0)
    # A seed outside [0, 2**64) would run as some seed inside it.
    for seed in (-1, 2**64, -(2**64), 2**65 + 3):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            FssConfig(n=1, seed=seed)
    assert FssConfig(n=1, seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            replication_rng(seed, 0)


def test_replication_is_deterministic():
    inst = builtin_instance(2)
    cfg = FssConfig(n=3, iterations=4, replications=1, seed=9)
    lay1, tr1 = run_replication(inst, cfg, replication_rng(9, 0))
    lay2, tr2 = run_replication(inst, cfg, replication_rng(9, 0))
    assert np.array_equal(lay1.centers, lay2.centers)
    assert lay1.radius == lay2.radius
    assert [t.r_star for t in tr1] == [t.r_star for t in tr2]


def test_replication_traces_are_coherent(monkeypatch):
    inst = builtin_instance(2)
    cfg = FssConfig(n=3, iterations=5, replications=1, seed=2)
    r_cap = radius_upper_bound(inst, 3)
    # Left alone, this replication stops at a fixed point after its
    # second solve; the checks below are about the later iterations, so
    # the loop is held open to its full length.
    recording_solve(monkeypatch, converged_as_limit=True)
    lay, traces = run_replication(inst, cfg, replication_rng(2, 0))
    assert len(traces) == 5
    assert [t.iteration for t in traces] == list(range(5))
    best_so_far = 0.0
    for t in traces:
        best_so_far = max(best_so_far, t.r_star)
        assert t.r_best == best_so_far
        assert t.r_star <= r_cap + 1e-12
        assert 0 <= t.boxed_count <= 3
        assert t.elapsed >= 0.0
    # The first solve starts at radius 0, so it has no box at all; later
    # boxes scale with the previous corrected radius.
    assert traces[0].delta == 0.0 and traces[0].boxed_count == 0
    for before, after in zip(traces, traces[1:]):
        assert after.delta == engine.DELTA_FACTOR * before.r_star
    assert lay.radius == traces[-1].r_best


def test_zero_radius_frees_every_circle(monkeypatch):
    # The first solve's corrected radius reads 0.  A box of
    # DELTA_FACTOR * 0 would freeze every boxed centre and hold r* at 0
    # for good, so the next program boxes nothing and prunes nothing.
    problems = []
    real_build = engine.build_nlp

    def recording_build(*args):
        problems.append(real_build(*args))
        return problems[-1]

    monkeypatch.setattr(engine, "build_nlp", recording_build)
    recording_solve(monkeypatch, zero_radius_at={0})
    inst = builtin_instance(2)
    n = 6
    cfg = FssConfig(n=n, iterations=4, replications=1, seed=9)
    _, traces = run_replication(inst, cfg, replication_rng(9, 0))
    assert traces[0].r_star == 0.0
    for p in problems[:2]:
        assert (p.lower[1:] == -np.inf).all() and (p.upper[1:] == np.inf).all()
        assert p.m == n + n * (n - 1) // 2 + n * inst.f_count
    assert [t.boxed_count for t in traces[:2]] == [0, 0]
    assert traces[1].delta == 0.0
    # Once the radius is positive the coin boxes circles again.
    assert traces[1].r_star > 0.0
    assert any(t.boxed_count > 0 for t in traces[2:])
    assert traces[-1].r_best > 0.0


def test_trace_merit_calls_count_every_merit_evaluation(monkeypatch):
    real = NlpProblem.augmented_lagrangian
    calls = []

    def counted(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(NlpProblem, "augmented_lagrangian", counted)
    report = run(builtin_instance(6), FssConfig(n=3, iterations=3, replications=2, seed=5))
    steps = [step for trace in report.traces for step in trace]
    assert sum(step.merit_calls for step in steps) == len(calls) > 0
    assert all(1 <= step.outer_rounds <= 50 for step in steps)


def search_cases():
    """Two searches at n = 10, and one at n = 20 that boxes circles after
    its first solve."""
    n10 = FssConfig(n=10, iterations=10, replications=3, seed=1)
    return [
        (instance_from_name("problem2"), n10),
        (instance_from_name("problem1-f11"), n10),
        (instance_from_name("problem6"), FssConfig(n=20, iterations=4, replications=1, seed=2)),
    ]


def test_the_no_step_shortcut_leaves_every_search_bit_identical(monkeypatch):
    # solver.minimize answers a round without scipy when L-BFGS-B would
    # not move from its start.  Calling scipy in every round instead must
    # change nothing: not the best layout, and not one iteration's radius,
    # status, outer rounds, merit calls or capped rounds.  The n = 20 case
    # boxes circles after its first solve.
    optimize = solver.load_optimizer()
    real = optimize.minimize
    scipy_calls = []

    def counted(*args, **kwargs):
        scipy_calls.append(1)
        return real(*args, **kwargs)

    cases = search_cases()

    def outcomes():
        reports = [run(instance, config) for instance, config in cases]
        return reports, [
            (
                report.best_radius,
                report.best_layout.centers.tobytes(),
                [
                    (t.r_star, t.status, t.outer_rounds, t.merit_calls, t.capped_rounds)
                    for trace in report.traces
                    for t in trace
                ],
            )
            for report in reports
        ]

    monkeypatch.setattr(optimize, "minimize", counted)
    reports, shortcut = outcomes()
    rounds = sum(t.outer_rounds for report in reports for trace in report.traces for t in trace)
    assert 0 < len(scipy_calls) < rounds
    assert any(t.boxed_count > 0 for t in reports[2].traces[0])
    monkeypatch.setattr(solver, "minimize", real)
    _, direct = outcomes()
    assert shortcut == direct


def recording_solve(monkeypatch, fail_at=(), zero_radius_at=(), converged_as_limit=False):
    """Record the multipliers every solve is handed, and its result.

    Iterations in fail_at report a numerical failure; in zero_radius_at
    the corrected radius reads 0.  With converged_as_limit, a converged
    solve reports iteration_limit instead, so no replication stops at a
    fixed point and the loop runs to its cap.
    """
    seen, results = [], []
    real_solve, real_correct = engine.solve, engine.correct_radius

    def recording(problem, start, multipliers=None):
        seen.append(np.array(multipliers, dtype=float))
        result = real_solve(problem, start, multipliers)
        if converged_as_limit and result.status == CONVERGED:
            result = dataclasses.replace(result, status=ITERATION_LIMIT)
        if len(seen) - 1 in fail_at:
            result = dataclasses.replace(result, status=NUMERICAL_FAILURE)
        results.append(result)
        return result

    def correct(centers, instance):
        return 0.0 if len(seen) - 1 in zero_radius_at else real_correct(centers, instance)

    monkeypatch.setattr(engine, "solve", recording)
    monkeypatch.setattr(engine, "correct_radius", correct)
    return seen, results


def test_multipliers_start_cold_after_a_failure_or_a_zero_radius(monkeypatch):
    seen, _ = recording_solve(
        monkeypatch, fail_at={2}, zero_radius_at={4}, converged_as_limit=True
    )
    cfg = FssConfig(n=3, iterations=7, replications=1, seed=4)
    run_replication(builtin_instance(2), cfg, replication_rng(4, 0))
    cold = [not m.any() for m in seen]
    # Cold on iteration 0, after the failure (2) and after r* = 0 (4);
    # warm after every other iteration.
    assert cold == [True, False, False, True, False, True, False]
    assert all(np.isfinite(m).all() and (m >= 0.0).all() for m in seen)


def test_single_circle_fills_the_empty_disk_with_finite_multipliers(monkeypatch):
    # At R = 1 the Cartesian containment row's dg/dh, 2*(1 - R), is 0:
    # its multiplier cannot be carried, and must not blow up either.
    seen, results = recording_solve(monkeypatch, converged_as_limit=True)
    cfg = FssConfig(n=1, iterations=6, replications=1, seed=0)
    layout, _ = run_replication(EMPTY, cfg, replication_rng(0, 0))
    # The first solve, Cartesian, exits at R = 1 on a positive multiplier.
    assert results[0].point[0] == 1.0 and results[0].multipliers[0] > 0.0
    assert len(seen) == 6
    assert all(np.isfinite(m).all() for m in seen)
    assert layout.radius == pytest.approx(1.0, abs=1e-3)


STOP_AT = 2


@pytest.mark.parametrize(
    "forced, fail_at, zero_radius_at, solves",
    [
        # A converged solve that hands back its start ends the replication.
        (("start", CONVERGED), (), (), STOP_AT + 1),
        # One that moved a coordinate by one ulp does not.
        (("nudged", CONVERGED), (), (), 5),
        (("start", ITERATION_LIMIT), (), (), 5),
        # A numerical failure keeps the old centres, but proves nothing.
        (None, {STOP_AT}, (), 5),
        (("start", CONVERGED), (), {STOP_AT}, 5),
    ],
    ids=["converged-at-start", "converged-moved", "iteration-limit",
         "numerical-failure", "zero-radius"],
)
def test_a_replication_stops_only_at_a_fixed_point(
    monkeypatch, forced, fail_at, zero_radius_at, solves
):
    # Every other solve reports iteration_limit, so only the one forced
    # at STOP_AT can end the replication.
    seen, _ = recording_solve(
        monkeypatch, fail_at=fail_at, zero_radius_at=zero_radius_at, converged_as_limit=True
    )
    inner = engine.solve

    def forcing(problem, start, multipliers=None):
        result = inner(problem, start, multipliers)
        if forced is not None and len(seen) - 1 == STOP_AT:
            point, status = start.copy(), forced[1]
            if forced[0] == "nudged":
                point[-1] = np.nextafter(point[-1], np.inf)
            result = dataclasses.replace(result, point=point, status=status)
        return result

    monkeypatch.setattr(engine, "solve", forcing)
    cfg = FssConfig(n=3, iterations=5, replications=1, seed=4)
    _, traces = run_replication(builtin_instance(2), cfg, replication_rng(4, 0))
    assert len(traces) == len(seen) == solves


def test_nlp_solves_counts_the_solves_run(monkeypatch):
    # Each replication ends on its first converged solve, at a positive
    # radius, that hands back its start bit for bit, or at the cap.
    calls = []
    real_solve = engine.solve

    def recording(problem, start, multipliers=None):
        result = real_solve(problem, start, multipliers)
        unchanged = (
            problem.extract_centers(result.point).tobytes()
            == problem.extract_centers(start).tobytes()
        )
        calls.append(result.status == CONVERGED and unchanged)
        return result

    monkeypatch.setattr(engine, "solve", recording)
    cfg = FssConfig(n=10, iterations=10, replications=3, seed=1)
    report = run(instance_from_name("problem2"), cfg)
    lengths = [len(trace) for trace in report.traces]
    assert report.nlp_solves == len(calls) == sum(lengths) < cfg.iterations * cfg.replications
    start = 0
    for trace in report.traces:
        fixed = [
            at_start and t.r_star > 0.0
            for at_start, t in zip(calls[start:start + len(trace)], trace)
        ]
        start += len(trace)
        assert not any(fixed[:-1])
        assert fixed[-1] or len(trace) == cfg.iterations


def test_the_stop_leaves_every_best_layout_bit_identical(monkeypatch):
    # The same searches held open to their full length by the status
    # stub: the solves after the stop move no radius, and the best
    # radius and centres are the same bit for bit.
    cases = search_cases()
    stopped = [run(instance, config) for instance, config in cases]
    recording_solve(monkeypatch, converged_as_limit=True)
    full = [run(instance, config) for instance, config in cases]
    for (_, config), short, long in zip(cases, stopped, full):
        assert long.nlp_solves == config.iterations * config.replications
        assert short.nlp_solves < long.nlp_solves
        assert short.best_radius == long.best_radius
        assert short.best_layout.centers.tobytes() == long.best_layout.centers.tobytes()
        assert short.replication_of_best == long.replication_of_best
        for cut, held in zip(short.traces, long.traces):
            assert [t.r_star for t in cut] == [t.r_star for t in held[:len(cut)]]
            assert all(t.r_star == cut[-1].r_star for t in held[len(cut):])


def test_run_report_and_feasibility():
    inst = builtin_instance(2)
    cfg = FssConfig(n=2, iterations=3, replications=3, seed=4)
    report = run(inst, cfg)
    # Each replication stops at a fixed point after its second solve.
    assert report.nlp_solves == sum(len(tr) for tr in report.traces) == 6
    assert len(report.traces) == 3
    assert report.best_radius == report.best_layout.radius
    assert report.best_radius > 0.0
    assert verify_layout(report.best_layout, inst, 0.0).feasible
    per_rep = [max(t.r_best for t in tr) for tr in report.traces]
    assert report.best_radius == max(per_rep)
    assert report.replication_of_best == int(np.argmax(per_rep))


def test_run_is_deterministic_across_calls():
    inst = builtin_instance(3)
    cfg = FssConfig(n=2, iterations=2, replications=2, seed=11)
    a = run(inst, cfg)
    b = run(inst, cfg)
    assert a.best_radius == b.best_radius
    assert np.array_equal(a.best_layout.centers, b.best_layout.centers)
    assert a.replication_of_best == b.replication_of_best


def test_parallel_workers_match_serial():
    inst = builtin_instance(2)
    cfg = FssConfig(n=2, iterations=2, replications=2, seed=3)
    serial = run(inst, cfg, workers=1)
    parallel = run(inst, cfg, workers=2)
    assert serial.best_radius == parallel.best_radius
    assert np.array_equal(serial.best_layout.centers, parallel.best_layout.centers)
    assert serial.replication_of_best == parallel.replication_of_best


def test_minimal_budget_still_works():
    inst = builtin_instance(6)
    cfg = FssConfig(n=1, iterations=1, replications=1, seed=0)
    report = run(inst, cfg)
    assert report.nlp_solves == 1
    assert report.best_radius > 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn_instances(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_run_returns_a_verified_layout_or_raises(instance, n, seed):
    # Tangent, overlapping, centre-covering and vacuous disks: whatever
    # the solves do, run hands back n centres that verify at tolerance
    # zero, or says it found none.
    try:
        report = run(instance, FssConfig(n=n, iterations=2, replications=1, seed=seed))
    except EngineError:
        return
    assert report.best_layout.n == n
    assert report.best_radius == report.best_layout.radius > 0.0
    assert verify_layout(report.best_layout, instance, 0.0).feasible


def test_run_packs_a_nearly_covered_container():
    # A prohibited disk nearly as large as the container leaves only a
    # thin ring, and the search still packs it at a positive radius.
    inst = Instance("tight", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.995)])
    cfg = FssConfig(n=2, iterations=1, replications=1, seed=0)
    report = run(inst, cfg)
    assert report.best_radius > 0.0
    assert verify_layout(report.best_layout, inst, 0.0).feasible


def test_run_packs_a_thin_ring():
    # The free ring 0.9999995 < |c| < 1 is 5e-7 wide.
    inst = Instance("thin-ring", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.9999995)])
    report = run(inst, FssConfig(n=2, iterations=1, replications=1, seed=0))
    assert report.best_radius > 0.0
    assert verify_layout(report.best_layout, inst, 0.0).feasible


def test_run_raises_when_a_disk_covers_the_container():
    inst = Instance("covered", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 1.5)])
    with pytest.raises(EngineError, match="no replication reached a positive radius"):
        run(inst, FssConfig(n=2, iterations=1, replications=1, seed=0))


def blas_threads():
    return [get() for get, _ in engine._openblas_controls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, so a restore to 1 would show."""
    controls = engine._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    saved = blas_threads()
    for _, set_threads in controls:
        set_threads(2)
    yield blas_threads()
    for (_, set_threads), count in zip(controls, saved):
        set_threads(count)


def test_run_holds_blas_at_one_thread(two_blas_threads, monkeypatch):
    seen = []
    real_solve = engine.solve

    def recording_solve(*args, **kwargs):
        seen.append(blas_threads())
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(engine, "solve", recording_solve)
    inst = builtin_instance(2)
    cfg = FssConfig(n=2, iterations=2, replications=2, seed=3)
    run(inst, cfg)
    assert len(seen) == 4
    engine._replication_job(inst, cfg, 1)
    assert len(seen) == 6
    assert all(count == 1 for counts in seen for count in counts)
    assert blas_threads() == two_blas_threads


def test_run_restores_blas_threads_after_a_raise(two_blas_threads, monkeypatch):
    def failing_solve(*args, **kwargs):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(engine, "solve", failing_solve)
    cfg = FssConfig(n=2, iterations=1, replications=1, seed=0)
    with pytest.raises(RuntimeError, match="solver blew up"):
        run(builtin_instance(2), cfg)
    assert blas_threads() == two_blas_threads


BLAS_PROBE = """
import json, sys
from fsspack import engine, solver
from fsspack.instances import builtin_instance, instance_from_name

def mapped():
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    return len({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})

seen = []
real_solve = engine.solve

def recording_solve(*args, **kwargs):
    seen.append([mapped(), [get() for get, _ in engine._openblas_controls()]])
    return real_solve(*args, **kwargs)

engine.solve = recording_solve
inst = builtin_instance(2)
cfg = engine.FssConfig(n=2, iterations=2, replications=2, seed=3)
if sys.argv[1] == "run":
    engine.run(inst, cfg, workers=1)
else:
    engine._replication_job(inst, cfg, 1)
print(json.dumps(seen))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
@pytest.mark.parametrize("entry, solves", [("run", 4), ("job", 2)])
def test_blas_hold_covers_the_libraries_scipy_loads(fresh_python, entry, solves):
    # scipy, and its OpenBLAS, load on the first solve; in this process
    # they are loaded already, so the check runs in a fresh one.  In every
    # solve each mapped OpenBLAS must be held at one thread.
    seen = json.loads(fresh_python(BLAS_PROBE, entry))
    assert len(seen) == solves
    if not any(mapped for mapped, _ in seen):
        pytest.skip("no OpenBLAS mapped")
    for mapped, counts in seen:
        assert len(counts) == mapped
        assert counts == [1] * mapped


def fail_on_replication_1(monkeypatch, failure):
    """Patch run_replication so that replication 1 fails; forked workers inherit it."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patch reaches pool workers only when they are forked")
    real = engine.run_replication

    def flaky(instance, config, rng):
        # The stream's key is (seed, replication).
        if int(rng.bit_generator.state["state"]["key"][1]) == 1:
            failure()
        return real(instance, config, rng)

    monkeypatch.setattr(engine, "run_replication", flaky)


def test_worker_exception_names_the_replication(monkeypatch):
    def boom():
        raise ValueError("bad replication")

    fail_on_replication_1(monkeypatch, boom)
    cfg = FssConfig(n=2, iterations=1, replications=3, seed=0)
    with pytest.raises(EngineError, match=r"replication 1 failed in a worker: ValueError"):
        run(builtin_instance(2), cfg, workers=2)


def test_dead_worker_names_the_replication(monkeypatch):
    fail_on_replication_1(monkeypatch, lambda: os._exit(3))
    cfg = FssConfig(n=2, iterations=1, replications=3, seed=0)
    with pytest.raises(EngineError, match=r"worker process died") as exc:
        run(builtin_instance(2), cfg, workers=2)
    # Replications running beside the dead one are lost with it.
    lost = re.search(r"replications ([\d, ]+) did not finish", str(exc.value)).group(1)
    assert "1" in lost.split(", ")


def test_pool_broken_during_submission_names_the_unsubmitted(monkeypatch):
    class BreaksOnThirdSubmit(ProcessPoolExecutor):
        submitted = 0

        def submit(self, *args, **kwargs):
            if self.submitted == 2:
                raise BrokenProcessPool("a worker died at start-up")
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", BreaksOnThirdSubmit)
    cfg = FssConfig(n=2, iterations=1, replications=4, seed=0)
    with pytest.raises(EngineError, match=r"worker process died") as exc:
        run(builtin_instance(2), cfg, workers=2)
    lost = re.search(r"replications ([\d, ]+) did not finish", str(exc.value)).group(1)
    assert {"2", "3"} <= set(lost.split(", "))
