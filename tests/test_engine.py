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

from fsspack import engine
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
from fsspack.instances import builtin_instance
from fsspack.solver import NUMERICAL_FAILURE

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


def test_assignment_boundary_is_cartesian():
    polar = random_assignment(StubRng([0.5, 0.5000000001, 0.0, 0.7]), 4)
    assert polar.dtype == bool
    assert polar.tolist() == [False, True, False, True]


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


def test_replication_is_deterministic():
    inst = builtin_instance(2)
    cfg = FssConfig(n=3, iterations=4, replications=1, seed=9)
    lay1, tr1 = run_replication(inst, cfg, replication_rng(9, 0))
    lay2, tr2 = run_replication(inst, cfg, replication_rng(9, 0))
    assert np.array_equal(lay1.centers, lay2.centers)
    assert lay1.radius == lay2.radius
    assert [t.r_star for t in tr1] == [t.r_star for t in tr2]


def test_replication_traces_are_coherent():
    inst = builtin_instance(2)
    cfg = FssConfig(n=3, iterations=5, replications=1, seed=2)
    r_cap = radius_upper_bound(inst, 3)
    lay, traces = run_replication(inst, cfg, replication_rng(2, 0))
    assert len(traces) == 5
    assert [t.iteration for t in traces] == list(range(5))
    best_so_far = 0.0
    for t in traces:
        best_so_far = max(best_so_far, t.r_star)
        assert t.r_best == best_so_far
        assert t.r_star <= r_cap + 1e-12
        assert 0 <= t.cart_count <= 3
        assert t.elapsed >= 0.0
    # The first trace records the starting box half-width; later ones
    # shrink it from the previous corrected radius.
    assert traces[0].delta == pytest.approx(engine.DELTA_FACTOR * r_cap)
    assert traces[1].delta == pytest.approx(engine.DELTA_FACTOR * traces[0].r_star)
    assert lay.radius == traces[-1].r_best


def test_zero_radius_keeps_the_first_box():
    # problem2 at n = 40, seed 9, replication 0: the first solve ends at a
    # corrected radius of 0.  A box of DELTA_FACTOR * 0 would freeze every
    # Cartesian centre and hold r* at 0 for good.
    inst = builtin_instance(2)
    cfg = FssConfig(n=40, iterations=4, replications=1, seed=9)
    r_cap = radius_upper_bound(inst, 40)
    _, traces = run_replication(inst, cfg, replication_rng(9, 0))
    assert traces[0].r_star == 0.0
    assert traces[1].delta == engine.DELTA_FACTOR * r_cap
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


def recording_solve(monkeypatch, fail_at=(), zero_radius_at=()):
    """Record the multipliers every solve is handed, and its result.

    Iterations in fail_at report a numerical failure; in zero_radius_at
    the corrected radius reads 0.
    """
    seen, results = [], []
    real_solve, real_correct = engine.solve, engine.correct_radius

    def recording(problem, start, multipliers=None):
        seen.append(np.array(multipliers, dtype=float))
        result = real_solve(problem, start, multipliers)
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
    seen, _ = recording_solve(monkeypatch, fail_at={2}, zero_radius_at={4})
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
    seen, results = recording_solve(monkeypatch)
    cfg = FssConfig(n=1, iterations=6, replications=1, seed=0)
    layout, _ = run_replication(EMPTY, cfg, replication_rng(0, 0))
    # The first solve, Cartesian, exits at R = 1 on a positive multiplier.
    assert results[0].point[0] == 1.0 and results[0].multipliers[0] > 0.0
    assert len(seen) == 6
    assert all(np.isfinite(m).all() for m in seen)
    assert layout.radius == pytest.approx(1.0, abs=1e-3)


def test_run_report_and_feasibility():
    inst = builtin_instance(2)
    cfg = FssConfig(n=2, iterations=3, replications=3, seed=4)
    report = run(inst, cfg)
    assert report.nlp_solves == 9
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


def test_fallback_layout_on_hopeless_geometry():
    # A prohibited disk nearly as large as the container leaves almost
    # nothing; even when every solve collapses, the run must still hand
    # back a verified layout.
    inst = Instance("tight", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.995)])
    cfg = FssConfig(n=2, iterations=1, replications=1, seed=0)
    report = run(inst, cfg)
    assert verify_layout(report.best_layout, inst, 0.0).feasible


def test_fallback_layout_reports_a_missed_ring():
    # The ring 0.9999995 < |c| < 1 is feasible, but every fallback
    # candidate lies inside the disk or on the 0.999999 circle.
    inst = Instance("thin-ring", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.9999995)])
    with pytest.raises(EngineError, match="fallback grid"):
        engine._fallback_layout(inst, 2)


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
from fsspack import engine
from fsspack.instances import builtin_instance

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
