"""Formulation space search driver.

Every iteration re-poses the problem before solving it again: each circle
is randomly flipped between Cartesian and polar coordinates, and the
Cartesian centres are only allowed to move inside a box whose half-width
is DELTA_FACTOR times the last corrected radius, or times the radius cap
while that is still 0.  The solver's point is
adopted whether or not it improved, so the search keeps drifting through
formulation space; the corrected radius decides what counts as the best
layout seen.

Each solve starts warm from the last one: from its centres, its
corrected radius and the multipliers it accepted at exit.  The solver's
penalty is not carried; it restarts at its initial value.  Multipliers
are carried by row identity (NlpProblem.row_ids), so a row that was
pruned away in between starts at 0.  They are carried in distance units:
a row's multiplier times its dg/dh at the exit radius is the multiplier
of the row's slack in distance units (NlpProblem.distance_multipliers),
which is the same whether the circle is Cartesian or polar.  Before the
next solve each carried value is divided by the new row's dg/dh at the
start radius (NlpProblem.row_multipliers); a row whose dg/dh is 0 there
(a pair row at R = 0, Cartesian containment at R = 1) starts at 0.

The carried multipliers are zero before the first solve.  They are reset
to zero after a solve that ended in a numerical failure, and after an
iteration whose corrected radius is 0: neither leaves an active set worth
keeping.

Replications are independent restarts.  Each draws its randomness from a
counter-based stream keyed by (seed, replication index), so any subset of
replications can be reproduced, serially or in parallel.

While replications run, every OpenBLAS library in the process is held at
one thread.  An idle OpenBLAS worker spins: left at its default, on a
2-core machine, it doubled the CPU cost of searches at n = 10 and n = 40
without shortening them, and it makes a process pool oversubscribe the
cores.  Parallelism comes from `workers`.  numpy and scipy each bring an
OpenBLAS, and the solver imports scipy only when first needed, so the
hold loads the optimiser before it looks for the libraries to hold.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .formulation import build_nlp, prune_pairs, row_id_count
from .geometry import Instance, Layout, TWO_PI, correct_radius, radius_upper_bound, verify_layout
from .solver import NUMERICAL_FAILURE, load_optimizer, solve

_MASK64 = (1 << 64) - 1

# Half-width of the box each Cartesian centre may move in, as a fraction
# of the last corrected radius (of the radius upper bound before the first
# solve, and while the corrected radius is 0).
DELTA_FACTOR = 2.0 / 3.0


class EngineError(RuntimeError):
    """Raised when a run cannot produce a feasible layout at all, or loses a
    replication to a worker that raised or died."""


@dataclass
class FssConfig:
    """Search budget and randomness for one problem size."""

    n: int
    iterations: int = 80
    replications: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one circle, got n={self.n}")
        if self.iterations < 1 or self.replications < 1:
            raise ValueError("iterations and replications must be at least 1")


@dataclass
class IterationTrace:
    iteration: int
    r_star: float
    r_best: float
    delta: float
    cart_count: int
    status: str
    outer_rounds: int
    merit_calls: int
    elapsed: float


@dataclass
class RunReport:
    best_layout: Layout
    best_radius: float
    replication_of_best: int
    traces: list[list[IterationTrace]]
    total_elapsed: float
    nlp_solves: int


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent stream per replication.

    The 128-bit key of a counter-based generator is (seed, replication),
    so streams never overlap and need no serial warm-up.
    """
    key = np.array([seed & _MASK64, replication & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_initial_layout(rng: np.random.Generator, n: int) -> Layout:
    """n centres drawn radially: distance uniform on [0, 1], angle uniform.

    The draw order is fixed: all distances first, then all angles.
    """
    if n < 1:
        raise ValueError(f"need at least one circle, got n={n}")
    dist = rng.random(n)
    angle = rng.random(n) * TWO_PI
    centers = np.column_stack((dist * np.cos(angle), dist * np.sin(angle)))
    return Layout(centers, 0.0)


def random_assignment(rng: np.random.Generator, n: int) -> np.ndarray:
    """Independent coin per circle, as a polar mask: True (polar) for a
    draw above 0.5, so a draw of 0.5 or less goes Cartesian."""
    return rng.random(n) > 0.5


def run_replication(
    instance: Instance, config: FssConfig, rng: np.random.Generator
) -> tuple[Layout, list[IterationTrace]]:
    """One restart: the full iteration loop from a fresh random layout."""
    n = config.n
    r_cap = radius_upper_bound(instance, n)
    current = random_initial_layout(rng, n)
    polar = random_assignment(rng, n)
    delta = DELTA_FACTOR * r_cap

    best_radius = 0.0
    best_centers = current.centers.copy()
    previous_r_star = 0.0
    traces: list[IterationTrace] = []
    # The last solve's multipliers in distance units, indexed by row id.
    carried = np.zeros(row_id_count(n, instance.f_count))

    for t in range(config.iterations):
        tic = time.perf_counter()
        pairs = prune_pairs(current, polar, delta, r_cap, instance)
        problem = build_nlp(instance, polar, current, delta, pairs, r_cap)
        start = problem.pack_start(current.centers, min(max(previous_r_star, 0.0), r_cap))
        multipliers = problem.row_multipliers(carried[problem.row_ids], start[0])
        result = solve(problem, start, multipliers)

        if result.status == NUMERICAL_FAILURE:
            new_centers = current.centers
        else:
            new_centers = problem.extract_centers(result.point)

        r_star = correct_radius(new_centers, instance)
        carried[:] = 0.0
        if result.status != NUMERICAL_FAILURE and r_star > 0.0:
            carried[problem.row_ids] = problem.distance_multipliers(
                result.multipliers, result.point[0]
            )
        if r_star > best_radius:
            best_radius = r_star
            best_centers = new_centers.copy()
        traces.append(
            IterationTrace(
                iteration=t,
                r_star=r_star,
                r_best=best_radius,
                delta=delta,
                cart_count=n - int(np.count_nonzero(polar)),
                status=result.status,
                outer_rounds=result.outer_iterations,
                merit_calls=result.merit_calls,
                elapsed=time.perf_counter() - tic,
            )
        )

        # While r* is 0, a box of DELTA_FACTOR * r* would freeze every
        # Cartesian centre; keep the first iteration's box instead.
        delta = DELTA_FACTOR * (r_star if r_star > 0.0 else r_cap)
        previous_r_star = r_star
        current = Layout(new_centers, r_star)
        polar = random_assignment(rng, n)

    return Layout(best_centers.copy(), best_radius), traces


# (get, set) thread-count entry points, under the names the OpenBLAS
# builds in circulation export them: plain, scipy's wheels, and the
# 64-bit-integer build that numpy's wheels ship.
_OPENBLAS_THREAD_API = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _openblas_controls() -> tuple[tuple[object, object], ...]:
    """(get, set) thread-count functions of every OpenBLAS loaded.

    Looked up once, on first use, from the process's memory map, so it
    is empty off Linux or under another BLAS.  numpy is imported with
    this module, but scipy only on the first solve, and the scan is never
    repeated: so it loads the optimiser first, or scipy's OpenBLAS would
    be mapped after the scan and left spinning.
    """
    load_optimizer()
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_API:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


class _SerialBlas:
    """Context manager holding every loaded OpenBLAS at one thread.

    The thread count is process-wide, so overlapping runs on several
    threads share one hold: the first to enter saves each library's count
    and the last to leave restores it, also when the run raised.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: tuple[int, ...] = ()

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                controls = _openblas_controls()
                self._saved = tuple(get() for get, _ in controls)
                for _, set_threads in controls:
                    set_threads(1)
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_threads), count in zip(_openblas_controls(), self._saved):
                    set_threads(count)


_serial_blas = _SerialBlas()


def _replication_job(
    instance: Instance, config: FssConfig, replication: int
) -> tuple[Layout, list[IterationTrace]]:
    with _serial_blas:
        return run_replication(instance, config, replication_rng(config.seed, replication))


def _fallback_layout(instance: Instance, n: int) -> Layout:
    """n coincident centres at the first candidate point with a positive
    corrected radius, so the layout verifies at tolerance zero."""
    candidates = [
        (0.999999 * math.cos(a), 0.999999 * math.sin(a))
        for a in np.linspace(0.0, TWO_PI, 720, endpoint=False)
    ]
    for step in np.linspace(-0.9, 0.9, 19):
        for other in np.linspace(-0.9, 0.9, 19):
            candidates.append((float(step), float(other)))
    for x, y in candidates:
        if correct_radius(np.array([[x, y]]), instance) > 0.0:
            return Layout(np.tile([x, y], (n, 1)), 0.0)
    raise EngineError(
        "no candidate point on the fallback grid clears every prohibited disk, "
        "so no zero-radius layout was found"
    )


def run(instance: Instance, config: FssConfig, workers: int = 1) -> RunReport:
    """All replications; the best corrected layout over every restart wins.

    Ties on radius go to the lowest replication index, so the outcome is
    independent of worker scheduling.  A replication that raises in a
    worker, or a worker that dies, ends the run with an `EngineError`
    naming the replication(s) lost.
    """
    started = time.perf_counter()
    outcomes: dict[int, tuple[Layout, list[IterationTrace]]] = {}
    if workers <= 1:
        with _serial_blas:
            for rep in range(config.replications):
                rng = replication_rng(config.seed, rep)
                outcomes[rep] = run_replication(instance, config, rng)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            try:
                for rep in range(config.replications):
                    futures.append(pool.submit(_replication_job, instance, config, rep))
                for rep, future in enumerate(futures):
                    outcomes[rep] = future.result()
            except BrokenProcessPool as exc:
                # The pool may break while jobs are still being submitted, and
                # it cannot say which job killed its worker: every replication
                # not submitted or not finished is lost.
                finished = {
                    r for r, f in enumerate(futures)
                    if f.done() and not f.cancelled() and f.exception() is None
                }
                lost = ", ".join(
                    str(r) for r in range(config.replications) if r not in finished
                )
                raise EngineError(
                    f"a worker process died; replications {lost} did not finish"
                ) from exc
            except Exception as exc:
                pool.shutdown(cancel_futures=True)
                raise EngineError(f"replication {rep} failed in a worker: {exc!r}") from exc

    best_rep = 0
    best_layout = outcomes[0][0]
    for rep in range(1, config.replications):
        layout = outcomes[rep][0]
        if layout.radius > best_layout.radius:
            best_rep, best_layout = rep, layout

    if best_layout.radius <= 0.0:
        best_layout = _fallback_layout(instance, config.n)

    report = verify_layout(best_layout, instance, 0.0)
    if not report.feasible:
        raise EngineError(
            f"best layout failed verification at tolerance zero: worst "
            f"{report.worst()} in {report.describe_worst()}"
        )

    return RunReport(
        best_layout=best_layout,
        best_radius=best_layout.radius,
        replication_of_best=best_rep,
        traces=[outcomes[rep][1] for rep in range(config.replications)],
        total_elapsed=time.perf_counter() - started,
        nlp_solves=config.iterations * config.replications,
    )
