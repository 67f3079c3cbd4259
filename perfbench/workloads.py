"""Seeded inputs for the benchmark workloads, and one pass over them.

Every input is derived from the workload seed alone, so one seed always
gives the same cases.  A pass runs every case of a workload once and
checks each result; the caller decides how many passes fit in a run and
whether a tracer is installed around them.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fsspack
from fsspack import (
    FssConfig,
    Instance,
    Layout,
    NlpProblem,
    correct_radius,
    instance_from_name,
    load_layout,
    radius_upper_bound,
    save_layout,
    verify_layout,
)

# search-n10: the C3 acceptance instances at n=10, on the default solver
# options that the CLI and C3 use.  The programs are small, so per-call
# overhead (scipy wrapper, BLAS threads) weighs most here.  Each case
# runs SEARCH_REPLICATIONS x SEARCH_ITERATIONS solves.
SEARCH_N = 10
SEARCH_INSTANCES = ("problem2", "problem3", "problem6", "problem1-f11")
SEARCH_REPLICATIONS = 3
SEARCH_ITERATIONS = 10

EXACT_INSTANCES = ("problem6", "problem1-f11")
EXACT_SIZES = (50, 100, 200)
# Each lattice point moves by at most this share of the spacing, so the
# corrected radius stays at least (1/2 - JITTER) * spacing.  Small, so
# the radius ratio varies little from seed to seed.
JITTER = 0.01

WORKLOADS = ("search-n10", "exact-check")


@dataclass
class SearchCase:
    name: str
    instance: Instance
    config: FssConfig


@dataclass
class ExactCase:
    name: str
    instance: Instance
    centers: np.ndarray


@dataclass
class PassResult:
    """What one pass measured and which of its checks failed."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    ratios: list[float] = field(default_factory=list)
    attempted: int = 0
    # Case index -> every check that case failed.
    failures: dict[int, list[str]] = field(default_factory=dict)
    # Per case: the deterministic outcome compared across passes.
    outcomes: list[tuple] = field(default_factory=list)
    reports: list = field(default_factory=list)

    def fail(self, case: int, message: str) -> None:
        self.failures.setdefault(case, []).append(message)


def case_seed(seed: int, index: int) -> int:
    """64-bit seed for case `index`, derived from the workload seed only."""
    state = np.random.SeedSequence([seed, index]).generate_state(1, dtype=np.uint64)
    return int(state[0])


def build_inputs(workload: str, seed: int) -> list:
    if workload == "search-n10":
        return [
            SearchCase(
                name=f"{name}-n{SEARCH_N}",
                instance=instance_from_name(name),
                config=FssConfig(
                    n=SEARCH_N,
                    iterations=SEARCH_ITERATIONS,
                    replications=SEARCH_REPLICATIONS,
                    seed=case_seed(seed, k),
                ),
            )
            for k, name in enumerate(SEARCH_INSTANCES)
        ]
    if workload == "exact-check":
        cases = []
        for name in EXACT_INSTANCES:
            instance = instance_from_name(name)
            for n in EXACT_SIZES:
                rng = np.random.default_rng(case_seed(seed, len(cases)))
                cases.append(ExactCase(f"{name}-n{n}", instance, hex_layout(instance, n, rng)))
        return cases
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _clearance(points: np.ndarray, instance: Instance) -> np.ndarray:
    clear = 1.0 - np.hypot(points[:, 0], points[:, 1])
    fc = instance.prohibited_centers()
    if fc.shape[0]:
        d = np.hypot(points[:, None, 0] - fc[None, :, 0], points[:, None, 1] - fc[None, :, 1])
        clear = np.minimum(clear, np.min(d - instance.prohibited_radii()[None, :], axis=1))
    return clear


def _lattice(instance: Instance, spacing: float, angle: float, shift: np.ndarray):
    """Hexagonal lattice points, their clearance, and those clearing half a spacing."""
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    basis = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]) @ rot.T
    k = int(math.ceil(2.5 / spacing))
    ij = np.stack(np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1)), -1).reshape(-1, 2)
    points = ((ij + shift) @ basis) * spacing
    clear = _clearance(points, instance)
    return points, clear, np.nonzero(clear >= 0.5 * spacing)[0]


def _spacing(instance: Instance, n: int) -> float:
    """Seed-independent spacing: 95% of the largest at which the unrotated
    lattice fits n points, so every seed gets nearly the same radius."""
    zero = np.zeros(2)
    # Hexagonal packing of the whole disk bounds the spacing from above.
    hi = math.sqrt(2.0 * math.pi / (math.sqrt(3.0) * n))
    lo = 0.5 * hi
    while _lattice(instance, lo, 0.0, zero)[2].size < n:
        lo *= 0.5
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _lattice(instance, mid, 0.0, zero)[2].size >= n:
            lo = mid
        else:
            hi = mid
    return 0.95 * lo


def hex_layout(instance: Instance, n: int, rng: np.random.Generator) -> np.ndarray:
    """n centres from a randomly rotated and shifted hexagonal lattice.

    The n lattice points with most clearance are kept; all of them clear
    the wall and every prohibited disk by half a spacing.  Each is then
    jittered by at most JITTER spacings.
    """
    angle = rng.uniform(0.0, math.pi / 3.0)
    shift = rng.uniform(0.0, 1.0, size=2)
    spacing = _spacing(instance, n)
    points, clear, eligible = _lattice(instance, spacing, angle, shift)
    while eligible.size < n:
        spacing *= 0.99
        points, clear, eligible = _lattice(instance, spacing, angle, shift)
    keep = eligible[np.argsort(-clear[eligible], kind="stable")[:n]]
    centers = points[keep]
    step = JITTER * spacing * rng.uniform(0.0, 1.0, size=n)
    turn = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return centers + np.column_stack((step * np.cos(turn), step * np.sin(turn)))


@contextmanager
def count_calls(owner, attr: str):
    """Count the calls to `owner.attr` made inside the block.

    Yields a one-item list that holds the count; the original attribute
    is put back on exit.
    """
    original = owner.__dict__[attr]
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, counted)
    try:
        yield count
    finally:
        setattr(owner, attr, original)


def run_pass(workload: str, cases: list, tracer=None, scratch: Path | None = None) -> PassResult:
    if workload == "search-n10":
        return _search_pass(cases, tracer)
    return _exact_pass(cases, tracer, scratch)


def _search_pass(cases: list[SearchCase], tracer) -> PassResult:
    out = PassResult()
    for i, case in enumerate(cases):
        out.attempted += 1
        cpu = time.process_time()
        tic = time.perf_counter()
        try:
            with count_calls(NlpProblem, "augmented_lagrangian") as merit_calls, (
                tracer.span("bench.run", case=case.name) if tracer else nullcontext()
            ):
                report = fsspack.run(case.instance, case.config, workers=1)
        except Exception:
            out.wall_s += time.perf_counter() - tic
            out.cpu_s += time.process_time() - cpu
            out.fail(i, f"{case.name}: run raised\n{traceback.format_exc()}")
            out.outcomes.append(None)
            out.reports.append(None)
            continue
        out.wall_s += time.perf_counter() - tic
        out.cpu_s += time.process_time() - cpu

        layout = report.best_layout
        out.ratios.append(report.best_radius / radius_upper_bound(case.instance, case.config.n))
        out.outcomes.append((report.best_radius, layout.centers.tobytes(), merit_calls[0]))
        out.reports.append(report)
        if not verify_layout(layout, case.instance, 0.0).feasible:
            out.fail(i, f"{case.name}: returned layout fails verify_layout(tol=0)")
        recomputed = correct_radius(layout.centers, case.instance)
        if recomputed != report.best_radius:
            out.fail(
                i,
                f"{case.name}: correct_radius gives {recomputed!r}, run reported {report.best_radius!r}"
            )
    return out


def _exact_pass(cases: list[ExactCase], tracer, scratch: Path) -> PassResult:
    def span(name: str, **attrs):
        return tracer.span(name, **attrs) if tracer else nullcontext()

    out = PassResult()
    for i, case in enumerate(cases):
        out.attempted += 1
        n = case.centers.shape[0]
        path = scratch / f"{case.name}.json"
        cpu = time.process_time()
        tic = time.perf_counter()
        with span("geometry.correct_radius", n=n):
            radius = correct_radius(case.centers, case.instance)
        with span("geometry.io", n=n):
            save_layout(Layout(case.centers, radius), case.instance.name, path)
            loaded, _ = load_layout(path)
        with span("geometry.verify_layout", n=n):
            at_radius = verify_layout(Layout(loaded.centers, radius), case.instance, 0.0)
        above = math.nextafter(radius, math.inf)
        with span("geometry.verify_layout", n=n):
            one_ulp_up = verify_layout(Layout(loaded.centers, above), case.instance, 0.0)
        out.wall_s += time.perf_counter() - tic
        out.cpu_s += time.process_time() - cpu

        out.ratios.append(radius / radius_upper_bound(case.instance, n))
        out.outcomes.append((radius,))
        out.reports.append(None)
        if loaded.centers.tobytes() != case.centers.tobytes():
            out.fail(i, f"{case.name}: save/load round trip changed a coordinate")
        if radius <= 0.0 or not at_radius.feasible:
            out.fail(i, f"{case.name}: corrected radius {radius!r} rejected at tol=0")
        if one_ulp_up.feasible:
            out.fail(i, f"{case.name}: radius one ulp above {radius!r} accepted at tol=0")
    return out

