"""How one search iteration poses its program.

Each circle is boxed near its current centre or left free; pairs of
boxed circles that provably cannot collide under their boxes are dropped
before the solve.  Every circle keeps Cartesian (x, y).  At radius 0, as
before the first solve, the box would be empty, so every circle is free:
the tour solves that program first, then poses the next one at the
corrected radius it reached.
"""

from collections import Counter

import numpy as np

from fsspack import (
    Layout,
    build_nlp,
    builtin_instance,
    prune_pairs,
    radius_upper_bound,
    solve,
)
from fsspack.engine import DELTA_FACTOR
from fsspack.formulation import FAMILY_CONTAINMENT, FAMILY_PAIR, FAMILY_PROHIBITED
from fsspack.geometry import correct_radius


def pose_and_solve(instance, current, free, delta, r_cap):
    """Prune, build and solve one program; return the corrected layout."""
    n = current.n
    circle_pairs, clearances = prune_pairs(current, free, delta, r_cap, instance)
    print(f"pairs kept: {len(circle_pairs)}/{n * (n - 1) // 2} circle, "
          f"{len(clearances)}/{n * instance.f_count} prohibited")
    problem = build_nlp(instance, free, current, delta, (circle_pairs, clearances), r_cap)
    print(f"variables: {problem.nv} (radius + two per circle), "
          f"{int(np.isfinite(problem.lower[1:]).sum())} centre coordinates boxed")
    print("constraint rows by family:")
    counts = Counter(problem.row_tag(row)[0] for row in range(problem.m))
    for family in (FAMILY_CONTAINMENT, FAMILY_PAIR, FAMILY_PROHIBITED):
        print(f"  {family:12s} {counts[family]}")
    result = solve(problem, problem.pack_start(current.centers, current.radius))
    centers = problem.extract_centers(result.point)
    corrected = correct_radius(centers, instance)
    print(f"solve: status={result.status}, radius {result.objective:.8f}, "
          f"corrected {corrected:.8f}")
    return Layout(centers, corrected)


def main() -> None:
    instance = builtin_instance(6)
    n = 6
    rng = np.random.default_rng(3)
    dist = rng.random(n)
    angle = rng.random(n) * 2 * np.pi
    centers = np.column_stack((dist * np.cos(angle), dist * np.sin(angle)))
    r_cap = radius_upper_bound(instance, n)
    print(f"instance {instance.name}: {instance.f_count} prohibited disks, "
          f"radius cap {r_cap:.6f}")

    print("\nat radius 0 every circle is free:")
    current = pose_and_solve(instance, Layout(centers, 0.0), np.ones(n, dtype=bool), 0.0, r_cap)

    delta = DELTA_FACTOR * current.radius
    # True marks a free (unboxed) circle: circles 1, 3 and 5 here.
    free = np.arange(n) % 2 == 1
    print(f"\nat radius {current.radius:.6f}, box half-width {delta:.6f}, "
          f"circles 0, 2 and 4 boxed:")
    pose_and_solve(instance, current, free, delta, r_cap)

    # A tighter box prunes more aggressively.
    print()
    for factor in (1.0, 0.25, 0.05):
        kept_pairs, kept_clear = prune_pairs(current, free, factor * delta, r_cap, instance)
        print(f"delta x {factor:4.2f}: keeps {len(kept_pairs)} circle pairs, "
              f"{len(kept_clear)} prohibited pairs")


if __name__ == "__main__":
    main()
