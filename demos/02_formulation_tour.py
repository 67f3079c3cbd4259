"""How one search iteration poses its program.

Each circle is boxed near its current centre or left free; pairs of
boxed circles that provably cannot collide under their boxes are dropped
before the solve.  Every circle keeps Cartesian (x, y).
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


def main() -> None:
    instance = builtin_instance(6)
    n = 6
    rng = np.random.default_rng(3)
    dist = rng.random(n)
    angle = rng.random(n) * 2 * np.pi
    centers = np.column_stack((dist * np.cos(angle), dist * np.sin(angle)))
    current = Layout(centers, 0.0)

    r_cap = radius_upper_bound(instance, n)
    delta = DELTA_FACTOR * r_cap
    # True marks a free (unboxed) circle: circles 1, 3 and 5 here.
    free = np.arange(n) % 2 == 1
    print(f"instance {instance.name}: {instance.f_count} prohibited disks, "
          f"radius cap {r_cap:.6f}, box half-width {delta:.6f}")

    circle_pairs, clearances = prune_pairs(current, free, delta, r_cap, instance)
    total_circle = n * (n - 1) // 2
    total_proh = n * instance.f_count
    print(f"pairs kept: {len(circle_pairs)}/{total_circle} circle, "
          f"{len(clearances)}/{total_proh} prohibited")

    problem = build_nlp(instance, free, current, delta, (circle_pairs, clearances), r_cap)
    print(f"variables: {problem.nv} (radius + two per circle)")
    print("constraint rows by family:")
    counts = Counter(problem.row_tag(row)[0] for row in range(problem.m))
    for family in (FAMILY_CONTAINMENT, FAMILY_PAIR, FAMILY_PROHIBITED):
        print(f"  {family:12s} {counts[family]}")

    result = solve(problem, problem.pack_start(centers, 0.0))
    corrected = correct_radius(problem.extract_centers(result.point), instance)
    print(f"one solve from this formulation: status={result.status}, "
          f"radius {result.objective:.8f}, corrected {corrected:.8f}")

    # A tighter box prunes more aggressively.
    for factor in (1.0, 0.25, 0.05):
        kept_pairs, kept_clear = prune_pairs(current, free, factor * delta, r_cap, instance)
        print(f"delta x {factor:4.2f}: keeps {len(kept_pairs)} circle pairs, "
              f"{len(kept_clear)} prohibited pairs")


if __name__ == "__main__":
    main()
