"""How one search iteration poses its program.

Each circle is assigned Cartesian or polar coordinates; Cartesian ones
are boxed near their current centre, and pairs that provably cannot
collide under those boxes are dropped before the solve.
"""

import numpy as np

from fsspack import (
    Assignment,
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
    assignment = Assignment((0, 2, 4), (1, 3, 5))
    print(f"instance {instance.name}: {instance.f_count} prohibited disks, "
          f"radius cap {r_cap:.6f}, box half-width {delta:.6f}")

    pairs = prune_pairs(current, assignment, delta, r_cap, instance)
    total_circle = n * (n - 1) // 2
    total_proh = n * instance.f_count
    print(f"pairs kept: {len(pairs.circle_pairs)}/{total_circle} circle, "
          f"{len(pairs.prohibited_pairs)}/{total_proh} prohibited")

    problem = build_nlp(instance, assignment, current, delta, pairs, r_cap)
    print(f"variables: {problem.nv} (radius + two per circle)")
    print("constraint rows by family:")
    for family in (FAMILY_CONTAINMENT, FAMILY_PAIR, FAMILY_PROHIBITED):
        count = sum(1 for fam, _ in problem.tags if fam == family)
        print(f"  {family:12s} {count}")

    result = solve(problem, problem.pack_start(centers, 0.0))
    corrected = correct_radius(problem.extract_centers(result.point), instance)
    print(f"one solve from this formulation: status={result.status}, "
          f"radius {result.objective:.8f}, corrected {corrected:.8f}")

    # A tighter box prunes more aggressively.
    for factor in (1.0, 0.25, 0.05):
        tight = prune_pairs(current, assignment, factor * delta, r_cap, instance)
        print(f"delta x {factor:4.2f}: keeps {len(tight.circle_pairs)} circle pairs, "
              f"{len(tight.prohibited_pairs)} prohibited pairs")


if __name__ == "__main__":
    main()
