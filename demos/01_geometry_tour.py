"""Tour of the geometry layer: layouts, correction, verification.

The key invariant: correct_radius returns the largest radius that keeps
a centre set feasible, rounded down so the verifier accepts it at
tolerance zero.
"""

import numpy as np

from fsspack import (
    CartesianPoint,
    Instance,
    Layout,
    ProhibitedCircle,
    correct_radius,
    format_radius,
    verify_layout,
)


def main() -> None:
    print("== radius correction ==")
    instance = Instance("demo", [ProhibitedCircle(CartesianPoint(0.0, 0.0), 0.25)])
    centers = np.array([[0.62, 0.0], [-0.62, 0.0], [0.0, 0.62], [0.0, -0.62]])
    radius = correct_radius(centers, instance)
    print(f"four centres on a ring around a 0.25 disk -> radius {format_radius(radius)}")
    print("binding term: each circle touches the prohibited disk "
          f"(0.62 - 0.25 = {0.62 - 0.25:.4f})")

    print()
    print("== verification ==")
    layout = Layout(centers, radius)
    report = verify_layout(layout, instance, 0.0)
    print(f"feasible at tolerance zero: {report.feasible}")
    print(f"worst violation anywhere:   {report.worst():.3e}")

    bumped = Layout(centers, radius + 1e-9)
    report = verify_layout(bumped, instance, 1e-10)
    print(f"after inflating by 1e-9:    feasible={report.feasible}, "
          f"worst={report.worst():.3e} ({report.describe_worst()})")


if __name__ == "__main__":
    main()
