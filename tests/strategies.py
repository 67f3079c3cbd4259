"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st

from fsspack.geometry import CartesianPoint, Instance, ProhibitedCircle

ANGLES = st.floats(0.0, 2.0 * math.pi)
UNIT = st.floats(0.0, 1.0)


def polar_point(distance: float, angle: float) -> CartesianPoint:
    return CartesianPoint(distance * math.cos(angle), distance * math.sin(angle))


@st.composite
def disk_groups(draw):
    """One or two prohibited disks of a drawn kind."""
    kind = draw(st.sampled_from(["free", "wall", "covering", "vacuous", "tangent", "overlapping"]))
    radius = draw(st.floats(1e-6, 0.6))
    angle = draw(ANGLES)
    if kind == "free":
        coords = st.floats(-1.2, 1.2)
        return [ProhibitedCircle(CartesianPoint(draw(coords), draw(coords)), radius)]
    if kind == "wall":  # touches the container from inside
        return [ProhibitedCircle(polar_point(1.0 - radius, angle), radius)]
    if kind == "covering":  # contains the container's centre
        return [ProhibitedCircle(polar_point(draw(UNIT) * radius, angle), radius)]
    if kind == "vacuous":
        return [ProhibitedCircle(polar_point(1.0 + radius + draw(UNIT), angle), radius)]
    # Two disks, touching or overlapping.
    first = ProhibitedCircle(polar_point(draw(UNIT), angle), radius)
    other = draw(st.floats(1e-6, 0.6))
    reach = radius + other
    if kind == "overlapping":
        reach *= draw(st.floats(0.0, 1.0, exclude_max=True))
    c = polar_point(reach, draw(ANGLES))
    return [first, ProhibitedCircle(CartesianPoint(first.center.x + c.x, first.center.y + c.y), other)]


def drawn_instances():
    """Instances of up to two drawn disk groups."""
    return st.lists(disk_groups(), max_size=2).map(
        lambda groups: Instance("drawn", [disk for group in groups for disk in group])
    )
