"""Bundled benchmark instances and instance file IO.

The bundle holds six geometries: a union of eleven prohibited disks in
the upper-left quadrant (truncatable to its first 4..11 disks), small and
large central disks, small and large disks tangent to the container from
inside at the bottom, and four small disks tangent at the four axis
crossings.  Coordinates are kept as exact rationals and converted to
floats on construction.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .geometry import CartesianPoint, Instance, ProhibitedCircle


class InstanceFormatError(ValueError):
    """Raised when an instance document does not match the schema."""


class UnknownInstanceError(KeyError):
    """Raised when a name does not resolve to a bundled instance."""


_SMALL = Fraction(1) / Fraction("10.5")
_LARGE = Fraction("10.25") / Fraction("17.5")

# Union-of-disks geometry: (x, y, radius) numerators over a common
# denominator of 15, in bundle order.
_UNION_ROWS = [
    ("-9.8", "6.3", "1.3"),
    ("-8.2", "6.5", "1.1"),
    ("-6.5", "6.5", "1.4"),
    ("-6.0", "5.5", "1.3"),
    ("-5.0", "4.0", "1.25"),
    ("-4.5", "2.0", "1.5"),
    ("-4.0", "0.5", "1.25"),
    ("-3.5", "-1.0", "1.35"),
    ("-2.8", "2.7", "1.2"),
    ("-6.3", "1.7", "1.2"),
    ("-1.3", "3.7", "1.2"),
]

MIN_UNION_COUNT = 4
MAX_UNION_COUNT = len(_UNION_ROWS)
PROBLEM_IDS = (1, 2, 3, 4, 5, 6)


def _circle(x: Fraction, y: Fraction, r: Fraction) -> ProhibitedCircle:
    return ProhibitedCircle(CartesianPoint(float(x), float(y)), float(r))


def _union_circles(f_count: int) -> list[ProhibitedCircle]:
    rows = _UNION_ROWS[:f_count]
    return [
        _circle(Fraction(x) / 15, Fraction(y) / 15, Fraction(r) / 15)
        for x, y, r in rows
    ]


def _builders() -> dict[int, list[ProhibitedCircle]]:
    zero = Fraction(0)
    one = Fraction(1)
    return {
        2: [_circle(zero, zero, _SMALL)],
        3: [_circle(zero, _SMALL - one, _SMALL)],
        4: [_circle(zero, zero, _LARGE)],
        5: [_circle(zero, _LARGE - one, _LARGE)],
        6: [
            _circle(zero, _SMALL - one, _SMALL),
            _circle(zero, one - _SMALL, _SMALL),
            _circle(_SMALL - one, zero, _SMALL),
            _circle(one - _SMALL, zero, _SMALL),
        ],
    }


def instance_name(problem: int, f_count: Optional[int] = None) -> str:
    if problem == 1:
        return f"problem1-f{f_count if f_count is not None else MAX_UNION_COUNT}"
    return f"problem{problem}"


def builtin_instance(problem: int, f_count: Optional[int] = None) -> Instance:
    """Bundled instance by id 1..6.

    f_count truncates the union geometry (problem 1) to its first 4..11
    disks and is rejected for the other problems.
    """
    if problem not in PROBLEM_IDS:
        raise ValueError(f"problem id must be in 1..6, got {problem}")
    if problem == 1:
        count = MAX_UNION_COUNT if f_count is None else f_count
        if not MIN_UNION_COUNT <= count <= MAX_UNION_COUNT:
            raise ValueError(
                f"f_count must be in {MIN_UNION_COUNT}..{MAX_UNION_COUNT}, got {f_count}"
            )
        return Instance(instance_name(1, count), _union_circles(count))
    if f_count is not None:
        raise ValueError(f"f_count only applies to problem 1, got problem {problem}")
    return Instance(instance_name(problem), _builders()[problem])


def builtin_catalogue() -> dict[str, Instance]:
    """All bundled instances keyed by name."""
    out: dict[str, Instance] = {}
    for count in range(MIN_UNION_COUNT, MAX_UNION_COUNT + 1):
        inst = builtin_instance(1, count)
        out[inst.name] = inst
    for pid in PROBLEM_IDS[1:]:
        inst = builtin_instance(pid)
        out[inst.name] = inst
    return out


def instance_from_name(name: str) -> Instance:
    catalogue = builtin_catalogue()
    try:
        return catalogue[name]
    except KeyError:
        raise UnknownInstanceError(
            f"no bundled instance named {name!r}; known: {sorted(catalogue)}"
        ) from None


def _parse_coordinate(raw, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise InstanceFormatError(f"{where}: not a decimal string: {raw!r}") from None
    if not math.isfinite(value):
        raise InstanceFormatError(f"{where}: must be finite, got {raw!r}")
    return value


def load_instance(path: Union[str, Path]) -> Instance:
    """Read an instance document.

    Prohibited disks that lie entirely outside the container are accepted
    with a warning; they can never bind.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise InstanceFormatError("field 'name' must be a nonempty string")
    raw_list = doc.get("prohibited")
    if not isinstance(raw_list, list):
        raise InstanceFormatError("field 'prohibited' must be a list")
    prohibited = []
    for i, entry in enumerate(raw_list):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"prohibited[{i}]: must be an object")
        x = _parse_coordinate(entry.get("x"), f"prohibited[{i}].x")
        y = _parse_coordinate(entry.get("y"), f"prohibited[{i}].y")
        r = _parse_coordinate(entry.get("r"), f"prohibited[{i}].r")
        if r <= 0.0:
            raise InstanceFormatError(f"prohibited[{i}].r: radius must be positive, got {r}")
        circle = ProhibitedCircle(CartesianPoint(x, y), r)
        if circle.is_vacuous():
            warnings.warn(
                f"prohibited[{i}] of {name!r} lies outside the container and never binds",
                stacklevel=2,
            )
        prohibited.append(circle)
    return Instance(name, prohibited)


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    """Write an instance document; coordinates round-trip exactly."""
    doc = {
        "name": instance.name,
        "prohibited": [
            {
                "x": format(f.center.x, ".17g"),
                "y": format(f.center.y, ".17g"),
                "r": format(f.radius, ".17g"),
            }
            for f in instance.prohibited
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
