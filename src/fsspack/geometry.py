"""Geometric core for packing identical circles in the unit disk.

The container is the unit circle centred at the origin.  Prohibited areas
are fixed circular disks that packed circles may touch but never overlap.
This module owns the domain types plus the numeric services everything
else builds on: the area bound on the common radius, the post-solve
radius correction, and an independent feasibility verifier.

Correction and verification share one double-precision screen of the
constraints, under one stated rounding bound.  Of the n(n-1)/2 pairs,
it screens only those whose squared distance is near the smallest, by a
threshold that drops no pair the exact step would evaluate.  Only the
candidates near the extremum are evaluated again, exactly: every double
is an integer multiple of 2^-1074, so Python integers and math.isqrt
decide each check with no working precision to choose.  The corrected radius is the exact
minimum clearance rounded down to a double, so a corrected layout is
feasible at tolerance zero and one ulp more is not; verified violations
are rounded up, so feasible == (worst() <= tol) at every tolerance.  A
Layout holds finite centres.  Everything else is plain double precision.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Context, Decimal
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi


class LayoutFormatError(ValueError):
    """Raised when a layout document does not match the schema."""


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float


@dataclass(frozen=True)
class ProhibitedCircle:
    """A fixed circular disk the packed circles must stay clear of."""

    center: CartesianPoint
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center.x) and math.isfinite(self.center.y)):
            raise ValueError(f"prohibited centre must be finite, got {self.center}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"prohibited radius must be positive, got {self.radius}")

    def is_vacuous(self) -> bool:
        """True when the disk lies entirely outside the closed unit disk."""
        return math.hypot(self.center.x, self.center.y) - self.radius >= 1.0


@dataclass
class Instance:
    """A container problem: the unit disk plus zero or more prohibited disks."""

    name: str
    prohibited: list[ProhibitedCircle] = field(default_factory=list)

    @property
    def f_count(self) -> int:
        return len(self.prohibited)

    def prohibited_centers(self) -> np.ndarray:
        """Centres as an (k, 2) array; empty (0, 2) when there are none."""
        if not self.prohibited:
            return np.empty((0, 2), dtype=float)
        return np.array([[f.center.x, f.center.y] for f in self.prohibited], dtype=float)

    def prohibited_radii(self) -> np.ndarray:
        return np.array([f.radius for f in self.prohibited], dtype=float)

    def max_prohibited_radius(self) -> float:
        return max((f.radius for f in self.prohibited), default=0.0)


@dataclass
class Layout:
    """n finite circle centres (Cartesian) sharing one common radius."""

    centers: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        self.centers = as_center_array(self.centers)
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")

    @property
    def n(self) -> int:
        return int(self.centers.shape[0])

    def points(self) -> list[CartesianPoint]:
        return [CartesianPoint(float(x), float(y)) for x, y in self.centers]


@dataclass
class FeasibilityReport:
    """Worst violation per constraint family, in distance units."""

    feasible: bool
    tol: float
    worst_containment_violation: float
    worst_pairwise_violation: float
    worst_prohibited_violation: float
    containment_index: Optional[int] = None
    pairwise_indices: Optional[tuple[int, int]] = None
    prohibited_indices: Optional[tuple[int, int]] = None

    def worst(self) -> float:
        return max(
            self.worst_containment_violation,
            self.worst_pairwise_violation,
            self.worst_prohibited_violation,
        )

    def describe_worst(self) -> str:
        worst = self.worst()
        if worst == self.worst_pairwise_violation and self.pairwise_indices is not None:
            return f"separation of circles {self.pairwise_indices}"
        if worst == self.worst_prohibited_violation and self.prohibited_indices is not None:
            i, f = self.prohibited_indices
            return f"clearance of circle {i} from prohibited disk {f}"
        if self.containment_index is not None:
            return f"containment of circle {self.containment_index}"
        return "containment"

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "tol": self.tol,
            "worst_containment_violation": self.worst_containment_violation,
            "worst_pairwise_violation": self.worst_pairwise_violation,
            "worst_prohibited_violation": self.worst_prohibited_violation,
            "containment_index": self.containment_index,
            "pairwise_indices": list(self.pairwise_indices) if self.pairwise_indices else None,
            "prohibited_indices": list(self.prohibited_indices) if self.prohibited_indices else None,
        }


def radius_upper_bound(instance: Instance, n: int) -> float:
    """Area bound on the common radius of n packed circles.

    The n circles and every prohibited disk that lies inside the
    container must fit disjointly in it, so n*r^2 + R_f^2 <= 1 for the
    largest such disk.  A disk that reaches outside the container may
    take less than its own area from it, so it is left out, unless it
    covers the whole container, which forces the bound to 0.
    """
    if n < 1:
        raise ValueError(f"need at least one circle, got n={n}")
    largest = 0.0
    for f in instance.prohibited:
        reach = math.hypot(f.center.x, f.center.y)
        if reach + 1.0 <= f.radius:
            return 0.0
        if reach + f.radius <= 1.0:
            largest = max(largest, f.radius)
    return math.sqrt((1.0 - largest * largest) / n)


def as_center_array(centers: Union[np.ndarray, Sequence]) -> np.ndarray:
    """Coerce centres to an (n, 2) array of finite floats.

    Accepts an array, a sequence of (x, y) pairs, or a sequence of
    CartesianPoint.  A centre with a NaN or infinite coordinate raises
    ValueError naming the circle.
    """
    if isinstance(centers, np.ndarray):
        arr = np.asarray(centers, dtype=float)
    else:
        seq = list(centers)
        if seq and isinstance(seq[0], CartesianPoint):
            arr = np.array([[p.x, p.y] for p in seq], dtype=float)
        else:
            arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1 and arr.size == 2:
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"centers must have shape (n, 2), got {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"centre of circle {i} is not finite: ({arr[i, 0]}, {arr[i, 1]})")
    return arr


# Every finite double is an integer multiple of 2^-1074, the smallest
# subnormal, so the exact checks count in that unit with Python ints.
_ONE = 1 << 1074
# The pair screen's slack and floor (see _screen).
_SLACK = 2.0**-32
_FLOOR = 2.0**-500


def _units(value: float) -> int:
    """A finite double as an exact count of 2^-1074."""
    num, den = float(value).as_integer_ratio()
    return num << (1075 - den.bit_length())


def _rounded(units: int, direction: int) -> float:
    """units * 2^-1074 rounded to a double, up (direction 1) or down (-1)."""
    try:
        out = units / _ONE  # int / int rounds correctly to nearest
    except OverflowError:
        out = sys.float_info.max if units > 0 else -sys.float_info.max
    if (_units(out) - units) * direction < 0:
        out = math.nextafter(out, direction * math.inf)
    return out


def _screen(x: np.ndarray, y: np.ndarray, fc: np.ndarray, fr: np.ndarray, r: float):
    """The candidates' violations at radius r in float64, as intervals.

    Returns (low, high, iu, ju).  Candidates are numbered as
    _exact_violation numbers them: each circle's containment
    |c_i| + r - 1, then each kept pair (iu, ju), i < j, row-major,
    2r - |c_i - c_j|, then each (circle, disk) r + R_f - |c_i - f|.  The
    pairs take O(n^2) float64 memory.

    With u = 2^-53 and s the sum of a candidate's magnitudes
    (|c_i| + r + 1, |c_i - c_j| + 2r, or |c_i - f| + r + R_f), the float64
    violation is within 7u*s + 2 * 2^-1074 of the exact one: u*s from the
    rounded coordinate differences, 4u*s (2 * 2^-1074 if subnormal) from
    a libm hypot good to two ulps, and u*s from each of the two additions,
    which are exact when subnormal.  The ends, value -+ (16u*s +
    8 * 2^-1074), leave room for rounding them and for halving them
    (correct_radius halves the pairs'), so the exact violation lies in
    [low, high].  A candidate that overflows gets an end that is not
    finite, or NaN, and _near_max always keeps it, once screened.

    Only the pairs near the closest are kept.  Each pair's squared
    distance q = dx*dx + dy*dy is formed, without hypot, and a pair is
    kept when q <= T = (max(sqrt(m), F) * (1 + S) + S*r)^2, with m the
    smallest q, S = _SLACK = 2^-32 and F = _FLOOR = 2^-500.  This drops
    no pair that _near_max would keep, in either caller.  Let p* be a
    pair with q = m, which is kept, and d a pair's exact distance.  By
    the bound above, a pair p has high(p) < low(p*) - 4 * 2^-1074 once

        d(p) (1 - 48u) > d(p*) (1 + 48u) + 192u*r + 48 * 2^-1074,

    a gap that correct_radius's halving and its rounding keep.  The
    largest lower end of verify_layout's pair slice, and of
    correct_radius's whole screen, is at least low(p*), so _near_max
    drops p; and p's own lower end is not the largest, so _near_max
    keeps the same pairs, in the same order, as it would on all pairs.
    The inequality holds for every pair with q > T:
      - Relative slack.  When q >= F^2, q is within 5u of d^2 (a square
        that underflows adds at most 2^-1074), so q > T gives
        d(p) > sqrt(T) (1 - 3u), with T within 4u of its exact value.
        With sqrt(m) >= F, d(p*) <= sqrt(m) (1 + 3u), and the factor
        1 + S covers the 48u terms and, as S*F > 2^-533, 48 * 2^-1074.
      - Absolute slack.  S*r covers the 192u*r of the 2r terms.
      - Floor.  Squares of separations under about 1e-154 lose relative
        precision, and under about 1e-162 they underflow to 0, so
        sqrt(m) may fall short of d(p*).  While m < F^2, F stands in for
        sqrt(m), since d(p*) <= F (1 + 3u); every pair with q <= F^2
        is kept.
      - Overflow.  q overflows to inf only when the rounded differences'
        squared length reaches DBL_MAX, so d(p)^2 >= DBL_MAX (1 - 3u) >=
        T (1 - 3u) while T is finite, and p may be dropped.  When T
        overflows to inf, every pair is kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = x[:, None] - x
        q *= q
        dy = y[:, None] - y
        dy *= dy
        q += dy
        np.fill_diagonal(q, math.inf)
        closest = math.sqrt(q.min(initial=math.inf))
        reach = max(closest, _FLOOR) * (1.0 + _SLACK) + _SLACK * r
        iu, ju = np.nonzero(q <= reach * reach)  # row-major
        upper = iu < ju
        iu, ju = iu[upper], ju[upper]
        wall = np.hypot(x, y)
        dist = np.hypot(x[iu] - x[ju], y[iu] - y[ju])
        gap = np.hypot(x[:, None] - fc[None, :, 0], y[:, None] - fc[None, :, 1])
        value = np.concatenate((wall + r - 1.0, 2.0 * r - dist, ((r + fr) - gap).ravel()))
        bound = np.concatenate((wall + r + 1.0, 2.0 * r + dist, ((r + fr) + gap).ravel()))
        bound *= 8.0 * math.ulp(1.0)
        bound += 8.0 * math.ulp(0.0)
        high = value + bound
        value -= bound
    return value, high, iu, ju


def _near_max(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the intervals that reach the largest lower
    end: the exact maximum is at least that end, so it lies among them."""
    return np.flatnonzero(~(high < np.fmax.reduce(low, initial=-math.inf)))


def _exact_violation(k: int, x, y, iu, ju, fc, fr) -> tuple[int, int]:
    """Candidate k's violation at r = 0, exactly rounded up to a count of
    2^-1074 by rounding its one distance with math.isqrt, and its slope.

    Candidates are numbered as _screen numbers them.  At a double r the
    violation is at most a double t exactly when
    slope * _units(r) + the returned count <= _units(t).
    """
    n, pairs = x.size, iu.size
    if k < n:  # |c_i| + r - 1
        q = _units(x[k]) ** 2 + _units(y[k]) ** 2
        root = math.isqrt(q)
        return root + (root * root < q) - _ONE, 1
    if k < n + pairs:  # 2r - |c_i - c_j|
        i, j = iu[k - n], ju[k - n]
        px, py, reach, slope = x[j], y[j], 0, 2
    else:  # r + R_f - |c_i - f|
        i, f = divmod(k - n - pairs, fr.size)
        px, py, reach, slope = fc[f, 0], fc[f, 1], _units(fr[f]), 1
    dx = _units(x[i]) - _units(px)
    dy = _units(y[i]) - _units(py)
    return reach - math.isqrt(dx * dx + dy * dy), slope


def correct_radius(centers: Union[np.ndarray, Sequence], instance: Instance) -> float:
    """Largest common radius keeping the given centres feasible.

    Takes the minimum over wall clearances 1 - |c_i|, half pairwise
    distances, and prohibited clearances |c_i - f| - R_f, exactly, and
    rounds it down to a double: the result is the largest double r at
    which every constraint holds, so (centres, r) verifies feasible at
    tolerance zero and (centres, nextafter(r, inf)) does not.  Centre
    sets with no positive clearance yield 0.  A centre with a NaN or
    infinite coordinate raises ValueError naming the circle.

    A clearance is -violation / slope at r = 0, so the smallest is the
    largest violation / slope: the screen at r = 0 (see _screen), with
    the pairs' ends halved, leaves the candidates evaluated exactly.
    """
    pts = as_center_array(centers)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("centers must be nonempty")
    x, y = pts[:, 0], pts[:, 1]
    fc, fr = instance.prohibited_centers(), instance.prohibited_radii()
    low, high, iu, ju = _screen(x, y, fc, fr, 0.0)
    low[n : n + iu.size] *= 0.5
    high[n : n + iu.size] *= 0.5

    largest = math.inf  # in counts of 2^-1074
    for k in _near_max(low, high):
        violation, slope = _exact_violation(int(k), x, y, iu, ju, fc, fr)
        largest = min(largest, -violation // slope)  # slope * r + violation <= 0
    return max(0.0, _rounded(largest, -1))


def verify_layout(layout: Layout, instance: Instance, tol: float) -> FeasibilityReport:
    """Independently check a layout against the container rules.

    Violations are measured in distance units: how far a circle pokes out
    of the container, overlaps a neighbour, or overlaps a prohibited
    disk.  Each is evaluated exactly and rounded up to a double, the
    smallest double t with violation <= t, so feasible == (worst() <= tol)
    at every tolerance.  Each family reports its largest violation, or 0
    if none is positive, and the first circle, pair or (circle, disk),
    slack ones included, whose rounded violation is largest, in the order
    i, then (i < j), then (i, f).

    Each family's screen (see _screen) leaves the candidates that are
    evaluated exactly (see _exact_violation), in loop order, keeping the
    first strict maximum.  A Layout's centres can be changed after it is
    built, so they are checked again (as_center_array).
    """
    if not (tol >= 0.0):
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    pts = as_center_array(layout.centers)
    x, y = pts[:, 0], pts[:, 1]
    fc, fr = instance.prohibited_centers(), instance.prohibited_radii()
    r = float(layout.radius)
    rho = _units(r)
    low, high, iu, ju = _screen(x, y, fc, fr, r)

    def first_max(start: int, stop: int):
        worst, at = -math.inf, None
        for k in _near_max(low[start:stop], high[start:stop]):
            violation, slope = _exact_violation(start + int(k), x, y, iu, ju, fc, fr)
            value = _rounded(slope * rho + violation, 1)
            if value > worst:
                worst, at = value, int(k)
        return max(0.0, worst), at

    n, m = x.size, x.size + iu.size
    cont, cont_idx = first_max(0, n)
    pair, k = first_max(n, m)
    pair_idx = None if k is None else (int(iu[k]), int(ju[k]))
    proh, k = first_max(m, low.size)
    proh_idx = None if k is None else divmod(k, fr.size)

    return FeasibilityReport(
        feasible=(cont <= tol and pair <= tol and proh <= tol),
        tol=float(tol),
        worst_containment_violation=cont,
        worst_pairwise_violation=pair,
        worst_prohibited_violation=proh,
        containment_index=cont_idx,
        pairwise_indices=pair_idx,
        prohibited_indices=proh_idx,
    )


# DBL_MAX has 309 digits before the point; the default context's 28 made
# quantize raise InvalidOperation for every radius from 1e20 up.
_RADIUS_DIGITS = Context(prec=320)


def format_radius(value: float) -> str:
    """Radius as a decimal string with 8 places, truncated toward zero."""
    exact = Decimal(repr(float(value)))
    truncated = exact.quantize(Decimal("0.00000001"), rounding=ROUND_DOWN, context=_RADIUS_DIGITS)
    # str() would print quantized zero as 0E-8.
    return f"{truncated:f}"


def layout_to_dict(layout: Layout, instance_name: str) -> dict:
    """Layout document: coordinates as full-precision decimal strings."""
    return {
        "instance": instance_name,
        "n": layout.n,
        "radius": format_radius(layout.radius),
        "centers": [[repr(x), repr(y)] for x, y in layout.centers.tolist()],
    }


def _decimal(value, where: str, *index: int) -> float:
    """A number field of a layout document, as a float; the message names
    the field and, for a coordinate, its indices."""
    try:
        # float() would read a JSON true or false as 1.0 or 0.0.
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        where += "".join(f"[{k}]" for k in index)
        raise LayoutFormatError(f"{where} is not a decimal string: {value!r}") from None


def layout_from_dict(doc: dict) -> tuple[Layout, str]:
    """Parse a layout document; returns the layout and its instance name."""
    if not isinstance(doc, dict):
        raise LayoutFormatError("layout document must be a JSON object")
    try:
        name = doc["instance"]
        n = doc["n"]
        radius_text = doc["radius"]
        raw_centers = doc["centers"]
    except KeyError as exc:
        raise LayoutFormatError(f"layout document missing key {exc}") from None
    if not isinstance(name, str):
        raise LayoutFormatError("field 'instance' must be a string")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise LayoutFormatError(f"field 'n' must be a positive integer, got {n!r}")
    radius = _decimal(radius_text, "field 'radius'")
    if not isinstance(raw_centers, list) or len(raw_centers) != n:
        raise LayoutFormatError("field 'centers' must be a list of n [x, y] pairs")
    values = []
    for i, pair in enumerate(raw_centers):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise LayoutFormatError(f"centers[{i}] must be an [x, y] pair")
        values.append(_decimal(pair[0], "centers", i, 0))
        values.append(_decimal(pair[1], "centers", i, 1))
    centers = np.array(values, dtype=float).reshape(n, 2)
    if not np.all(np.isfinite(centers)) or not math.isfinite(radius) or radius < 0.0:
        raise LayoutFormatError("layout values must be finite and radius nonnegative")
    return Layout(centers, radius), name


def save_layout(layout: Layout, instance_name: str, path: Union[str, Path]) -> None:
    """Write layout_to_dict's document as `json.dumps(doc, indent=2)` plus
    a newline would, byte for byte.

    The text is assembled here because an indent sends json.dumps to its
    pure-Python encoder; each string still goes through the module's
    (C) ASCII string encoder.
    """
    doc = layout_to_dict(layout, instance_name)
    quote = json.encoder.encode_basestring_ascii
    centers = ",\n".join(
        f"    [\n      {quote(x)},\n      {quote(y)}\n    ]" for x, y in doc["centers"]
    )
    text = (
        f'{{\n  "instance": {quote(doc["instance"])},\n  "n": {doc["n"]},\n'
        f'  "radius": {quote(doc["radius"])},\n  "centers": [\n{centers}\n  ]\n}}\n'
    )
    Path(path).write_text(text, encoding="utf-8")


def load_layout(path: Union[str, Path]) -> tuple[Layout, str]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise LayoutFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise LayoutFormatError(f"invalid JSON in {path}: {exc}") from None
    return layout_from_dict(doc)
