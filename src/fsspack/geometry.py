"""Geometric core for packing identical circles in the unit disk.

The container is the unit circle centred at the origin.  Prohibited areas
are fixed circular disks that packed circles may touch but never overlap.
This module owns the domain types plus the numeric services everything
else builds on: the area bound on the common radius, the post-solve
radius correction, and an independent feasibility verifier.

Correction and verification screen every constraint in double precision
first.  Only the candidates whose double value lies within a stated
rounding bound of the extremum are evaluated again in software extended
precision, with every coordinate difference formed there, so the result
is the one an all-candidates extended-precision pass would give.  The
corrected radius is rounded down to a double, so a corrected layout is
feasible at tolerance zero.  Everything else is plain double precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from decimal import ROUND_DOWN, Decimal
from pathlib import Path
from typing import Optional, Sequence, Union

import mpmath
import numpy as np

TWO_PI = 2.0 * math.pi

# Working precision (decimal digits) for correction and verification.
EXTENDED_DPS = 50


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
    """n circle centres (Cartesian) sharing one common radius."""

    centers: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.centers, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"centers must have shape (n, 2), got {arr.shape}")
        self.centers = arr
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

    The n circles and the largest prohibited disk must fit disjointly in
    the container, so n*r^2 + max_f R_f^2 <= 1.  A prohibited disk at
    least as large as the container forces the bound to 0.
    """
    if n < 1:
        raise ValueError(f"need at least one circle, got n={n}")
    largest = instance.max_prohibited_radius()
    radicand = (1.0 - largest * largest) / n
    if radicand <= 0.0:
        return 0.0
    return math.sqrt(radicand)


def as_center_array(centers: Union[np.ndarray, Sequence]) -> np.ndarray:
    """Coerce centres to an (n, 2) float array.

    Accepts an array, a sequence of (x, y) pairs, or a sequence of
    CartesianPoint.
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
    return arr


def _float_rounded_down(value: mpmath.mpf) -> float:
    # float() rounds to nearest; step down one ulp if that overshot.
    out = float(value)
    if mpmath.mpf(out) > value:
        out = math.nextafter(out, -math.inf)
    return out


def correct_radius(centers: Union[np.ndarray, Sequence], instance: Instance) -> float:
    """Largest common radius keeping the given centres feasible.

    Takes the minimum over wall clearances 1 - |c_i|, half pairwise
    distances, and prohibited clearances |c_i - f| - R_f.  The minimum is
    evaluated in extended precision and rounded down to a double, so the
    pair (centres, radius) verifies feasible at tolerance zero.  Centre
    sets with no positive clearance yield 0.  A centre with a NaN or
    infinite coordinate raises ValueError naming the circle.

    Every term is first computed in float64.  With u = 2^-53 and s the
    sum of a term's magnitudes (1 + |c_i|, |c_i - c_j| / 2, or
    |c_i - f| + R_f), the float64 term is within 7u*s of its
    extended-precision value: u*s from the rounded coordinate
    differences, 4u*s from a libm hypot good to two ulps, u*s from the
    final subtraction or halving, u*s when the interval ends below are
    rounded, and far less than u*s from the 50-digit evaluation itself.
    Each term is therefore bounded by value +- (16u*s + 8 * 2^-1074), the
    last part for subnormal results.  The true minimum lies below the
    smallest upper end, so only the terms whose lower end reaches it are
    re-evaluated at EXTENDED_DPS digits, with coordinate differences
    formed there.  A term whose float64 interval is not finite (overflow)
    is always re-evaluated.
    """
    pts = as_center_array(centers)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("centers must be nonempty")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"centre of circle {i} is not finite: ({pts[i, 0]}, {pts[i, 1]})")

    x = pts[:, 0]
    y = pts[:, 1]
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    iu, ju = np.triu_indices(n, k=1)
    wall = np.hypot(x, y)
    half = 0.5 * np.hypot(x[iu] - x[ju], y[iu] - y[ju])
    gap = np.hypot(x[:, None] - fc[None, :, 0], y[:, None] - fc[None, :, 1])
    # Flat order: n wall terms, then pairs (i < j, row-major), then (i, f).
    value = np.concatenate((1.0 - wall, half, (gap - fr).ravel()))
    scale = np.concatenate((1.0 + wall, half, (gap + fr).ravel()))
    bound = 8.0 * math.ulp(1.0) * scale + 8.0 * math.ulp(0.0)
    ceiling = np.fmin.reduce(value + bound, initial=math.inf)
    first_disk = n + iu.size

    with mpmath.workdps(EXTENDED_DPS):
        best = None
        for k in np.flatnonzero(~(value - bound > ceiling)):
            if k < n:
                term = 1 - mpmath.hypot(x[k], y[k])
            elif k < first_disk:
                i, j = iu[k - n], ju[k - n]
                dx = mpmath.mpf(x[i]) - mpmath.mpf(x[j])
                dy = mpmath.mpf(y[i]) - mpmath.mpf(y[j])
                term = mpmath.hypot(dx, dy) / 2
            else:
                i, f = divmod(int(k) - first_disk, fr.size)
                dx = mpmath.mpf(x[i]) - mpmath.mpf(fc[f, 0])
                dy = mpmath.mpf(y[i]) - mpmath.mpf(fc[f, 1])
                term = mpmath.hypot(dx, dy) - mpmath.mpf(fr[f])
            if best is None or term < best:
                best = term
        if best <= 0:
            return 0.0
        return max(0.0, _float_rounded_down(best))


def verify_layout(layout: Layout, instance: Instance, tol: float) -> FeasibilityReport:
    """Independently check a layout against the container rules.

    Violations are measured in distance units: how far a circle pokes out
    of the container, overlaps a neighbour, or overlaps a prohibited
    disk.  Each family reports its largest violation and the first
    circle, pair or (circle, disk) attaining it, in the order
    i, then (i < j), then (i, f).  A circle with a NaN or infinite
    coordinate lies outside the container by an infinite amount; it is
    left out of the pair and prohibited families.

    Every value is the one an extended-precision (EXTENDED_DPS digits)
    evaluation of all candidates gives, with coordinate differences
    formed in extended precision, so tolerance zero is meaningful for
    corrected layouts.  Candidates are screened first: each family is
    evaluated in float64, vectorised, which takes O(n^2) float64 memory
    for the pairs.  With u = 2^-53 and s the sum of a candidate's
    magnitudes (|c_i| + r + 1, |c_i - c_j| + 2r, or |c_i - f| + r + R_f),
    the float64 violation is within 7u*s of the extended one: u*s from
    the rounded coordinate differences, 4u*s from a libm hypot good to
    two ulps, u*s from each of the two additions, and far less than u*s
    from the extended evaluation.  Each candidate's interval, value +-
    (16u*s + 8 * 2^-1074), leaves room for rounding its own ends and for
    subnormal results.  The family maximum is at least the largest lower
    end, so only candidates whose upper end reaches it are evaluated in
    extended precision, in loop order, keeping the first strict maximum.
    A candidate whose float64 interval is not finite (overflow) is always
    evaluated.
    """
    if not (tol >= 0.0):
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    pts = layout.centers
    finite = np.isfinite(pts).all(axis=1)
    keep = np.flatnonzero(finite)
    x = pts[keep, 0]
    y = pts[keep, 1]
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    r = float(layout.radius)

    wall = np.hypot(pts[:, 0], pts[:, 1])
    cont_raw = np.where(finite, wall + r - 1.0, math.inf)
    cont_scale = np.where(finite, wall + r + 1.0, 0.0)
    iu, ju = np.triu_indices(keep.size, k=1)
    pair_i, pair_j = keep[iu], keep[ju]
    dist = np.hypot(x[iu] - x[ju], y[iu] - y[ju])
    gap = np.hypot(x[:, None] - fc[None, :, 0], y[:, None] - fc[None, :, 1])
    n_disks = fr.size

    with mpmath.workdps(EXTENDED_DPS):
        radius = mpmath.mpf(r)

        def distance(i: int, px: float, py: float) -> mpmath.mpf:
            dx = mpmath.mpf(pts[i, 0]) - mpmath.mpf(px)
            dy = mpmath.mpf(pts[i, 1]) - mpmath.mpf(py)
            return mpmath.hypot(dx, dy)

        def first_max(raw: np.ndarray, scale: np.ndarray, exact):
            bound = 8.0 * math.ulp(1.0) * scale + 8.0 * math.ulp(0.0)
            floor = np.fmax.reduce(raw - bound, initial=-math.inf)
            worst = at = None
            for k in np.flatnonzero(~(raw + bound < floor)):
                value = exact(int(k))
                if worst is None or value > worst:
                    worst, at = value, int(k)
            return worst, at

        def containment(i: int):
            return distance(i, 0.0, 0.0) + radius - 1 if finite[i] else mpmath.inf

        def overlap(k: int):
            j = pair_j[k]
            return 2 * radius - distance(pair_i[k], pts[j, 0], pts[j, 1])

        def intrusion(k: int):
            a, f = divmod(k, n_disks)
            return radius + mpmath.mpf(fr[f]) - distance(keep[a], fc[f, 0], fc[f, 1])

        worst_cont, cont_idx = first_max(cont_raw, cont_scale, containment)
        worst_pair, k = first_max(2.0 * r - dist, 2.0 * r + dist, overlap)
        pair_idx = None if k is None else (int(pair_i[k]), int(pair_j[k]))
        worst_proh, k = first_max(((r + fr) - gap).ravel(), ((r + fr) + gap).ravel(), intrusion)
        proh_idx = None if k is None else (int(keep[k // n_disks]), k % n_disks)

        def clamped(value) -> float:
            if value is None or value <= 0:
                return 0.0
            return float(value)

        cont = clamped(worst_cont)
        pair = clamped(worst_pair)
        proh = clamped(worst_proh)

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


def format_radius(value: float) -> str:
    """Radius as a decimal string with 8 places, truncated toward zero."""
    # str() would print quantized zero as 0E-8.
    return f"{Decimal(repr(float(value))).quantize(Decimal('0.00000001'), rounding=ROUND_DOWN):f}"


def layout_to_dict(layout: Layout, instance_name: str) -> dict:
    """Layout document: coordinates as full-precision decimal strings."""
    return {
        "instance": instance_name,
        "n": layout.n,
        "radius": format_radius(layout.radius),
        "centers": [[repr(float(x)), repr(float(y))] for x, y in layout.centers],
    }


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
    if not isinstance(n, int) or n < 1:
        raise LayoutFormatError(f"field 'n' must be a positive integer, got {n!r}")
    try:
        radius = float(radius_text)
    except (TypeError, ValueError):
        raise LayoutFormatError(f"field 'radius' is not a decimal string: {radius_text!r}") from None
    if not isinstance(raw_centers, list) or len(raw_centers) != n:
        raise LayoutFormatError("field 'centers' must be a list of n [x, y] pairs")
    centers = np.empty((n, 2), dtype=float)
    for i, pair in enumerate(raw_centers):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise LayoutFormatError(f"centers[{i}] must be an [x, y] pair")
        for k in range(2):
            try:
                centers[i, k] = float(pair[k])
            except (TypeError, ValueError):
                raise LayoutFormatError(
                    f"centers[{i}][{k}] is not a decimal string: {pair[k]!r}"
                ) from None
    if not np.all(np.isfinite(centers)) or not math.isfinite(radius) or radius < 0.0:
        raise LayoutFormatError("layout values must be finite and radius nonnegative")
    return Layout(centers, radius), name


def save_layout(layout: Layout, instance_name: str, path: Union[str, Path]) -> None:
    text = json.dumps(layout_to_dict(layout, instance_name), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_layout(path: Union[str, Path]) -> tuple[Layout, str]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise LayoutFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise LayoutFormatError(f"invalid JSON in {path}: {exc}") from None
    return layout_from_dict(doc)
