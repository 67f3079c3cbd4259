"""Geometric core for packing identical circles in the unit disk.

The container is the unit circle centred at the origin.  Prohibited areas
are fixed circular disks that packed circles may touch but never overlap.
This module owns the domain types plus the numeric services everything
else builds on: the area bound on the common radius, the post-solve
radius correction, and an independent feasibility verifier.

Correction and verification run in software extended precision and the
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

# Candidates within this window of the double-precision minimum get
# re-evaluated in extended precision.  Double rounding error on distances
# in the unit disk is ~1e-16, so the window is generous.
_REFINE_WINDOW = 1e-12


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
    sets with no positive clearance yield 0.
    """
    pts = as_center_array(centers)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("centers must be nonempty")

    x = pts[:, 0]
    y = pts[:, 1]
    values = [1.0 - np.hypot(x, y)]
    kinds: list[tuple[str, tuple[int, ...]]] = [("wall", (i,)) for i in range(n)]
    if n >= 2:
        iu, ju = np.triu_indices(n, k=1)
        values.append(0.5 * np.hypot(x[iu] - x[ju], y[iu] - y[ju]))
        kinds.extend(("pair", (int(i), int(j))) for i, j in zip(iu, ju))
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    if fc.shape[0]:
        d = np.hypot(x[:, None] - fc[None, :, 0], y[:, None] - fc[None, :, 1])
        values.append((d - fr[None, :]).ravel())
        kinds.extend(
            ("prohibited", (i, f)) for i in range(n) for f in range(fc.shape[0])
        )

    flat = np.concatenate(values)
    coarse_min = float(flat.min())
    if coarse_min < -_REFINE_WINDOW:
        return 0.0

    near = np.nonzero(flat <= coarse_min + _REFINE_WINDOW)[0]
    with mpmath.workdps(EXTENDED_DPS):
        best = None
        for idx in near:
            kind, who = kinds[int(idx)]
            if kind == "wall":
                (i,) = who
                val = 1 - mpmath.hypot(x[i], y[i])
            elif kind == "pair":
                i, j = who
                val = mpmath.hypot(x[i] - x[j], y[i] - y[j]) / 2
            else:
                i, f = who
                val = mpmath.hypot(x[i] - fc[f, 0], y[i] - fc[f, 1]) - mpmath.mpf(fr[f])
            if best is None or val < best:
                best = val
        if best <= 0:
            return 0.0
        return max(0.0, _float_rounded_down(best))


def verify_layout(layout: Layout, instance: Instance, tol: float) -> FeasibilityReport:
    """Independently check a layout against the container rules.

    Violations are measured in distance units: how far a circle pokes out
    of the container, overlaps a neighbour, or overlaps a prohibited
    disk.  All arithmetic runs in extended precision so tolerance zero is
    meaningful for corrected layouts.
    """
    if not (tol >= 0.0):
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    pts = layout.centers
    n = layout.n
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()

    with mpmath.workdps(EXTENDED_DPS):
        radius = mpmath.mpf(float(layout.radius))

        worst_cont = None
        cont_idx = None
        for i in range(n):
            raw = mpmath.hypot(pts[i, 0], pts[i, 1]) + radius - 1
            if worst_cont is None or raw > worst_cont:
                worst_cont, cont_idx = raw, i

        worst_pair = None
        pair_idx = None
        for i in range(n):
            for j in range(i + 1, n):
                raw = 2 * radius - mpmath.hypot(
                    pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]
                )
                if worst_pair is None or raw > worst_pair:
                    worst_pair, pair_idx = raw, (i, j)

        worst_proh = None
        proh_idx = None
        for i in range(n):
            for f in range(fc.shape[0]):
                raw = (
                    radius
                    + mpmath.mpf(fr[f])
                    - mpmath.hypot(pts[i, 0] - fc[f, 0], pts[i, 1] - fc[f, 1])
                )
                if worst_proh is None or raw > worst_proh:
                    worst_proh, proh_idx = raw, (i, f)

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
    except json.JSONDecodeError as exc:
        raise LayoutFormatError(f"invalid JSON in {path}: {exc}") from None
    return layout_from_dict(doc)
