"""Assembly and evaluation of the per-iteration packing program.

One search iteration fixes which circles use Cartesian coordinates and
which use polar, limits how far each Cartesian centre may move, prunes
pairs that provably cannot collide, and hands the solver a smooth
inequality program in the canonical orientation g(z) >= 0.

Variable layout: the common radius first, then (x, y) per Cartesian
circle in index order, then (r, theta) per polar circle in index order.
Slot k of that circle order owns variables 1 + 2k and 2 + 2k.  Movement
limits fold into the variable bounds, so the nonlinear constraints are
exactly three families: containment in the unit disk, separation of
circle pairs, and clearance from prohibited disks.

The coordinate choice is a change of variables and nothing more.  Each
evaluation maps every slot's two variables to its centre (x, y) once:
the identity for Cartesian slots, (r cos theta, r sin theta) for polar
ones, whose 2x2 derivative [[cos theta, -y], [sin theta, x]] needs no
more than the map itself computed.  The three families are evaluated in
Cartesian form only; their weighted row gradients are summed per slot
with np.bincount and pulled back through the 2x2 derivatives.  Polar
containment is the one exception: it keeps its linear form 1 - R - r,
which is exact and, unlike 1 - R - |(x, y)|, smooth at the origin.

Finiteness is checked once per use.  constraint_values raises
EvaluationError naming the family and circles of the first non-finite
row; the merit function leaves the check to its caller, whose single
test of the merit value and gradient suffices (see
NlpProblem.augmented_lagrangian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Instance, Layout, TWO_PI

ROOT2 = math.sqrt(2.0)

# Constraint family ids, used in tags and diagnostics.
FAMILY_CONTAINMENT = "containment"
FAMILY_PAIR = "pair"
FAMILY_PROHIBITED = "prohibited"


class EvaluationError(RuntimeError):
    """Raised when a constraint evaluates to a non-finite value."""


@dataclass(frozen=True)
class Assignment:
    """Partition of circle indices into Cartesian and polar sets."""

    cart: tuple[int, ...]
    polar: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cart", tuple(sorted(self.cart)))
        object.__setattr__(self, "polar", tuple(sorted(self.polar)))
        n = len(self.cart) + len(self.polar)
        combined = set(self.cart) | set(self.polar)
        if len(combined) != n or combined != set(range(n)):
            raise ValueError("cart and polar must partition 0..n-1")

    @property
    def n(self) -> int:
        return len(self.cart) + len(self.polar)


@dataclass
class PairSets:
    """Pairs kept after pruning: circle/circle and (circle, prohibited)."""

    circle_pairs: list[tuple[int, int]]
    prohibited_pairs: list[tuple[int, int]]


def prune_pairs(
    current: Layout,
    assignment: Assignment,
    delta: float,
    r_cap: float,
    instance: Instance,
) -> PairSets:
    """Drop pairs that cannot collide under the movement limits.

    A Cartesian centre moves at most sqrt(2)*delta from its box centre,
    so a Cartesian pair further apart than 2*r_cap + 2*sqrt(2)*delta can
    never touch, and a Cartesian circle further than r_cap + R_f +
    sqrt(2)*delta from a prohibited disk can never reach it.  Polar
    circles are unboxed, so every pair touching one is kept.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    n = assignment.n
    pts = current.centers
    if pts.shape[0] != n:
        raise ValueError(f"layout holds {pts.shape[0]} centres, assignment expects {n}")
    in_cart = np.zeros(n, dtype=bool)
    in_cart[list(assignment.cart)] = True

    circle_pairs: list[tuple[int, int]] = []
    if n >= 2:
        iu, ju = np.triu_indices(n, k=1)
        dist = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
        prunable = in_cart[iu] & in_cart[ju] & (dist - 2.0 * ROOT2 * delta >= 2.0 * r_cap)
        circle_pairs = [(int(i), int(j)) for i, j in zip(iu[~prunable], ju[~prunable])]

    prohibited_pairs: list[tuple[int, int]] = []
    fc = instance.prohibited_centers()
    fr = instance.prohibited_radii()
    if fc.shape[0]:
        d = np.hypot(pts[:, None, 0] - fc[None, :, 0], pts[:, None, 1] - fc[None, :, 1])
        prunable = in_cart[:, None] & (d - ROOT2 * delta >= r_cap + fr[None, :])
        keep_i, keep_f = np.nonzero(~prunable)
        prohibited_pairs = [(int(i), int(f)) for i, f in zip(keep_i, keep_f)]

    return PairSets(circle_pairs, prohibited_pairs)


class NlpProblem:
    """One smooth inequality program: maximise the common radius.

    Built by build_nlp.  Public data: n, nv, m, lower, upper, tags, cart,
    polar, var_a, var_b (index of each circle's first and second
    variable), r_cap.  Rows come in family order: containment for every
    circle in slot order, then one separation row per retained circle
    pair, then one clearance row per retained (circle, prohibited disk)
    pair.
    """

    def __init__(
        self,
        cart: np.ndarray,
        polar: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        tags: list[tuple[str, tuple[int, ...]]],
        r_cap: float,
        circle_pairs: np.ndarray,
        clearances: np.ndarray,
        disks: np.ndarray,
    ) -> None:
        self.cart = cart
        self.polar = polar
        self.lower = lower
        self.upper = upper
        self.tags = tags
        self.r_cap = r_cap
        self.n = n = len(cart) + len(polar)
        self.nv = 2 * n + 1
        self.m = m = len(tags)
        self._nc = nc = len(cart)
        self._order = np.concatenate((cart, polar))
        slot = np.empty(n, dtype=np.intp)
        slot[self._order] = np.arange(n)
        self.var_a = 1 + 2 * slot
        self.var_b = 2 + 2 * slot

        # Rows and slots of the separation and clearance families.
        q = len(circle_pairs)
        self._pairs = slice(n, n + q)
        self._prohibited = slice(n + q, m)
        self._pair_i = slot[circle_pairs[:, 0]]
        self._pair_j = slot[circle_pairs[:, 1]]
        self._clear_i = slot[clearances]
        self._disk_x = disks[:, 0].copy()
        self._disk_y = disks[:, 1].copy()
        self._disk_r = disks[:, 2].copy()

        # Each (row, slot) pair where a row depends on a centre: Cartesian
        # containment, both ends of every pair, every clearance.  No row
        # touches one slot twice.
        pair_rows = np.arange(n, n + q)
        self._touch_row = np.concatenate(
            (np.arange(nc), pair_rows, pair_rows, np.arange(n + q, m))
        )
        self._touch_slot = np.concatenate(
            (np.arange(nc), self._pair_i, self._pair_j, self._clear_i)
        )

    # -- the coordinate map ---------------------------------------------

    def _centres(self, z: np.ndarray) -> tuple:
        """Centre (x, y) per slot, and cos/sin of theta per polar slot."""
        nc = self._nc
        x = z[1::2].copy()
        y = z[2::2].copy()
        r = z[1 + 2 * nc :: 2]
        cos_t = np.cos(y[nc:])
        sin_t = np.sin(y[nc:])
        x[nc:] = r * cos_t
        y[nc:] = r * sin_t
        return x, y, cos_t, sin_t

    def _pull_back(self, out: np.ndarray, centres: tuple) -> None:
        """Turn Cartesian partials into variable partials, in place.

        The last axis of out has the variable layout.  On entry each
        slot holds partials by (x, y), afterwards by its own variables;
        Cartesian slots map by the identity, so only polar ones change.
        """
        x, y, cos_t, sin_t = centres
        nc = self._nc
        gx = out[..., 1 + 2 * nc :: 2]
        gy = out[..., 2 + 2 * nc :: 2]
        g_r = gx * cos_t + gy * sin_t
        g_theta = gy * x[nc:] - gx * y[nc:]
        gx[...] = g_r
        gy[...] = g_theta

    # -- evaluation -----------------------------------------------------

    def _evaluate(self, z: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Row values and the partials their derivatives need.

        Returns (values, partials) with partials = (d_radius, d_x, d_y,
        centres): the radius partial per row, the Cartesian partials per
        (row, slot) touch, and the mapped centres.
        """
        nc, n = self._nc, self.n
        radius = z[0]
        centres = self._centres(z)
        x, y = centres[0], centres[1]
        values = np.empty(self.m, dtype=float)
        d_radius = np.empty(self.m, dtype=float)

        xc, yc = x[:nc], y[:nc]
        values[:nc] = (1.0 - radius) ** 2 - xc * xc - yc * yc
        d_radius[:nc] = -2.0 * (1.0 - radius)
        values[nc:n] = (1.0 - radius) - z[1 + 2 * nc :: 2]
        d_radius[nc:n] = -1.0

        dx = x[self._pair_i] - x[self._pair_j]
        dy = y[self._pair_i] - y[self._pair_j]
        values[self._pairs] = dx * dx + dy * dy - 4.0 * radius * radius
        d_radius[self._pairs] = -8.0 * radius

        u = x[self._clear_i] - self._disk_x
        v = y[self._clear_i] - self._disk_y
        rr = radius + self._disk_r
        values[self._prohibited] = u * u + v * v - rr * rr
        d_radius[self._prohibited] = -2.0 * rr

        d_x = np.concatenate((-2.0 * xc, 2.0 * dx, -2.0 * dx, 2.0 * u))
        d_y = np.concatenate((-2.0 * yc, 2.0 * dy, -2.0 * dy, 2.0 * v))
        return values, (d_radius, d_x, d_y, centres)

    def _gradient(self, partials: tuple, weights: np.ndarray) -> np.ndarray:
        """Gradient of -R - weights @ g from the partials of _evaluate."""
        d_radius, d_x, d_y, centres = partials
        w_touch = weights[self._touch_row]
        grad = np.empty(self.nv, dtype=float)
        grad[0] = weights @ d_radius
        grad[1::2] = np.bincount(self._touch_slot, weights=w_touch * d_x, minlength=self.n)
        grad[2::2] = np.bincount(self._touch_slot, weights=w_touch * d_y, minlength=self.n)
        self._pull_back(grad, centres)
        grad[1 + 2 * self._nc :: 2] -= weights[self._nc : self.n]
        np.negative(grad, out=grad)
        grad[0] -= 1.0
        return grad

    def _require_finite(self, row_ok: np.ndarray, what: str) -> None:
        if not row_ok.all():
            family, who = self.tags[int(np.argmin(row_ok))]
            raise EvaluationError(
                f"non-finite {what} in {family} family constraint for indices {who}"
            )

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        """All constraint values g(z) in canonical order."""
        values, _ = self._evaluate(z)
        self._require_finite(np.isfinite(values), "value")
        return values

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Dense constraint jacobian, rows in canonical order."""
        _, (d_radius, d_x, d_y, centres) = self._evaluate(z)
        out = np.zeros((self.m, self.nv), dtype=float)
        out[:, 0] = d_radius
        out[self._touch_row, 1 + 2 * self._touch_slot] = d_x
        out[self._touch_row, 2 + 2 * self._touch_slot] = d_y
        self._pull_back(out, centres)
        polar = np.arange(self._nc, self.n)
        out[polar, 1 + 2 * polar] = -1.0
        self._require_finite(np.isfinite(out).all(axis=1), "derivative")
        return out

    def augmented_lagrangian(
        self, z: np.ndarray, multipliers: np.ndarray, penalty: float
    ) -> tuple[float, np.ndarray]:
        """Value and gradient of the bound-constrained merit function.

        Minimising -R subject to g >= 0 turns into
        -R + (||max(0, lambda - rho*g)||^2 - ||lambda||^2) / (2*rho).

        Nothing here checks finiteness: the caller's one check of the
        value and gradient is enough.  Inside the finite bounds every row
        is finite, and a non-finite entry of z always reaches the value
        or the gradient.  R enters the value directly.  A Cartesian
        coordinate drives its containment row to -inf or NaN, which
        w = max(0, lambda - rho*g) carries into the value as +inf or
        NaN.  A polar r or theta that is not finite leaves x or y of its
        centre non-finite, and then so is the theta entry of the
        gradient, gy*x - gx*y, since 0*inf is NaN.
        """
        values, partials = self._evaluate(z)
        w = multipliers - penalty * values
        np.maximum(w, 0.0, out=w)
        value = -z[0] + (w @ w - multipliers @ multipliers) / (2.0 * penalty)
        return float(value), self._gradient(partials, w)

    def lagrangian_gradient(self, z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """Gradient of -R - multipliers @ g at z."""
        return self._gradient(self._evaluate(z)[1], multipliers)

    def linear_violations(self, z: np.ndarray) -> np.ndarray:
        """Signed violations in distance units, canonical order.

        Positive means violated; this matches the verifier's semantics,
        unlike the raw squared constraint values.
        """
        nc, n = self._nc, self.n
        radius = z[0]
        x, y, _, _ = self._centres(z)
        out = np.empty(self.m, dtype=float)
        out[:nc] = np.hypot(x[:nc], y[:nc]) + radius - 1.0
        out[nc:n] = z[1 + 2 * nc :: 2] + radius - 1.0
        out[self._pairs] = 2.0 * radius - np.hypot(
            x[self._pair_i] - x[self._pair_j], y[self._pair_i] - y[self._pair_j]
        )
        out[self._prohibited] = radius + self._disk_r - np.hypot(
            x[self._clear_i] - self._disk_x, y[self._clear_i] - self._disk_y
        )
        return out

    # -- layout glue ----------------------------------------------------

    def pack_start(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Start vector from Cartesian centres plus a radius guess."""
        nc = self._nc
        z = np.empty(self.nv, dtype=float)
        z[0] = radius
        z[1::2] = centers[self._order, 0]
        z[2::2] = centers[self._order, 1]
        x, y = z[1 + 2 * nc :: 2], z[2 + 2 * nc :: 2]
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta[theta < 0.0] += TWO_PI
        x[:] = r
        y[:] = theta
        return z

    def extract_centers(self, z: np.ndarray) -> np.ndarray:
        """Cartesian centres of all circles at the point z."""
        x, y, _, _ = self._centres(z)
        out = np.empty((self.n, 2), dtype=float)
        out[self._order, 0] = x
        out[self._order, 1] = y
        return out


def build_nlp(
    instance: Instance,
    assignment: Assignment,
    current: Layout,
    delta: float,
    pairs: PairSets,
    r_cap: float,
) -> NlpProblem:
    """Assemble the program for one solve.

    Movement limits apply to Cartesian circles only and are intersected
    with the container box [-1, 1]; polar circles get the full (r, theta)
    box.  The retained pairs decide which separation and clearance
    constraints appear.
    """
    n = assignment.n
    if current.centers.shape[0] != n:
        raise ValueError(
            f"layout holds {current.centers.shape[0]} centres, assignment expects {n}"
        )
    if delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if r_cap < 0.0:
        raise ValueError(f"r_cap must be nonnegative, got {r_cap}")

    cart = np.array(assignment.cart, dtype=np.intp)
    polar = np.array(assignment.polar, dtype=np.intp)

    # Bounds in the variable layout: (x, y) per Cartesian slot, then
    # (r, theta) per polar slot.
    nc = len(cart)
    lower = np.empty(2 * n + 1, dtype=float)
    upper = np.empty(2 * n + 1, dtype=float)
    lower[0], upper[0] = 0.0, r_cap
    boxed = current.centers[cart]
    lower[1 : 1 + 2 * nc] = np.maximum(-1.0, boxed - delta).ravel()
    upper[1 : 1 + 2 * nc] = np.minimum(1.0, boxed + delta).ravel()
    lower[1 + 2 * nc :] = 0.0
    upper[1 + 2 * nc :: 2] = 1.0
    upper[2 + 2 * nc :: 2] = TWO_PI

    k = instance.f_count
    tags: list[tuple[str, tuple[int, ...]]] = [
        (FAMILY_CONTAINMENT, (i,)) for i in assignment.cart + assignment.polar
    ]
    for i, j in pairs.circle_pairs:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError(f"pair ({i}, {j}) references circles outside the assignment")
        tags.append((FAMILY_PAIR, (i, j)))
    for i, f in pairs.prohibited_pairs:
        if not (0 <= i < n and 0 <= f < k):
            raise ValueError(f"pair ({i}, {f}) references an unknown circle or disk")
        tags.append((FAMILY_PROHIBITED, (i, f)))

    circle_pairs = np.array(pairs.circle_pairs, dtype=np.intp).reshape(-1, 2)
    clear = np.array(pairs.prohibited_pairs, dtype=np.intp).reshape(-1, 2)
    f = clear[:, 1]
    disks = np.column_stack(
        (instance.prohibited_centers()[f], instance.prohibited_radii()[f])
    )
    return NlpProblem(
        cart, polar, lower, upper, tags, r_cap, circle_pairs, clear[:, 0], disks
    )


def evaluate(
    problem: NlpProblem, point: Sequence[float]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Objective, constraint values, and their analytic gradients.

    Returns (objective, constraints, objective_gradient, jacobian) with
    the objective being the common radius (to maximise) and constraints
    in the canonical g >= 0 orientation.
    """
    z = np.asarray(point, dtype=float)
    if z.shape != (problem.nv,):
        raise ValueError(f"point must have shape ({problem.nv},), got {z.shape}")
    values = problem.constraint_values(z)
    jac = problem.jacobian(z)
    grad_obj = np.zeros(problem.nv, dtype=float)
    grad_obj[0] = 1.0
    return float(z[0]), values, grad_obj, jac
