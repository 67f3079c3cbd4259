"""Assembly and evaluation of the per-iteration packing program.

One search iteration fixes which circles use Cartesian coordinates and
which use polar, limits how far each Cartesian centre may move, prunes
pairs that provably cannot collide, and hands the solver a smooth
inequality program in the canonical orientation g(z) >= 0.  The
structure stays in arrays throughout: the coordinate choice is a bool
mask, True where a circle is polar, and prune_pairs returns the kept
circle pairs and (circle, disk) clearances as (q, 2) and (c, 2) index
arrays, which build_nlp takes as they are.

Variable layout: the common radius first, then (x, y) per Cartesian
circle in index order, then (r, theta) per polar circle in index order.
Slot k of that circle order owns variables 1 + 2k and 2 + 2k.  Movement
limits fold into the variable bounds, so the nonlinear constraints are
exactly three families: containment in the unit disk, separation of
circle pairs, and clearance from prohibited disks.

The coordinate choice is a change of variables and nothing more.  Each
evaluation builds one complex point array: the n slot centres, x + iy
for Cartesian slots and r e^{i theta} for polar ones, then the origin,
then the centre of the disk of each clearance row.  Every row but one
kind is then a single form over two entries a and b of that array:

    g = sign * (|p_a - p_b|^2 - (alpha + beta*R)^2)

    containment (Cartesian)  b = origin   alpha = 1    beta = -1  sign = -1
    separation               b = slot     alpha = 0    beta = 2   sign = +1
    clearance                b = disk     alpha = r_f  beta = 1   sign = +1

so one gather d = p_a - p_b serves every row's value and derivatives.
The weighted partials 2*sign*w*d are summed per slot by one np.bincount
over interleaved (x, y) targets, end a with its weight and end b (a slot
only in separation rows) with the weight negated, straight into the
variable layout.  A polar slot's sum g = (gx, gy) is then pulled back to
(Re(g e^{-i theta}), r Im(g e^{-i theta})).  Polar containment is the one
exception: it keeps its linear form 1 - R - r, which is exact and,
unlike 1 - R - |(x, y)|, smooth at the origin.

Every row also has an identity that outlives the program: row_ids
numbers containment of circle i as i, the pair {i, j} (i < j) as
n + i*n + j, and clearance of circle i from disk f as n + n^2 + i*k + f,
with k prohibited disks.  Rows of two programs for the same n and
instance that share an id are the same geometric constraint, whatever
the coordinate choice or pruning.  The ids are all the program keeps of
which circles a row joins: NlpProblem.row_tag decodes one into the
row's family and circles, for diagnostics.  multiplier_factors gives
each row's dg/dh, with h the row's slack in distance units:
2*(alpha + beta*R) on the squared rows and 1 on the linear polar
containment.  A multiplier times its factor is the multiplier of the
distance-unit constraint, which does not depend on the row's form;
distance_multipliers and row_multipliers map between the two.

Finiteness is checked once per use.  constraint_values raises
EvaluationError naming the family and circles of the first non-finite
row; the merit function leaves the check to its caller, whose single
test of the merit value and gradient suffices (see
NlpProblem.augmented_lagrangian).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Instance, Layout, TWO_PI

ROOT2 = math.sqrt(2.0)

# Constraint family ids, as NlpProblem.row_tag names them.
FAMILY_CONTAINMENT = "containment"
FAMILY_PAIR = "pair"
FAMILY_PROHIBITED = "prohibited"


def row_id_count(n: int, k: int) -> int:
    """Size of the row id space for n circles and k prohibited disks."""
    return n + n * n + n * k


class EvaluationError(RuntimeError):
    """Raised when a constraint evaluates to a non-finite value."""


def _check_inputs(polar: np.ndarray, n: int, delta: float, r_cap: float) -> np.ndarray:
    """The polar mask as an array, after checking it and the box sizes.

    An integer array would index circles instead of masking them, so the
    mask must be bool, one entry per circle.  NaN fails every comparison,
    so the box sizes are tested by what they must be.
    """
    polar = np.asarray(polar)
    if polar.dtype != bool or polar.shape != (n,):
        raise ValueError(
            f"polar must be a bool mask of shape ({n},), got {polar.dtype} of shape {polar.shape}"
        )
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not r_cap >= 0.0:
        raise ValueError(f"r_cap must be nonnegative, got {r_cap}")
    return polar


def prune_pairs(
    current: Layout,
    polar: np.ndarray,
    delta: float,
    r_cap: float,
    instance: Instance,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop pairs that cannot collide under the movement limits.

    A Cartesian centre moves at most sqrt(2)*delta from its box centre,
    so a Cartesian pair further apart than 2*r_cap + 2*sqrt(2)*delta can
    never touch, and a Cartesian circle further than r_cap + R_f +
    sqrt(2)*delta from a prohibited disk can never reach it.  Polar
    circles (True in the mask) are unboxed, so every pair touching one is
    kept.

    Returns the kept circle pairs (i, j), i < j, in np.triu_indices order,
    and the kept clearances (circle, disk) in row-major order, as intp
    arrays of shape (q, 2) and (c, 2).
    """
    pts = current.centers
    in_cart = ~_check_inputs(polar, pts.shape[0], delta, r_cap)
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    dist = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
    prunable = in_cart[iu] & in_cart[ju] & (dist - 2.0 * ROOT2 * delta >= 2.0 * r_cap)
    circle_pairs = np.column_stack((iu[~prunable], ju[~prunable]))

    fc = instance.prohibited_centers()
    d = np.hypot(pts[:, None, 0] - fc[None, :, 0], pts[:, None, 1] - fc[None, :, 1])
    prunable = in_cart[:, None] & (d - ROOT2 * delta >= r_cap + instance.prohibited_radii())
    return circle_pairs, np.argwhere(~prunable)


class NlpProblem:
    """One smooth inequality program: maximise the common radius.

    Built by build_nlp.  Public data: n, nv, m, lower, upper, polar (the
    bool mask, True where a circle is polar), row_ids (see row_tag),
    var_a, var_b (index of each circle's first and second variable).
    Rows come in family order: containment for every circle in slot
    order, then one separation row per retained circle pair, then one
    clearance row per retained (circle, prohibited disk) pair.
    """

    def __init__(
        self,
        instance: Instance,
        polar: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        circle_pairs: np.ndarray,
        clearances: np.ndarray,
    ) -> None:
        self.polar = polar
        self.lower = lower
        self.upper = upper
        self.n = n = len(polar)
        self.nv = 2 * n + 1
        self._k = k = instance.f_count
        self._nc = nc = n - int(np.count_nonzero(polar))
        self._order = np.concatenate((np.flatnonzero(~polar), np.flatnonzero(polar)))
        slot = np.empty(n, dtype=np.intp)
        slot[self._order] = np.arange(n)
        self.var_a = 1 + 2 * slot
        self.var_b = 2 + 2 * slot

        # Row ids as the module docstring numbers them; row_tag decodes them.
        circle, f = clearances.T
        low, high = np.sort(circle_pairs, axis=1).T
        self.row_ids = np.concatenate(
            (self._order, n + low * n + high, n + n * n + circle * k + f)
        )
        self.m = m = len(self.row_ids)

        # The point array after the n slot centres: the origin, then the
        # disk of each clearance row, as interleaved (x, y).
        self._fixed = np.concatenate(([0.0, 0.0], instance.prohibited_centers()[f].ravel()))

        # Ends a and b of every row, and its alpha, beta and sign.  A polar
        # containment row has a = b and sign 0, so the row form gives it
        # no value and no centre partial; it is the linear 1 - R - r.
        q, slots = len(circle_pairs), np.arange(n)
        self._ia = np.concatenate((slots, slot[circle_pairs[:, 0]], slot[circle]))
        self._ib = np.concatenate(
            (np.full(nc, n), slots[nc:], slot[circle_pairs[:, 1]], n + 1 + np.arange(m - n - q))
        )
        self._alpha = np.concatenate((np.ones(n), np.zeros(q), instance.prohibited_radii()[f]))
        self._beta = np.concatenate(
            (np.full(nc, -1.0), np.zeros(n - nc), np.full(q, 2.0), np.ones(m - n - q))
        )
        self._sign = np.concatenate((np.full(nc, -1.0), np.zeros(n - nc), np.ones(m - n)))
        # dg/dR = _radius_slope * (alpha + beta*R), and -dg/dp_a = _pull * d.
        self._radius_slope = -2.0 * self._sign * self._beta
        self._radius_slope[nc:n] = -1.0
        self._pull = -2.0 * self._sign

        # Scatter targets of the interleaved row partials: (x, y) of end a
        # for every row, then of end b for the pair rows, the only rows
        # whose end b is a slot.  Offset by one for the radius.
        self._pair_part = slice(2 * n, 2 * (n + q))
        ends = np.concatenate((self._ia, self._ib[n : n + q]))
        self._scatter = np.column_stack((1 + 2 * ends, 2 + 2 * ends)).ravel()

    # -- evaluation -----------------------------------------------------

    def _points(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The complex point array at z, and e^{i theta} per polar slot."""
        n, nc = self.n, self._nc
        pts = np.concatenate((z[1:], self._fixed)).view(complex)
        turn = np.exp(1j * z[2 + 2 * nc :: 2])
        pts[nc:n] = z[1 + 2 * nc :: 2] * turn
        return pts, turn

    def _rows(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row d = p_a - p_b and alpha + beta*R, and the polar turns."""
        pts, turn = self._points(z)
        return pts[self._ia] - pts[self._ib], self._alpha + self._beta * z[0], turn

    def _values(self, z: np.ndarray, d: np.ndarray, rad: np.ndarray) -> np.ndarray:
        nc, n = self._nc, self.n
        values = self._sign * ((d * d.conj()).real - rad * rad)
        values[nc:n] = (1.0 - z[0]) - z[1 + 2 * nc :: 2]
        return values

    def _violations(self, z: np.ndarray, d: np.ndarray, rad: np.ndarray) -> np.ndarray:
        nc, n = self._nc, self.n
        out = self._sign * (rad - np.abs(d))
        out[nc:n] = z[1 + 2 * nc :: 2] + z[0] - 1.0
        return out

    def _spread(self, partials: np.ndarray) -> np.ndarray:
        """Interleaved scatter weights: each row's partial at end a, negated at end b."""
        flat = partials.view(float)
        return np.concatenate((flat, -flat[self._pair_part]))

    def _pull_back(self, out: np.ndarray, turn: np.ndarray, z: np.ndarray) -> None:
        """Turn Cartesian partials into variable partials, in place.

        The last axis of out has the variable layout.  A polar slot's
        partial g = (gx, gy) by its centre becomes (Re(g e^{-i theta}),
        r Im(g e^{-i theta})) by (r, theta); Cartesian slots map by the
        identity.
        """
        nc = self._nc
        rotated = out[..., 1 + 2 * nc :].view(complex) * turn.conj()
        out[..., 1 + 2 * nc :: 2] = rotated.real
        out[..., 2 + 2 * nc :: 2] = z[1 + 2 * nc :: 2] * rotated.imag

    def _gradient(
        self, z: np.ndarray, d: np.ndarray, rad: np.ndarray, turn: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Gradient of -R - weights @ g, from the gathered rows at z."""
        nc = self._nc
        # bincount of nothing (n = 0) is an integer array.
        grad = np.bincount(
            self._scatter, weights=self._spread((weights * self._pull) * d), minlength=self.nv
        ).astype(float, copy=False)
        grad[0] = -1.0 - weights @ (self._radius_slope * rad)
        self._pull_back(grad, turn, z)
        grad[1 + 2 * nc :: 2] += weights[nc : self.n]
        return grad

    def row_tag(self, row: int) -> tuple[str, tuple[int, ...]]:
        """Family and circles of a row, decoded from its id.

        (containment, (i,)), (pair, (i, j)) with i < j, or (prohibited,
        (i, f)) for circle i and prohibited disk f.
        """
        n, row_id = self.n, int(self.row_ids[row])
        if row_id < n:
            return FAMILY_CONTAINMENT, (row_id,)
        if row_id < n + n * n:
            return FAMILY_PAIR, divmod(row_id - n, n)
        return FAMILY_PROHIBITED, divmod(row_id - n - n * n, self._k)

    def _require_finite(self, row_ok: np.ndarray, what: str) -> None:
        if not row_ok.all():
            family, who = self.row_tag(int(np.argmin(row_ok)))
            raise EvaluationError(
                f"non-finite {what} in {family} family constraint for indices {who}"
            )

    def constraint_values(self, z: np.ndarray) -> np.ndarray:
        """All constraint values g(z) in canonical order."""
        d, rad, _ = self._rows(z)
        values = self._values(z, d, rad)
        self._require_finite(np.isfinite(values), "value")
        return values

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Dense constraint jacobian, rows in canonical order."""
        d, rad, turn = self._rows(z)
        nc, n = self._nc, self.n
        out = np.zeros((self.m, self.nv), dtype=float)
        out[:, 0] = self._radius_slope * rad
        rows = np.repeat(np.arange(self.m), 2)
        rows = np.concatenate((rows, rows[self._pair_part]))
        out[rows, self._scatter] = self._spread(-self._pull * d)
        self._pull_back(out, turn, z)
        polar = np.arange(nc, n)
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
        NaN.  A polar theta that is not finite makes e^{i theta} NaN, and
        with it the r entry of the gradient, Re(g e^{-i theta}), since
        NaN times 0 is NaN.  A polar r that is not finite makes the theta
        entry r Im(g e^{-i theta}) infinite, or NaN where Im(...) is 0.
        tests/test_formulation.py::test_non_finite_variable_reaches_merit
        tries every variable.
        """
        d, rad, turn = self._rows(z)
        w = multipliers - penalty * self._values(z, d, rad)
        np.maximum(w, 0.0, out=w)
        value = -z[0] + (w @ w - multipliers @ multipliers) / (2.0 * penalty)
        return float(value), self._gradient(z, d, rad, turn, w)

    def lagrangian_gradient(self, z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """Gradient of -R - multipliers @ g at z."""
        return self._gradient(z, *self._rows(z), multipliers)

    def linear_violations(self, z: np.ndarray) -> np.ndarray:
        """Signed violations in distance units, canonical order.

        Positive means violated; this matches the verifier's semantics,
        unlike the raw squared constraint values.
        """
        d, rad, _ = self._rows(z)
        return self._violations(z, d, rad)

    def outer_update(
        self, z: np.ndarray, multipliers: np.ndarray, penalty: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What the solver needs after an outer round, from one gather.

        Returns g(z), the linear violations, the candidate multipliers
        max(0, multipliers - penalty*g) and the gradient of the Lagrangian
        at them: bit for bit what constraint_values, linear_violations
        and lagrangian_gradient give, with constraint_values' check.
        """
        d, rad, turn = self._rows(z)
        values = self._values(z, d, rad)
        self._require_finite(np.isfinite(values), "value")
        candidate = np.maximum(0.0, multipliers - penalty * values)
        gradient = self._gradient(z, d, rad, turn, candidate)
        return values, self._violations(z, d, rad), candidate, gradient

    def multiplier_factors(self, radius: float) -> np.ndarray:
        """dg/dh per row at R = radius, h the row's slack in distance units.

        2*(alpha + beta*R) on the squared rows, the derivative of
        |p_a - p_b|^2 - (alpha + beta*R)^2 by |p_a - p_b| where the row is
        active, and 1 on the linear polar containment.  It is 0 on pair
        rows at R = 0 and on Cartesian containment at R = 1.
        """
        factors = 2.0 * (self._alpha + self._beta * radius)
        factors[self._nc : self.n] = 1.0
        return factors

    def distance_multipliers(self, multipliers: np.ndarray, radius: float) -> np.ndarray:
        """Row multipliers at R = radius, re-expressed in distance units."""
        return multipliers * self.multiplier_factors(radius)

    def row_multipliers(self, distance: np.ndarray, radius: float) -> np.ndarray:
        """Inverse of distance_multipliers; 0 on rows whose factor is 0."""
        factors = self.multiplier_factors(radius)
        return np.divide(distance, factors, out=np.zeros(self.m), where=factors > 0.0)

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
        pts, _ = self._points(z)
        out = np.empty((self.n, 2), dtype=float)
        out[self._order] = pts[: self.n].view(float).reshape(-1, 2)
        return out


def build_nlp(
    instance: Instance,
    polar: np.ndarray,
    current: Layout,
    delta: float,
    pairs: tuple[np.ndarray, np.ndarray],
    r_cap: float,
) -> NlpProblem:
    """Assemble the program for one solve.

    polar is the bool mask of polar circles.  Movement limits apply to
    Cartesian circles only and are intersected with the container box
    [-1, 1]; polar circles get the full (r, theta) box.  pairs holds the
    retained circle pairs and (circle, disk) clearances, as prune_pairs
    returns them; they decide which separation and clearance constraints
    appear.
    """
    n = current.centers.shape[0]
    polar = _check_inputs(polar, n, delta, r_cap)
    circle_pairs, clearances = (np.asarray(p, dtype=np.intp).reshape(-1, 2) for p in pairs)
    i, j = circle_pairs.T
    bad = (np.minimum(i, j) < 0) | (np.maximum(i, j) >= n) | (i == j)
    if bad.any():
        i, j = circle_pairs[np.argmax(bad)]
        raise ValueError(f"pair ({i}, {j}) references circles outside the assignment")
    i, f = clearances.T
    bad = (i < 0) | (i >= n) | (f < 0) | (f >= instance.f_count)
    if bad.any():
        i, f = clearances[np.argmax(bad)]
        raise ValueError(f"pair ({i}, {f}) references an unknown circle or disk")

    # Bounds in the variable layout: (x, y) per Cartesian slot, then
    # (r, theta) per polar slot.
    boxed = current.centers[~polar]
    nc = len(boxed)
    lower = np.empty(2 * n + 1, dtype=float)
    upper = np.empty(2 * n + 1, dtype=float)
    lower[0], upper[0] = 0.0, r_cap
    lower[1 : 1 + 2 * nc] = np.maximum(-1.0, boxed - delta).ravel()
    upper[1 : 1 + 2 * nc] = np.minimum(1.0, boxed + delta).ravel()
    lower[1 + 2 * nc :] = 0.0
    upper[1 + 2 * nc :: 2] = 1.0
    upper[2 + 2 * nc :: 2] = TWO_PI
    return NlpProblem(instance, polar, lower, upper, circle_pairs, clearances)
