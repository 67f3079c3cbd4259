"""Assembly and evaluation of the per-iteration packing program.

One search iteration fixes which circles are boxed and which are free,
limits how far each boxed centre may move, prunes pairs that provably
cannot collide, and hands the solver a smooth inequality program in the
canonical orientation g(z) >= 0.  The structure stays in arrays
throughout: the choice is a bool mask, True where a circle is free, and
prune_pairs returns the kept circle pairs and (circle, disk) clearances
as (q, 2) and (c, 2) index arrays, which build_nlp takes as they are.

The mask descends from the source paper, which poses each circle in
Cartesian or polar coordinates.  Here every circle keeps Cartesian
(x, y), and a circle the paper would pose in polar is free: it has no
box.  Variable layout: the common radius first, then (x, y) of circle i
at 1 + 2i and 2 + 2i.  The bounds are exactly those prune_pairs relies
on: R in [0, r_cap], each boxed centre in its movement box c +- delta,
even past the container, which the containment rows hold, and a free
centre unbounded.  The mask changes the bounds and the pruning and
nothing else.  The nonlinear constraints are exactly three families:
containment in the unit disk, separation of circle pairs, and clearance
from prohibited disks.

Each evaluation views the variables as one complex point array: the n
centres x + iy, then the origin, then the centre of each prohibited disk
once.  Every row is then a single form over two entries a and b of that
array:

    g = sign * (|p_a - p_b|^2 - (alpha + beta*R)^2)

    containment   b = origin   alpha = 1    beta = -1  sign = -1
    separation    b = circle   alpha = 0    beta = 2   sign = +1
    clearance     b = disk     alpha = r_f  beta = 1   sign = +1

so one gather d = p_a - p_b serves every row's value and derivatives.
The weighted partials 2*sign*w*d are summed per circle by one
np.bincount over interleaved (x, y) targets, end a with its weight and
end b (a circle only in separation rows) with the weight negated,
straight into the variable layout.  Every row is a quadratic in the
centres and R, so the Hessian of the Lagrangian does not depend on the
point: NlpProblem.lagrangian_hessian sums each row's weighted -2*sign
onto the diagonal at the same targets, and its negation between the
two ends of a separation row, by one np.bincount into the flat matrix.

Every row also has an identity that outlives the program: row_ids
numbers containment of circle i as i, the pair {i, j} (i < j) as
n + i*n + j, and clearance of circle i from disk f as n + n^2 + i*k + f,
with k prohibited disks.  Rows of two programs for the same n and
instance that share an id are the same function of the centres,
whatever the mask or pruning, so a multiplier carries from one to the
other as it is.  The ids are all the program keeps of which circles a
row joins: NlpProblem.row_tag decodes one into the row's family and
circles, for diagnostics.

Finiteness is checked once per use.  constraint_values raises
EvaluationError naming the family and circles of the first non-finite
row; the merit function leaves the check to its caller, whose single
test of the merit value and gradient suffices (see
NlpProblem.augmented_lagrangian).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Instance, Layout

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


def _check_inputs(free: np.ndarray, n: int, delta: float, r_cap: float) -> np.ndarray:
    """The free mask as an array, after checking it and the box sizes.

    An integer array would index circles instead of masking them, so the
    mask must be bool, one entry per circle.  NaN fails every comparison,
    so the box sizes are tested by what they must be.
    """
    free = np.asarray(free)
    if free.dtype != bool or free.shape != (n,):
        raise ValueError(
            f"free must be a bool mask of shape ({n},), got {free.dtype} of shape {free.shape}"
        )
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not r_cap >= 0.0:
        raise ValueError(f"r_cap must be nonnegative, got {r_cap}")
    return free


def prune_pairs(
    current: Layout,
    free: np.ndarray,
    delta: float,
    r_cap: float,
    instance: Instance,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop pairs that cannot collide under the movement limits.

    A boxed centre moves at most sqrt(2)*delta from its box centre, so a
    boxed pair further apart than 2*r_cap + 2*sqrt(2)*delta can never
    touch, and a boxed circle further than r_cap + R_f + sqrt(2)*delta
    from a prohibited disk can never reach it.  Free circles (True in the
    mask) are unboxed, so every pair touching one is kept.

    Returns the kept circle pairs (i, j), i < j, in np.triu_indices order,
    and the kept clearances (circle, disk) in row-major order, as intp
    arrays of shape (q, 2) and (c, 2).
    """
    pts = current.centers
    boxed = ~_check_inputs(free, pts.shape[0], delta, r_cap)
    iu, ju = np.triu_indices(pts.shape[0], k=1)
    dist = np.hypot(pts[iu, 0] - pts[ju, 0], pts[iu, 1] - pts[ju, 1])
    prunable = boxed[iu] & boxed[ju] & (dist - 2.0 * ROOT2 * delta >= 2.0 * r_cap)
    circle_pairs = np.column_stack((iu[~prunable], ju[~prunable]))

    fc = instance.prohibited_centers()
    d = np.hypot(pts[:, None, 0] - fc[None, :, 0], pts[:, None, 1] - fc[None, :, 1])
    prunable = boxed[:, None] & (d - ROOT2 * delta >= r_cap + instance.prohibited_radii())
    return circle_pairs, np.argwhere(~prunable)


class NlpProblem:
    """One smooth inequality program: maximise the common radius.

    Built by build_nlp.  Public data: n, nv, m, lower, upper, row_ids (see
    row_tag).  Rows come in family order: containment for every circle in
    index order, then one separation row per retained circle pair, then
    one clearance row per retained (circle, prohibited disk) pair.
    """

    def __init__(
        self,
        instance: Instance,
        lower: np.ndarray,
        upper: np.ndarray,
        circle_pairs: np.ndarray,
        clearances: np.ndarray,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.nv = len(lower)
        self.n = n = self.nv // 2
        self._k = k = instance.f_count

        # Row ids as the module docstring numbers them; row_tag decodes them.
        circle, f = clearances.T
        low, high = np.sort(circle_pairs, axis=1).T
        self.row_ids = np.concatenate(
            (np.arange(n), n + low * n + high, n + n * n + circle * k + f)
        )
        self.m = m = len(self.row_ids)

        # The point array after the n centres: the origin, then each disk
        # centre, as interleaved (x, y).
        self._fixed = np.concatenate(([0.0, 0.0], instance.prohibited_centers().ravel()))

        # Ends a and b of every row, and its alpha, beta and sign.
        q = len(circle_pairs)
        self._ia = np.concatenate((np.arange(n), circle_pairs[:, 0], circle))
        self._ib = np.concatenate((np.full(n, n), circle_pairs[:, 1], n + 1 + f))
        self._alpha = np.concatenate((np.ones(n), np.zeros(q), instance.prohibited_radii()[f]))
        self._beta = np.concatenate((np.full(n, -1.0), np.full(q, 2.0), np.ones(m - n - q)))
        self._sign = np.concatenate((np.full(n, -1.0), np.ones(m - n)))
        # dg/dR = _radius_slope * (alpha + beta*R), and -dg/dp_a = _pull * d.
        self._radius_slope = -2.0 * self._sign * self._beta
        self._pull = -2.0 * self._sign

        # Scatter targets of the interleaved row partials: (x, y) of end a
        # for every row, then of end b for the pair rows, the only rows
        # whose end b is a circle.  Offset by one for the radius.
        self._pair_part = slice(2 * n, 2 * (n + q))
        ends = np.concatenate((self._ia, self._ib[n : n + q]))
        self._scatter = np.column_stack((1 + 2 * ends, 2 + 2 * ends)).ravel()
        # Flat (row-major) Hessian entries the same partials land on: the
        # diagonal at every scatter target, then both off-diagonal blocks
        # (a, b) and (b, a) of the pair rows.
        nv = self.nv
        pair_a, pair_b = self._scatter[self._pair_part], self._scatter[2 * m :]
        self._hessian_index = np.concatenate(
            (self._scatter * (nv + 1), pair_a * nv + pair_b, pair_b * nv + pair_a)
        )

    # -- evaluation -----------------------------------------------------

    def _rows(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row d = p_a - p_b and alpha + beta*R."""
        pts = np.concatenate((z[1:], self._fixed)).view(complex)
        return pts[self._ia] - pts[self._ib], self._alpha + self._beta * z[0]

    def _values(self, d: np.ndarray, rad: np.ndarray) -> np.ndarray:
        return self._sign * ((d * d.conj()).real - rad * rad)

    def _violations(self, d: np.ndarray, rad: np.ndarray) -> np.ndarray:
        return self._sign * (rad - np.abs(d))

    def _spread(self, partials: np.ndarray) -> np.ndarray:
        """Interleaved scatter weights: each row's partial at end a, negated at end b."""
        flat = partials.view(float)
        return np.concatenate((flat, -flat[self._pair_part]))

    def _gradient(self, d: np.ndarray, rad: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Gradient of -R - weights @ g, from the gathered rows at z."""
        # bincount of nothing (n = 0) is an integer array.
        grad = np.bincount(
            self._scatter, weights=self._spread((weights * self._pull) * d), minlength=self.nv
        ).astype(float, copy=False)
        grad[0] = -1.0 - weights @ (self._radius_slope * rad)
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
        values = self._values(*self._rows(z))
        self._require_finite(np.isfinite(values), "value")
        return values

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        """Dense constraint jacobian, rows in canonical order."""
        d, rad = self._rows(z)
        out = np.zeros((self.m, self.nv), dtype=float)
        out[:, 0] = self._radius_slope * rad
        rows = np.repeat(np.arange(self.m), 2)
        rows = np.concatenate((rows, rows[self._pair_part]))
        out[rows, self._scatter] = self._spread(-self._pull * d)
        self._require_finite(np.isfinite(out).all(axis=1), "derivative")
        return out

    def augmented_lagrangian(
        self, z: np.ndarray, multipliers: np.ndarray, penalty: float
    ) -> tuple[float, np.ndarray]:
        """Value and gradient of the bound-constrained merit function.

        Minimising -R subject to g >= 0 turns into
        -R + (||max(0, lambda - rho*g)||^2 - ||lambda||^2) / (2*rho).

        Nothing here checks finiteness: the caller's one check of the
        value and gradient is enough.  R enters the value directly.  A
        non-finite coordinate, or a free one whose square overflows, makes
        its containment row infinite or NaN, and w = max(0, lambda -
        rho*g) carries that into the value as +inf or NaN.
        tests/test_formulation.py::test_non_finite_variable_reaches_merit
        tries every variable.
        """
        d, rad = self._rows(z)
        w = multipliers - penalty * self._values(d, rad)
        np.maximum(w, 0.0, out=w)
        value = -z[0] + (w @ w - multipliers @ multipliers) / (2.0 * penalty)
        return float(value), self._gradient(d, rad, w)

    def lagrangian_gradient(self, z: np.ndarray, multipliers: np.ndarray) -> np.ndarray:
        """Gradient of -R - multipliers @ g at z."""
        return self._gradient(*self._rows(z), multipliers)

    def lagrangian_hessian(self, multipliers: np.ndarray) -> np.ndarray:
        """Hessian of -R - multipliers @ g, as a dense (nv, nv) array.

        Every row is a quadratic in the centres and R, so the Hessian
        does not depend on the point: a row adds its weighted pull to the
        diagonal of both centre ends and subtracts it between them, and
        its radius slope times beta to the (R, R) entry.
        """
        c = np.repeat(multipliers * self._pull, 2)
        pair = c[self._pair_part]
        hessian = np.bincount(
            self._hessian_index,
            weights=np.concatenate((c, pair, -pair, -pair)),
            minlength=self.nv * self.nv,
        ).astype(float, copy=False)
        hessian[0] = -multipliers @ (self._radius_slope * self._beta)
        return hessian.reshape(self.nv, self.nv)

    def linear_violations(self, z: np.ndarray) -> np.ndarray:
        """Signed violations in distance units, canonical order.

        Positive means violated; this matches the verifier's semantics,
        unlike the raw squared constraint values.
        """
        return self._violations(*self._rows(z))

    def outer_update(
        self, z: np.ndarray, multipliers: np.ndarray, penalty: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """What the solver needs after an outer round, from one gather.

        Returns g(z), the linear violations, the candidate multipliers
        max(0, multipliers - penalty*g) and the gradient of the Lagrangian
        at them: bit for bit what constraint_values, linear_violations
        and lagrangian_gradient give, with constraint_values' check.
        """
        d, rad = self._rows(z)
        values = self._values(d, rad)
        self._require_finite(np.isfinite(values), "value")
        candidate = np.maximum(0.0, multipliers - penalty * values)
        gradient = self._gradient(d, rad, candidate)
        return values, self._violations(d, rad), candidate, gradient

    # -- layout glue ----------------------------------------------------

    def pack_start(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Start vector from the centres plus a radius guess."""
        return np.concatenate(([radius], centers.ravel()))

    def extract_centers(self, z: np.ndarray) -> np.ndarray:
        """The centres of all circles at the point z."""
        return z[1:].reshape(self.n, 2).copy()


def build_nlp(
    instance: Instance,
    free: np.ndarray,
    current: Layout,
    delta: float,
    pairs: tuple[np.ndarray, np.ndarray],
    r_cap: float,
) -> NlpProblem:
    """Assemble the program for one solve.

    free is the bool mask of unboxed circles.  R is bounded to [0, r_cap],
    each boxed centre c to the box c +- delta, and a free centre not at
    all.  pairs holds the retained circle pairs and (circle, disk)
    clearances, as prune_pairs returns them; they decide which separation
    and clearance constraints appear.
    """
    n = current.centers.shape[0]
    free = _check_inputs(free, n, delta, r_cap)
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

    # Bounds in the variable layout: R, then (x, y) per circle.
    centers = current.centers.ravel()
    half_width = np.where(np.repeat(free, 2), np.inf, delta)
    lower = np.concatenate(([0.0], centers - half_width))
    upper = np.concatenate(([r_cap], centers + half_width))
    return NlpProblem(instance, lower, upper, circle_pairs, clearances)
