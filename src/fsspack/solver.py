"""Local maximiser for the packing program.

An augmented Lagrangian outer loop turns the inequality-constrained
program into a sequence of smooth bound-constrained problems, each
minimised with L-BFGS-B.  Only first derivatives are used.  Multipliers
follow the classic max(0, lambda - rho*g) update; the penalty grows only
when a round misses its feasibility target, as in the usual two-track
tolerance schedule.  Infeasible starts are fine: the merit function is
defined everywhere and the first outer rounds simply buy feasibility.

The schedule is fixed, as in the paper's search:

- at most 50 outer rounds, each an L-BFGS-B run of at most 500
  iterations (5000 merit calls);
- converged when the worst constraint violation, the projected
  Lagrangian gradient and the complementarity max |min(g, lambda)| are
  all at most 1e-8, at the candidate multipliers;
- penalty 10 at the start, multiplied by 10 whenever a round misses
  its feasibility target, and capped at 1e14; a third feasible round in
  a row that leaves the objective unmoved ends the solve;
- an active-set Newton polish ends the solve as soon as it succeeds.

The polish finishes a solve on its contact graph once the augmented
Lagrangian has found it (Birgin & Martinez, Optim. Methods Softw. 23
(2008) 177-195).  After every outer round the estimated active set is
the rows within 1e-3 of binding, in linear violation, at a positive
candidate multiplier.  When a round estimates the same set as the round
before, and that set has not been tried in this solve, `polish` takes
at most 10 Newton steps on the KKT equations of that set: the
Lagrangian gradient in the variables off their bounds and the active
rows, in those variables and the active multipliers.  Every row is a
quadratic in the centres and R, so the Hessian is constant
(NlpProblem.lagrangian_hessian), and each step is one least-squares
solve of a system at most about 43 square at n = 10.  The polished point
is accepted, and the solve ends converged, only if the equations hold
to 1e-14 in the inf-norm, the active multipliers are nonnegative, the
point is inside the bounds, no row is violated by more than 1e-13, the
point passes the CONVERGED test below, and R less the worst violation
is not below its value at the round's point.  Otherwise nothing
changes and the loop goes on as if no polish had been tried.  The
polish makes no merit call and calls no minimiser, so merit counts and
the one `minimize` call per outer round keep their meaning.

A solve may start from given multipliers, one finite nonnegative value
per row; None means zeros.  It returns the multipliers it accepted last,
and the number of merit calls it made.  The penalty always restarts at
its initial value, so a solve that had to grow it does not leave the
next one stiff.  The search (fsspack.engine) carries the returned
multipliers to its next solve by row id, as they are.  It starts cold,
from zeros, on its first solve, after a numerical failure, and after an
iteration whose corrected radius is 0.

After each outer round one gather gives the constraint values, the
violations and the Lagrangian gradient at the candidate multipliers
(NlpProblem.outer_update).

Each merit evaluation yields the value and the gradient together.
L-BFGS-B is handed them as two callbacks, `fun` and `jac`, over one
stash: the value and the gradient of the last evaluation, keyed by the
bytes of its point.  Either callback asked at that same point answers
from the stash; at any other point it evaluates afresh, so the result
never depends on the order in which scipy calls the two.  The stash is
emptied whenever the multipliers or the penalty change.

Most outer rounds of a warm search start at a point L-BFGS-B would not
move: its first test, projected-gradient inf-norm at most `gtol`, passes
at the start, and scipy returns after one evaluation (Byrd, Lu, Nocedal
& Zhu, SIAM J. Sci. Comput. 16 (1995)).  `minimize` makes that test
itself, with the projection of L-BFGS-B's `projgr`, and answers such a
round without calling scipy.  At n = 10 scipy's set-up costs about
150 us a call on a 2-core VM, against about 17 us for the one merit
evaluation such a round needs.  Otherwise scipy runs as before, and its
first evaluation is served from the stash, so every point, multiplier
and merit count is the same either way.

The solver is deterministic: identical problem, start and multipliers
give a bit-identical result.  The polish's least-squares solves run in
the search's one-thread BLAS hold (fsspack.engine), so they do not
depend on the worker count either.

scipy.optimize is imported on the first solve (`load_optimizer`), not
with this module.  Correcting, verifying, saving and rendering a layout
never run the optimiser, and without this scipy.optimize would be most
of the cost of `import fsspack`: about 0.6 s and 45 MB on a 2-core VM.
`solve` calls the module-level `minimize` by its global name, once per
outer round, and reaches scipy's minimiser only through it, in the rounds
where L-BFGS-B can take a step.  A tracer or a test can replace it with
`setattr(solver, "minimize", ...)`; anything that calls
scipy.optimize.minimize in its place gives the same results.  `polish`
is looked up the same way, so a stand-in that returns None gives the
augmented-Lagrangian loop alone, bit for bit.
fsspack.engine calls `load_optimizer` before it scans for the BLAS
libraries to hold, because scipy brings an OpenBLAS of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formulation import EvaluationError, NlpProblem

CONVERGED = "converged"
ITERATION_LIMIT = "iteration_limit"
NUMERICAL_FAILURE = "numerical_failure"

_MAX_OUTER = 50
_MAX_INNER = 500
_KKT_TOL = 1e-8
_FEAS_TOL = 1e-8
_INITIAL_PENALTY = 10.0
_PENALTY_GROWTH = 10.0
# Penalty values past this point only add rounding noise.
_PENALTY_CAP = 1e14
# The active-set polish: rows within this linear violation, at a positive
# candidate multiplier, are the estimated active set; at most this many
# Newton steps; accepted at this KKT residual and this worst violation.
_ACTIVE_TOL = 1e-3
_POLISH_STEPS = 10
_POLISH_RESIDUAL = 1e-14
_POLISH_VIOLATION = 1e-13


@dataclass
class SolverResult:
    point: np.ndarray
    objective: float
    status: str
    max_constraint_violation: float
    outer_iterations: int
    # Last accepted multipliers, one per row of the problem.
    multipliers: np.ndarray
    merit_calls: int
    # Inner rounds that stopped at the _MAX_INNER iteration cap.
    capped_rounds: int
    # KKT residual at the point: the inf-norm of the projected Lagrangian
    # gradient and of the complementarity min(g, lambda), at the last
    # candidate multipliers or at the polished ones; inf when no outer
    # round completed.
    stationarity: float


def load_optimizer():
    """scipy.optimize, imported on the first call."""
    import scipy.optimize

    return scipy.optimize


def minimize(fun, x0, *, jac, bounds, options, **kwargs):
    """scipy.optimize.minimize, loaded on the first call, for the
    L-BFGS-B rounds of `solve`, unless the start already passes
    L-BFGS-B's first test.

    That test evaluates `fun` and `jac` at x0 and projects the gradient
    onto the bounds as L-BFGS-B's `projgr` does: max(x - u, g) where
    g < 0, min(x - l, g) where g >= 0.  An infinite bound leaves g as it
    is, as L-BFGS-B's bound codes do.  If the inf-norm is at most gtol,
    L-BFGS-B would stop there after one evaluation, and so does this.
    """
    optimize = load_optimizer()
    value = fun(x0)
    grad = jac(x0)
    projected = np.where(
        grad < 0.0, np.maximum(x0 - bounds.ub, grad), np.minimum(x0 - bounds.lb, grad)
    )
    if np.max(np.abs(projected), initial=0.0) <= options["gtol"]:
        return optimize.OptimizeResult(
            x=x0.copy(), fun=value, jac=grad, nit=0, nfev=1, njev=1, status=0,
            success=True, message="CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL",
        )
    return optimize.minimize(fun, x0, jac=jac, bounds=bounds, options=options, **kwargs)


class _NonFiniteMerit(RuntimeError):
    pass


def _kkt_residual(
    problem: NlpProblem, z: np.ndarray, values: np.ndarray, multipliers: np.ndarray,
    grad_lag: np.ndarray,
) -> float:
    """Inf-norm of the projected Lagrangian gradient and the complementarity.

    A multiplier carried onto a row gone slack can stay positive, and hold
    the gradient stationary short of the optimum; the complementarity
    term min(g, lambda) catches it.
    """
    projected = z - np.clip(z - grad_lag, problem.lower, problem.upper)
    complementarity = np.minimum(values, multipliers)
    return float(np.max(np.abs(np.concatenate((projected, complementarity)))))


def polish(
    problem: NlpProblem, z: np.ndarray, violation: float, multipliers: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """Newton's method on the KKT equations of an estimated active set.

    The unknowns are the variables strictly inside their bounds and the
    multipliers of the active rows, which start at `multipliers`; every
    other multiplier is 0 and every other variable stays where it is.
    The equations are the Lagrangian gradient in the unknown variables,
    -e0 - J_A' mu_A = 0, and g_A = 0.  Each step solves the KKT matrix
    [[H, -J_A'], [J_A, 0]] by least squares, which gives a rattler (a
    circle in no active row) and redundant contacts the minimum-norm
    step.

    `violation` is the worst violation at z.  Returns the point, the
    multipliers (0 off the active set), the worst violation and the KKT
    residual there, or None unless all of these hold: within
    _POLISH_STEPS steps the equations hold to _POLISH_RESIDUAL in the
    inf-norm; the active multipliers are nonnegative; the point is
    inside the bounds; no row is violated by more than _POLISH_VIOLATION;
    the KKT residual passes the loop's own CONVERGED test, which also
    checks the sign of the gradient at every variable on a bound; and R
    less the worst violation is not below its value at z.  A failed
    factorisation or a non-finite row counts as no.
    """
    lower, upper = problem.lower, problem.upper
    rows = np.flatnonzero(active)
    unknown = np.flatnonzero((z > lower) & (z < upper))
    point = z.copy()
    mu = np.zeros(problem.m)
    mu[rows] = multipliers[rows]
    zeros = np.zeros((len(rows), len(rows)))
    try:
        for step in range(_POLISH_STEPS + 1):
            residual = np.concatenate(
                (
                    problem.lagrangian_gradient(point, mu)[unknown],
                    problem.constraint_values(point)[rows],
                )
            )
            if np.max(np.abs(residual), initial=0.0) <= _POLISH_RESIDUAL:
                break
            if step == _POLISH_STEPS:
                return None
            jac = problem.jacobian(point)[np.ix_(rows, unknown)]
            hessian = problem.lagrangian_hessian(mu)[np.ix_(unknown, unknown)]
            kkt = np.block([[hessian, -jac.T], [jac, zeros]])
            newton = np.linalg.lstsq(kkt, -residual, rcond=None)[0]
            point[unknown] += newton[: len(unknown)]
            mu[rows] += newton[len(unknown) :]
        if (mu < 0.0).any() or not ((point >= lower) & (point <= upper)).all():
            return None
        values, violations, _, grad_lag = problem.outer_update(point, mu, 0.0)
    except (EvaluationError, FloatingPointError, np.linalg.LinAlgError):
        return None
    worst = float(np.max(violations, initial=0.0))
    stationarity = _kkt_residual(problem, point, values, mu, grad_lag)
    if (
        worst <= _POLISH_VIOLATION
        and stationarity <= _KKT_TOL
        and point[0] - worst >= z[0] - violation
    ):
        return point, mu, worst, stationarity
    return None


def _targets(penalty: float) -> tuple[float, float]:
    """Feasibility and stationarity targets for a freshly set penalty."""
    return max(penalty**-0.1, 0.1 * _FEAS_TOL), max(1.0 / penalty, 0.1 * _KKT_TOL)


def solve(
    problem: NlpProblem, start: np.ndarray, multipliers: np.ndarray | None = None
) -> SolverResult:
    """Maximise the common radius from the given start point.

    Parameters
    ----------
    problem : NlpProblem
        Program to solve; bounds and constraint families come from it.
    start : array
        Start vector, clamped into the variable bounds.
    multipliers : array, optional
        Starting multipliers, one finite nonnegative value per row in
        canonical order.  None means zeros.

    Returns
    -------
    SolverResult
        Final point, objective (the radius), status, worst constraint
        violation in distance units, outer iterations and merit calls
        used, the multipliers accepted last (a polished solve's are 0
        off its active set), and the KKT residual at the final point.

    Notes
    -----
    Status ``converged`` means the point passed the KKT test, after an
    outer round or after an accepted polish; ``iteration_limit`` means
    it did not, whether the outer rounds ran out or the stall exit
    ended the solve.  The stall exit covers points that are feasible
    but stalled at the arithmetic floor, and degenerate active sets
    that the polish could not finish: when the objective stops moving
    the loop exits early rather than burning the remaining outer rounds.
    """
    lower, upper = problem.lower, problem.upper
    # Check before clipping: np.clip would broadcast a scalar or a
    # length-1 start to the full shape.
    if np.shape(start) != (problem.nv,):
        raise ValueError(f"start must have shape ({problem.nv},), got {np.shape(start)}")
    z = np.clip(np.asarray(start, dtype=float), lower, upper)
    if multipliers is None:
        multipliers = np.zeros(problem.m, dtype=float)
    else:
        multipliers = np.array(multipliers, dtype=float)
        if multipliers.shape != (problem.m,):
            raise ValueError(
                f"multipliers must have shape ({problem.m},), got {multipliers.shape}"
            )
        if not (np.isfinite(multipliers).all() and (multipliers >= 0.0).all()):
            raise ValueError("multipliers must be finite and nonnegative")

    penalty = _INITIAL_PENALTY
    feas_target, stat_target = _targets(penalty)
    bounds = load_optimizer().Bounds(lower, upper)

    merit_calls = 0
    capped_rounds = 0

    def evaluate(point: np.ndarray) -> tuple[bytes, float, np.ndarray]:
        nonlocal stash, merit_calls
        key = point.tobytes()
        if key != stash[0]:
            # The only finiteness check of a merit evaluation; the docstring
            # of NlpProblem.augmented_lagrangian says why it catches every case.
            merit_calls += 1
            value, grad = problem.augmented_lagrangian(point, multipliers, penalty)
            if not (math.isfinite(value) and np.isfinite(grad).all()):
                raise _NonFiniteMerit
            stash = (key, value, grad)
        return stash

    def merit(point: np.ndarray) -> float:
        return evaluate(point)[1]

    def merit_grad(point: np.ndarray) -> np.ndarray:
        return evaluate(point)[2]

    status = ITERATION_LIMIT
    violation = float("inf")
    outer_used = _MAX_OUTER
    stationarity = math.inf
    previous_objective = float("inf")
    stalled_rounds = 0
    # The last round's estimated active set, and every set polished, as bytes.
    previous_active = None
    tried: set[bytes] = set()

    for outer in range(1, _MAX_OUTER + 1):
        # The value and gradient of the last merit call, keyed by the bytes
        # of its point; emptied because the multipliers or the penalty may
        # differ.
        stash: tuple[bytes, float, np.ndarray] = (b"", 0.0, np.empty(0))
        try:
            result = minimize(
                merit,
                z,
                jac=merit_grad,
                method="L-BFGS-B",
                bounds=bounds,
                options={
                    "maxiter": _MAX_INNER,
                    "maxfun": 10 * _MAX_INNER,
                    "ftol": 1e-14,
                    "gtol": stat_target,
                    "maxcor": 12,
                },
            )
            if result.nit >= _MAX_INNER:
                capped_rounds += 1
            candidate = np.clip(result.x, lower, upper)
            if not np.all(np.isfinite(candidate)):
                raise _NonFiniteMerit
        except (_NonFiniteMerit, EvaluationError, FloatingPointError, np.linalg.LinAlgError):
            status = NUMERICAL_FAILURE
            outer_used = outer
            break

        z = candidate
        values, violations, candidate_multipliers, grad_lag = problem.outer_update(
            z, multipliers, penalty
        )
        violation = float(np.max(violations, initial=0.0))
        stationarity = _kkt_residual(problem, z, values, candidate_multipliers, grad_lag)

        if violation <= max(feas_target, _FEAS_TOL):
            multipliers = candidate_multipliers
            if violation <= _FEAS_TOL and stationarity <= _KKT_TOL:
                status = CONVERGED
                outer_used = outer
                break
            feas_target = max(feas_target / penalty**0.9, 0.1 * _FEAS_TOL)
            stat_target = max(stat_target / penalty, 0.1 * _KKT_TOL)
        else:
            penalty = min(penalty * _PENALTY_GROWTH, _PENALTY_CAP)
            feas_target, stat_target = _targets(penalty)

        # Once two rounds in a row estimate the same active set, and it has
        # not been tried, Newton's method may finish the solve on it.
        active = (np.abs(violations) <= _ACTIVE_TOL) & (candidate_multipliers > 0.0)
        key = active.tobytes()
        if key == previous_active and key not in tried:
            tried.add(key)
            polished = polish(problem, z, violation, candidate_multipliers, active)
            if polished is not None:
                z, multipliers, violation, stationarity = polished
                status = CONVERGED
                outer_used = outer
                break
        previous_active = key

        # Degenerate active sets make the multiplier iteration cycle, so
        # the stationarity target can be unreachable in double precision.
        # Once feasible with a frozen objective, further rounds are noise:
        # a third such round in a row stops the solve, and any other round
        # resets the count.  The search corrects the radius of the exit
        # centres exactly, so the last digits of the violation buy nothing.
        if (
            violation <= _FEAS_TOL
            and abs(z[0] - previous_objective) <= 1e-8 * (1.0 + abs(z[0]))
        ):
            stalled_rounds += 1
        else:
            stalled_rounds = 0
        previous_objective = z[0]
        if stalled_rounds >= 3:
            outer_used = outer
            break

    if violation == float("inf"):
        # No inner round completed; report the start point's violation.
        violation = float(np.max(problem.linear_violations(z), initial=0.0))

    return SolverResult(
        point=z,
        objective=float(z[0]),
        status=status,
        max_constraint_violation=violation,
        outer_iterations=outer_used,
        multipliers=multipliers,
        merit_calls=merit_calls,
        capped_rounds=capped_rounds,
        stationarity=stationarity,
    )


def gradient_check(problem: NlpProblem, point: np.ndarray, step: float = 1e-6) -> float:
    """Worst relative error of the analytic derivatives at a point.

    Central differences where the bounds allow, one-sided otherwise.
    Covers the objective and every constraint; the error is relative to
    max(1, |analytic|, |numeric|) per entry.
    """
    z = np.asarray(point, dtype=float)
    if z.shape != (problem.nv,):
        raise ValueError(f"point must have shape ({problem.nv},), got {z.shape}")
    problem.constraint_values(z)  # raises EvaluationError on a non-finite row
    jac = problem.jacobian(z)
    worst = 0.0
    for j in range(problem.nv):
        up_ok = z[j] + step <= problem.upper[j]
        down_ok = z[j] - step >= problem.lower[j]
        zp = z.copy()
        zm = z.copy()
        if up_ok and down_ok:
            zp[j] += step
            zm[j] -= step
            span = 2.0 * step
        elif up_ok:
            zp[j] += step
            span = step
        else:
            zm[j] -= step
            span = step
        cons_diff = (problem.constraint_values(zp) - problem.constraint_values(zm)) / span
        obj_diff = (zp[0] - zm[0]) / span
        numeric = np.concatenate(([obj_diff], cons_diff))
        analytic = np.concatenate(([float(j == 0)], jac[:, j]))
        scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale, initial=0.0)))
    return worst
