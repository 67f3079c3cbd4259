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
  a row that leaves the objective unmoved ends the solve.

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
L-BFGS-B is handed them as two callbacks: `fun` evaluates and keeps the
gradient, keyed by the bytes of its point, and `jac` returns it when
asked at that same point.  At any other point `jac` evaluates afresh, so
the result never depends on the order in which scipy calls the two.  The
key is reset whenever the multipliers or the penalty change.

The solver is deterministic: identical problem, start and multipliers
give a bit-identical result.

scipy.optimize is imported on the first solve (`load_optimizer`), not
with this module.  Correcting, verifying, saving and rendering a layout
never run the optimiser, and without this scipy.optimize would be most
of the cost of `import fsspack`: about 0.6 s and 45 MB on a 2-core VM.
`solve` reaches scipy's minimiser only through the module-level
`minimize`, by its global name, once per outer round, so a tracer or a
test can replace it with `setattr(solver, "minimize", ...)`.
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


def load_optimizer():
    """scipy.optimize, imported on the first call."""
    import scipy.optimize

    return scipy.optimize


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, loaded on the first call."""
    return load_optimizer().minimize(fun, x0, **options)


class _NonFiniteMerit(RuntimeError):
    pass


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
        used, and the multipliers accepted last.

    Notes
    -----
    Status ``iteration_limit`` also covers points that are feasible but
    stalled at the arithmetic floor: when the objective stops moving the
    loop exits early rather than burning the remaining outer rounds.
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

    def merit(point: np.ndarray) -> float:
        nonlocal stash, merit_calls
        # The only finiteness check of a merit evaluation; the docstring of
        # NlpProblem.augmented_lagrangian says why it catches every case.
        merit_calls += 1
        value, grad = problem.augmented_lagrangian(point, multipliers, penalty)
        if not (math.isfinite(value) and np.isfinite(grad).all()):
            raise _NonFiniteMerit
        stash = (point.tobytes(), grad)
        return value

    def merit_grad(point: np.ndarray) -> np.ndarray:
        if point.tobytes() != stash[0]:
            merit(point)
        return stash[1]

    status = ITERATION_LIMIT
    violation = float("inf")
    outer_used = _MAX_OUTER
    previous_objective = float("inf")
    stalled_rounds = 0

    for outer in range(1, _MAX_OUTER + 1):
        # The gradient of the last merit call, keyed by the bytes of its
        # point; emptied because the multipliers or the penalty may differ.
        stash: tuple[bytes, np.ndarray] = (b"", np.empty(0))
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
        # The projected Lagrangian gradient and the complementarity.  A
        # multiplier carried onto a row gone slack can stay positive, and
        # hold the gradient stationary short of the optimum.
        projected = z - np.clip(z - grad_lag, lower, upper)
        complementarity = np.minimum(values, candidate_multipliers)
        stationarity = float(np.max(np.abs(np.concatenate((projected, complementarity)))))

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
