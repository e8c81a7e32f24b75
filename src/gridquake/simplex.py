"""Dense bounded-variable revised simplex, with a crash start or two phases.

Solves   min c.x   s.t.  A x = b,  lower <= x <= upper.

A caller that knows a feasible basis passes it as a crash start (Bixby,
"Implementing the simplex method: the initial basis", 1992): the shedding
LP is solved one energized island at a time, and an island that must shed
passes the basis of its all-shed point (an island whose all-served point
passes `feasible_start` is optimal there and never gets here). If the start
is nonsingular and primal feasible, phase 2 runs from it directly.
Otherwise, and for every LP without a start, phase 1 first finds a feasible
basis from one artificial per row.

Sized for distribution feeders (hundreds of rows). Each phase keeps an
explicit inverse of the basis matrix: it is computed afresh when the phase
starts and after every _REFACTOR_EVERY basis changes, and between those it
is carried by one rank-one (eta) update per basis change, so an iteration
costs O(m^2 + m n) in matrix-vector products instead of three dense solves
(Chvatal, Linear Programming, ch. 24). The returned point is solved afresh
on the final basis, so it depends on that basis alone, not on the rounding
of the path to it. Pricing is Dantzig (the largest reduced-cost violation,
ties within _TOL going to the lowest column index, so that the vertex does
not depend on how the BLAS rounds) with a permanent switch to Bland's rule
once the objective stalls, which guards against cycling on degenerate bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalError, LimitError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

# Basis changes between fresh inversions of the basis matrix. The eta
# updates in between each add a little rounding; refactoring bounds it.
_REFACTOR_EVERY = 64

# Feasibility, pricing and ratio-test tolerance.
_TOL = 1e-9


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int
    # Solver counters for diagnostics: start ("crash" if phase 2 ran from
    # the caller's start, else "phase1"), phase1_iterations,
    # phase2_iterations, bland (the anti-cycling switch fired) and
    # refactorizations (fresh basis inversions). Never written to an
    # artifact.
    stats: dict = field(default_factory=dict)


def solve_lp(
    c, A, b, lower, upper,
    max_iter: int | None = None,
    start: tuple | None = None,
) -> LpResult:
    """Simplex for equality-constrained LPs with box bounds.

    All bounds must satisfy lower <= upper; +/-inf entries are allowed on at
    most one side of each variable. Raises LimitError if the iteration cap is
    hit (diagnostic: the problem size and phase are in the message).

    `start` is an optional crash basis (basis, at_upper): `basis` names the
    basic column of each row, and `at_upper` (one bool per column) puts a
    nonbasic column at its upper bound instead of its lower. Phase 2 runs
    from it if it is nonsingular and primal feasible within `_TOL`; if not,
    phase 1 runs as without it.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    if A.ndim != 2:
        raise InternalError("A must be a 2-d array")
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,) or lower.shape != (n,) or upper.shape != (n,):
        raise InternalError("inconsistent LP dimensions")
    if np.any(lower > upper + _TOL):
        raise InternalError("lower bound exceeds upper bound")
    if np.any(np.isinf(lower) & np.isinf(upper)):
        raise InternalError("free variables (both bounds infinite) unsupported")

    if max_iter is None:
        max_iter = 200 * (n + m) + 1000

    stats = {"start": "phase1", "phase1_iterations": 0,
             "phase2_iterations": 0, "bland": False, "refactorizations": 0}
    if start is not None:
        basis, status, Binv = _crash_start(A, b, lower, upper, start)
        if Binv is not None:
            stats["start"] = "crash"
            stats["refactorizations"] = 1
            it2, _ = _simplex_core(c, A, b, lower, upper, basis, status,
                                   max_iter, allowed=n, stats=stats,
                                   Binv=Binv)
            stats["phase2_iterations"] = it2
            return _optimal(c, A, b, lower, upper, basis, status, n, it2,
                            stats)

    # start each structural variable at a finite bound
    x0 = np.where(np.isfinite(lower), lower, upper)
    resid = b - A @ x0

    # artificials: one per row, signed so their start value is nonnegative
    sign = np.where(resid >= 0, 1.0, -1.0)
    A1 = np.hstack([A, np.diag(sign)])
    lo1 = np.concatenate([lower, np.zeros(m)])
    hi1 = np.concatenate([upper, np.full(m, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])

    status = np.empty(n + m, dtype=int)
    status[:n] = np.where(np.isfinite(lower), _AT_LOWER, _AT_UPPER)
    status[n:] = _BASIC
    basis = np.arange(n, n + m)

    it1, obj1 = _simplex_core(c1, A1, b, lo1, hi1, basis, status, max_iter,
                              allowed=n + m, stats=stats)
    stats["phase1_iterations"] = it1
    if obj1 > _TOL * max(1.0, np.abs(b).sum()):
        return LpResult(status=INFEASIBLE, x=None, objective=None,
                        iterations=it1, stats=stats)

    # lock artificials at zero for phase 2 (they may linger in the basis on
    # redundant rows, pinned to the [0, 0] box)
    lo1[n:] = 0.0
    hi1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])

    it2, _ = _simplex_core(c2, A1, b, lo1, hi1, basis, status, max_iter,
                           allowed=n, stats=stats)
    stats["phase2_iterations"] = it2
    return _optimal(c2, A1, b, lo1, hi1, basis, status, n, it1 + it2, stats)


def _crash_start(A, b, lo, hi, start):
    """(basis, status, basis inverse) of a crash start; the inverse is None
    if the start is singular or not primal feasible within _TOL."""
    m, n = A.shape
    basis, at_upper = (np.asarray(a) for a in start)
    if (basis.shape != (m,) or at_upper.shape != (n,)
            or np.any((basis < 0) | (basis >= n))):
        raise InternalError("start must give one basic column per row and "
                            "one bound per column")
    basis = basis.astype(int)
    status = np.where(at_upper, _AT_UPPER, _AT_LOWER)
    status[basis] = _BASIC
    x = np.where(status == _AT_UPPER, hi, lo)
    x[basis] = 0.0
    if np.unique(basis).size != m or not np.all(np.isfinite(x)):
        return basis, status, None
    B = A[:, basis]
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return basis, status, None
    rhs = b - A @ x
    if not feasible_start(B, Binv @ rhs, rhs, lo[basis], hi[basis]):
        return basis, status, None
    return basis, status, Binv


def feasible_start(B, xb, rhs, lo, hi) -> bool:
    """Whether the basic values `xb`, solved from B xb = rhs, are a start
    that phase 2 may run from: finite, reproducing rhs to within _TOL of
    its scale, and inside [lo, hi] to within _TOL. A numerically singular
    B solves or inverts without error, but its xb does not reproduce the
    right-hand side."""
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    return bool(np.all(np.isfinite(xb))
                and np.all(np.abs(B @ xb - rhs) <= _TOL * scale)
                and np.all(xb >= lo - _TOL)
                and np.all(xb <= hi + _TOL))


def _optimal(c, A, b, lo, hi, basis, status, n, iterations, stats):
    x = _current_point(A, b, lo, hi, basis, status)
    if np.any(np.isnan(x)):
        raise InternalError("simplex produced NaN solution")
    xs = x[:n]
    return LpResult(status=OPTIMAL, x=xs, objective=float(c[:n] @ xs),
                    iterations=iterations, stats=stats)


def _current_point(A, b, lo, hi, basis, status):
    x = np.where(status == _AT_UPPER, hi, lo)
    x[basis] = 0.0
    rhs = b - A @ x
    xb = np.linalg.solve(A[:, basis], rhs)
    x[basis] = xb
    return x


def _invert_basis(A, basis, it):
    try:
        return np.linalg.inv(A[:, basis])
    except np.linalg.LinAlgError as e:
        raise InternalError(f"singular basis at iteration {it}: {e}") from e


def _simplex_core(c, A, b, lo, hi, basis, status, max_iter, allowed, stats,
                  Binv=None):
    """Run simplex iterations in place on (basis, status).

    `allowed` limits entering candidates to the first `allowed` columns, which
    keeps locked artificials out of phase-2 pricing. `Binv` is the inverse of
    the starting basis if the caller already has it. Counts refactorizations
    and the Bland switch into `stats`. Returns (iterations, final objective).
    """
    m = A.shape[0]
    bland = False
    stall = 0
    last_obj = np.inf
    if Binv is None:
        Binv = _invert_basis(A, basis, 0)
        stats["refactorizations"] += 1
    changes = 0
    # kept with `status`: each column's value, basic ones at 0, and its
    # reduced cost d's sign that makes it eligible when sign * d < -_TOL
    # (+1 at a lower bound, -1 at an upper one, 0 if basic or not allowed)
    x_nb = np.where(status == _AT_UPPER, hi, lo)
    x_nb[basis] = 0.0
    sign = np.where(status == _AT_LOWER, 1.0,
                    np.where(status == _AT_UPPER, -1.0, 0.0))
    sign[allowed:] = 0.0

    for it in range(max_iter):
        xb = Binv @ (b - A @ x_nb)
        x = x_nb.copy()
        x[basis] = xb

        obj = float(c @ x)
        if obj < last_obj - _TOL:
            stall = 0
        else:
            stall += 1
            if stall > 2 * (m + allowed):
                bland = stats["bland"] = True
        last_obj = obj

        y = c[basis] @ Binv
        d = c - y @ A  # reduced costs

        idx = np.flatnonzero(sign * d < -_TOL)
        if idx.size == 0:
            return it, obj

        # Dantzig takes the largest |d|, and of those within _TOL of it the
        # lowest index: reduced costs that tie in exact arithmetic are
        # ordered by how y @ A rounded, which the BLAS's threading decides
        if bland or idx.size == 1:
            j = int(idx[0])
        else:
            size = np.abs(d[idx])
            j = int(idx[np.argmax(size >= size.max() - _TOL)])

        # direction of basic variables as x_j moves by +t (from lower) or
        # -t (from upper); fold the sign in so t >= 0 either way
        alpha = Binv @ A[:, j]
        w = alpha * (1.0 if status[j] == _AT_LOWER else -1.0)

        # ratio test over the rows that move; a falling basic stops at its
        # lower bound, a rising one at its upper, and (xb - bound) / w is
        # the step to it either way. Rows are visited in order: a step
        # within _TOL of the best goes to the lower basis index.
        rows = np.flatnonzero(np.abs(w) > _TOL)
        movers = basis[rows]
        falling = w[rows] > 0
        bound = np.where(falling, lo[movers], hi[movers])
        steps = (xb[rows] - bound) / w[rows]
        t_best = hi[j] - lo[j]  # bound-to-bound flip
        leave = -1
        leave_var = -1
        leave_to = _AT_LOWER
        for i, var, t, fall in zip(rows.tolist(), movers.tolist(),
                                   steps.tolist(), falling.tolist()):
            if t < t_best - _TOL or (t < t_best + _TOL and leave >= 0
                                    and var < leave_var):
                t_best, leave, leave_var = t, i, var
                leave_to = _AT_LOWER if fall else _AT_UPPER

        if not np.isfinite(t_best):
            raise InternalError("LP unbounded along entering variable "
                                f"{j} at iteration {it}")

        if leave < 0:
            # entering variable runs to its opposite bound
            status[j] = _AT_UPPER if status[j] == _AT_LOWER else _AT_LOWER
            x_nb[j] = hi[j] if status[j] == _AT_UPPER else lo[j]
            sign[j] = -sign[j]
            continue

        status[leave_var] = leave_to
        x_nb[leave_var] = (hi if leave_to == _AT_UPPER else lo)[leave_var]
        if leave_var < allowed:
            sign[leave_var] = 1.0 if leave_to == _AT_LOWER else -1.0
        basis[leave] = j
        status[j] = _BASIC
        x_nb[j] = sign[j] = 0.0
        changes += 1
        if changes % _REFACTOR_EVERY == 0:
            Binv = _invert_basis(A, basis, it)
            stats["refactorizations"] += 1
        else:
            # eta update: column `leave` of the basis becomes A[:, j]. Rows
            # where alpha is zero keep their values, and on feeder LPs most
            # are, so only the others are touched.
            pivot_row = Binv[leave] / alpha[leave]
            moved = np.flatnonzero(alpha)
            Binv[moved] -= np.outer(alpha[moved], pivot_row)
            Binv[leave] = pivot_row

    raise LimitError(
        f"simplex iteration cap {max_iter} hit on {m}x{allowed} problem"
    )
