"""Dense bounded-variable two-phase primal simplex.

Solves   min c.x   s.t.  A x = b,  lower <= x <= upper.

Small-scale by design (tens of rows): basis systems are solved directly with
numpy.linalg.solve every iteration, no factorization updates. Pricing is
Dantzig (most negative reduced cost) with a permanent switch to Bland's rule
once the objective stalls, which guards against cycling on degenerate bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, LimitError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int


def solve_lp(
    c, A, b, lower, upper,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> LpResult:
    """Two-phase simplex for equality-constrained LPs with box bounds.

    All bounds must satisfy lower <= upper; +/-inf entries are allowed on at
    most one side of each variable. Raises LimitError if the iteration cap is
    hit (diagnostic: the problem size and phase are in the message).
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
    if np.any(lower > upper + tol):
        raise InternalError("lower bound exceeds upper bound")
    if np.any(np.isinf(lower) & np.isinf(upper)):
        raise InternalError("free variables (both bounds infinite) unsupported")

    if max_iter is None:
        max_iter = 200 * (n + m) + 1000

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

    it1, obj1 = _simplex_core(c1, A1, b, lo1, hi1, basis, status, tol,
                              max_iter, allowed=n + m)
    if obj1 > tol * max(1.0, np.abs(b).sum()):
        return LpResult(status=INFEASIBLE, x=None, objective=None, iterations=it1)

    # lock artificials at zero for phase 2 (they may linger in the basis on
    # redundant rows, pinned to the [0, 0] box)
    lo1[n:] = 0.0
    hi1[n:] = 0.0
    c2 = np.concatenate([c, np.zeros(m)])

    it2, _ = _simplex_core(c2, A1, b, lo1, hi1, basis, status, tol,
                           max_iter, allowed=n)

    x = _current_point(A1, b, lo1, hi1, basis, status)
    if np.any(np.isnan(x)):
        raise InternalError("simplex produced NaN solution")
    xs = x[:n]
    return LpResult(status=OPTIMAL, x=xs, objective=float(c @ xs),
                    iterations=it1 + it2)


def _current_point(A, b, lo, hi, basis, status):
    x = np.where(status == _AT_UPPER, hi, lo)
    x[basis] = 0.0
    rhs = b - A @ x
    xb = np.linalg.solve(A[:, basis], rhs)
    x[basis] = xb
    return x


def _simplex_core(c, A, b, lo, hi, basis, status, tol, max_iter, allowed):
    """Run simplex iterations in place on (basis, status).

    `allowed` limits entering candidates to the first `allowed` columns, which
    keeps locked artificials out of phase-2 pricing. Returns (iterations,
    final objective).
    """
    m = A.shape[0]
    bland = False
    stall = 0
    last_obj = np.inf

    for it in range(max_iter):
        B = A[:, basis]
        x = np.where(status == _AT_UPPER, hi, lo)
        x[basis] = 0.0
        try:
            xb = np.linalg.solve(B, b - A @ x)
        except np.linalg.LinAlgError as e:
            raise InternalError(f"singular basis at iteration {it}: {e}") from e
        x[basis] = xb

        obj = float(c @ x)
        if obj < last_obj - tol:
            stall = 0
        else:
            stall += 1
            if stall > 2 * (m + allowed):
                bland = True
        last_obj = obj

        y = np.linalg.solve(B.T, c[basis])
        d = c - y @ A  # reduced costs

        eligible_lo = (status == _AT_LOWER) & (d < -tol)
        eligible_hi = (status == _AT_UPPER) & (d > tol)
        eligible = eligible_lo | eligible_hi
        eligible[allowed:] = False
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return it, obj

        if bland:
            j = int(idx[0])
        else:
            j = int(idx[np.argmax(np.abs(d[idx]))])

        # direction of basic variables as x_j moves by +t (from lower) or
        # -t (from upper); fold the sign in so t >= 0 either way
        sgn = 1.0 if status[j] == _AT_LOWER else -1.0
        w = np.linalg.solve(B, A[:, j]) * sgn

        t_best = hi[j] - lo[j]  # bound-to-bound flip
        leave = -1
        leave_to = _AT_LOWER
        for i in range(m):
            if w[i] > tol:
                room = xb[i] - lo[basis[i]]
                t = room / w[i]
                if t < t_best - tol or (t < t_best + tol and leave >= 0
                                        and basis[i] < basis[leave]):
                    t_best, leave, leave_to = t, i, _AT_LOWER
            elif w[i] < -tol:
                room = hi[basis[i]] - xb[i]
                t = room / (-w[i])
                if t < t_best - tol or (t < t_best + tol and leave >= 0
                                        and basis[i] < basis[leave]):
                    t_best, leave, leave_to = t, i, _AT_UPPER

        if not np.isfinite(t_best):
            raise InternalError("LP unbounded along entering variable "
                                f"{j} at iteration {it}")

        if leave < 0:
            # entering variable runs to its opposite bound
            status[j] = _AT_UPPER if status[j] == _AT_LOWER else _AT_LOWER
        else:
            out = basis[leave]
            status[out] = leave_to
            basis[leave] = j
            status[j] = _BASIC

    raise LimitError(
        f"simplex iteration cap {max_iter} hit on {m}x{allowed} problem"
    )
