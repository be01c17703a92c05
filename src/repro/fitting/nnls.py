"""Non-negative least squares (NNLS).

§3.1 and §3.2 of the paper fit both the loss-curve model and the speed
functions with an NNLS solver. We implement the classic Lawson–Hanson
active-set algorithm ourselves (the library must not silently depend on
``scipy.optimize.nnls`` internals) but verify it against SciPy in the test
suite.

Given ``A`` (m x n) and ``b`` (m,), solve::

    minimize ||A x - b||_2   subject to   x >= 0
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import FittingError

_EPS = float(np.finfo(float).eps)


def default_tol(m: int, n: int, a_max: float, b_max: float) -> float:
    """The solver's default tolerance for an ``(m, n)`` problem.

    *a_max* and *b_max* are the largest absolute entries of ``A`` and ``b``.
    A coefficient at or below it counts as zero: it is dropped from the
    passive set, and a dual entry at or below it ends the search. The
    tolerance grows with both maxima, so bounds on them give a bound on it.
    """
    return 10 * max(m, n) * _EPS * max(a_max, 1.0) * max(b_max, 1.0)


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    max_iter: Optional[int] = None,
    tol: Optional[float] = None,
) -> Tuple[np.ndarray, float]:
    """Lawson–Hanson non-negative least squares.

    Parameters
    ----------
    A:
        Design matrix of shape ``(m, n)``.
    b:
        Target vector of shape ``(m,)``.
    max_iter:
        Iteration cap; defaults to ``3 * n``.
    tol:
        Optimality tolerance on the dual vector; defaults to a scale-aware
        value derived from machine epsilon.

    Returns
    -------
    (x, rnorm):
        The non-negative solution and the residual 2-norm ``||A x - b||``.

    Raises
    ------
    FittingError
        On malformed inputs or failure to converge within ``max_iter``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    if A.ndim != 2:
        raise FittingError(f"A must be 2-D, got shape {A.shape}")
    m, n = A.shape
    if b.shape[0] != m:
        raise FittingError(f"A has {m} rows but b has {b.shape[0]} entries")
    if m == 0 or n == 0:
        raise FittingError("empty problem")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise FittingError("A and b must be finite")

    if max_iter is None:
        max_iter = max(3 * n, 30)
    if tol is None:
        tol = default_tol(
            m, n, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0))
        )

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)  # the "P" set
    # Coordinates whose positive dual entry is roundoff: adding one leaves
    # it non-positive in the passive solve, so x would not move and the
    # same coordinate would be picked again forever. They sit out until x
    # changes (the Lawson–Hanson safeguard).
    rejected = np.zeros(n, dtype=bool)
    w = A.T @ (b - A @ x)

    outer = 0
    while np.any(w[~passive & ~rejected] > tol):
        outer += 1
        if outer > max_iter:
            raise FittingError(f"NNLS failed to converge in {max_iter} iterations")
        # Bring the most promising coordinate into the passive set.
        candidates = np.where(~passive & ~rejected)[0]
        j = candidates[int(np.argmax(w[candidates]))]
        passive[j] = True

        # Inner loop: keep the passive solution strictly feasible.
        first = True
        while True:
            cols = np.where(passive)[0]
            z_passive, *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            z = np.zeros(n)
            z[cols] = z_passive
            if first and z[j] <= tol:
                passive[j] = False
                rejected[j] = True
                break
            first = False
            rejected[:] = False
            if np.all(z[cols] > tol):
                x = z
                break
            # Step toward z only as far as feasibility allows.
            blocking = cols[z[cols] <= tol]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = x[blocking] / (x[blocking] - z[blocking])
            ratios = np.where(np.isfinite(ratios), ratios, 0.0)
            alpha = float(ratios.min()) if blocking.size else 0.0
            x = x + alpha * (z - x)
            # Drop coordinates that hit zero back to the active set.
            drop = passive & (np.abs(x) <= tol * max(1.0, float(np.abs(x).max())))
            drop &= ~(z > tol)
            if not drop.any():
                # Numerical safety: force the worst offender out.
                worst = cols[int(np.argmin(z[cols]))]
                drop = np.zeros(n, dtype=bool)
                drop[worst] = True
            passive &= ~drop
            x[~passive] = 0.0
            if not passive.any():
                break
        w = A.T @ (b - A @ x)

    residual = float(np.linalg.norm(A @ x - b))
    return np.maximum(x, 0.0), residual


def nnls_fit(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convenience wrapper returning only the coefficient vector."""
    x, _ = nnls(A, b)
    return x
