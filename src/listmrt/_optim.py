"""Deterministic multi-start minimization helpers.

`le_gmm` uses `box_lattice` for its starting points. No estimator calls
`multistart_nelder_mead` any more; it stays because `bench/layers.py` wraps it
by name when tracing.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np
from scipy import optimize

logger = logging.getLogger(__name__)


def multistart_nelder_mead(
    fun: Callable[[np.ndarray], float],
    starts: Sequence[np.ndarray],
    bounds: Sequence[tuple[float, float]],
    xatol: float = 1e-8,
    fatol: float = 1e-12,
    maxiter: int | None = None,
) -> tuple[np.ndarray, float, bool]:
    """Run bounded Nelder-Mead from every start, polish the winner, keep the best.

    The start list is traversed in order and the polish restart happens exactly
    once at the incumbent, so the result is a deterministic function of the
    inputs. Returns (x, f(x), converged) where converged reports whether any
    simplex run terminated by its tolerance rather than the iteration cap.

    Args:
      fun: objective; must accept a 1-d array inside `bounds`.
      starts: iterable of feasible starting points.
      bounds: (low, high) per coordinate; the simplex is clamped to this box.
      xatol/fatol/maxiter: forwarded to scipy's Nelder-Mead.
    """
    opts: dict = {"xatol": xatol, "fatol": fatol}
    if maxiter is not None:
        opts["maxiter"] = maxiter
    best_x: np.ndarray | None = None
    best_f = np.inf
    converged = False
    for x0 in starts:
        res = optimize.minimize(
            fun, np.asarray(x0, dtype=float), method="Nelder-Mead", bounds=bounds, options=opts
        )
        converged = converged or bool(res.success)
        if res.fun < best_f:
            best_f = float(res.fun)
            best_x = np.asarray(res.x, dtype=float)
    assert best_x is not None, "at least one start is required"
    res = optimize.minimize(fun, best_x, method="Nelder-Mead", bounds=bounds, options=opts)
    if res.fun < best_f:
        best_f = float(res.fun)
        best_x = np.asarray(res.x, dtype=float)
        converged = converged or bool(res.success)
    return best_x, best_f, converged


def box_lattice(bounds: Sequence[tuple[float, float]], per_dim: Sequence[Sequence[float]]):
    """Cartesian-product lattice of starting points, clipped into the box."""
    grids = [np.asarray(g, dtype=float) for g in per_dim]
    mesh = np.meshgrid(*grids, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return list(np.clip(pts, lo, hi))
