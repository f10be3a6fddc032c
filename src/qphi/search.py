"""Derivative-free 1-D line search used by the observer maximization.
Deterministic: no randomness, fixed iteration count. The search returns the
best point it evaluated, endpoints and first interior points included."""
from __future__ import annotations

from typing import Callable

import numpy as np

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section maximization on [lo, hi].

    Both endpoints are evaluated explicitly so boundary optima are hit exactly.
    Returns (x_best, f_best, evaluations): the best of all evaluated points,
    the earliest one on ties.
    """
    evals = 0
    best = None

    def ev(x):
        nonlocal evals, best
        evals += 1
        fx = f(x)
        if best is None or fx > best[1]:
            best = (x, fx)
        return fx

    ev(lo)
    ev(hi)
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(int(iters)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = ev(d)
    return best[0], best[1], evals


def golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section minimization on [lo, hi]; see :func:`golden_max`.

    No library code calls it, but the benchmark's tracer
    (``perfbench/tracer.py``) looks it up by name, so removing it makes a
    traced benchmark run raise ``AttributeError``.
    """
    x, negf, evals = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -negf, evals
