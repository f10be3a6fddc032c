"""Derivative-free 1-D line search used by the observer maximization.
Deterministic: no randomness, fixed iteration count."""
from __future__ import annotations

from typing import Callable

import numpy as np

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section maximization on [lo, hi].

    Both endpoints are evaluated explicitly so boundary optima are hit exactly.
    Returns (x_best, f_best, evaluations).
    """
    evals = 0

    def ev(x):
        nonlocal evals
        evals += 1
        return f(x)

    best_x, best_f = lo, ev(lo)
    fh = ev(hi)
    if fh > best_f:
        best_x, best_f = hi, fh
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(int(iters)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = ev(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = ev(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f, evals


def golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section minimization on [lo, hi]; see :func:`golden_max`.

    No library code calls it, but the benchmark's tracer
    (``perfbench/tracer.py``) looks it up by name, so removing it makes a
    traced benchmark run raise ``AttributeError``.
    """
    x, negf, evals = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -negf, evals
