"""Derivative-free 1-D line search used by the observer maximization.
Deterministic: no randomness, fixed iteration count. The search returns the
best point it evaluated, endpoints and first interior points included.

The search itself is the generator :func:`_golden`, which yields each point
and receives its value, so a caller can advance many line searches side by
side and score their points together; :func:`golden_max` drives one of them
with a plain callable."""
from __future__ import annotations

from typing import Callable, Generator

import numpy as np

INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden(lo: float, hi: float, iters: int = 24) -> Generator[float, float, tuple]:
    """Golden-section maximization on [lo, hi] as an ask/tell generator: it
    yields each point x, is sent f(x), and returns what :func:`golden_max`
    returns."""
    evals = 0
    best = None

    def seen(x, fx):
        nonlocal evals, best
        evals += 1
        if best is None or fx > best[1]:
            best = (x, fx)
        return fx

    seen(lo, (yield lo))
    seen(hi, (yield hi))
    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc = seen(c, (yield c))
    fd = seen(d, (yield d))
    for _ in range(int(iters)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = seen(c, (yield c))
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = seen(d, (yield d))
    return best[0], best[1], evals


def golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section maximization on [lo, hi].

    Both endpoints are evaluated explicitly so boundary optima are hit exactly.
    Returns (x_best, f_best, evaluations): the best of all evaluated points,
    the earliest one on ties.
    """
    search = _golden(lo, hi, iters)
    x = next(search)
    while True:
        try:
            x = search.send(f(x))
        except StopIteration as done:
            return done.value


def golden_min(f: Callable[[float], float], lo: float, hi: float, iters: int = 24):
    """Golden-section minimization on [lo, hi]; see :func:`golden_max`.

    No library code calls it, but the benchmark's tracer
    (``perfbench/tracer.py``) looks it up by name, so removing it makes a
    traced benchmark run raise ``AttributeError``.
    """
    x, negf, evals = golden_max(lambda t: -f(t), lo, hi, iters)
    return x, -negf, evals
