"""Von Neumann entropy, quantum Jensen-Shannon divergence, and the derived metric.

All values are in nats (natural log). The square root of the divergence is a
metric on states; ln 2 minus the divergence behaves like a similarity kernel,
whose Gram spectrum is reported (not asserted) by :func:`negative_type_check`.

Small spectra are computed in stacks: ``np.linalg.eigvalsh`` on an (m, D, D)
array runs m eigensolves in one call, with the same spectra as m separate
calls, and :func:`entropies` takes the entropy of every row at once.
:func:`qjsd_gram` eigensolves its m states and all their pairwise midpoints
this way. A stack holds at most ``_STACK_BYTES`` (1 MB) of matrices, so D=256
still goes one matrix at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import LayoutMismatch, NumericalBreakdown, TooFewStates
from .states import DensityMatrix, rng_from

LN2 = float(np.log(2.0))

_EIG_ZERO_TOL = 1e-10  # eigenvalues in [-tol, 0) count as exact zeros
_EIG_FAIL_TOL = 1e-9   # anything below this is a numerical breakdown
_STACK_BYTES = 1 << 20  # cap on the complex matrices in one stacked eigensolve


def _stack_len(dim: int) -> int:
    """How many D x D complex matrices one stacked eigensolve takes (at least 1)."""
    return max(1, _STACK_BYTES // (16 * dim * dim))


def _stacked_entropies(build, count: int, dim: int) -> np.ndarray:
    """Von Neumann entropies of ``count`` D x D matrices, eigensolved in stacks
    of at most ``_STACK_BYTES``; ``build(start, stop)`` returns matrices
    start..stop-1 as one (stop - start, D, D) array."""
    step = _stack_len(dim)
    return np.concatenate([
        entropies(np.linalg.eigvalsh(build(k, min(k + step, count))))
        for k in range(0, count, step)
    ])


def _check_spectrum(w: np.ndarray) -> None:
    lo = float(w.min()) if w.size else 0.0
    if lo < -_EIG_FAIL_TOL:
        raise NumericalBreakdown(f"eigenvalue {lo:.3e} below -{_EIG_FAIL_TOL}")


def entropy_of_spectrum(eigs: np.ndarray) -> float:
    """-sum(p ln p) over the spectrum, with 0 ln 0 == 0."""
    w = np.asarray(eigs, dtype=float)
    _check_spectrum(w)
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def entropies(spectra: np.ndarray) -> np.ndarray:
    """:func:`entropy_of_spectrum` of every row of a stack of spectra.

    Equal to the row-by-row values to round-off: a zero or clipped eigenvalue
    adds an exact 0 to its row's sum instead of being left out of it.
    """
    w = np.asarray(spectra, dtype=float)
    _check_spectrum(w)
    p = np.where(w > 0.0, w, 1.0)  # 1 ln 1 == 0 stands in for 0 ln 0
    return -np.sum(p * np.log(p), axis=-1)


def von_neumann_entropy(rho: Union[DensityMatrix, np.ndarray]) -> float:
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return entropy_of_spectrum(np.linalg.eigvalsh(mat))


def qjsd(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Jensen-Shannon divergence S((rho+sigma)/2) - S(rho)/2 - S(sigma)/2, in nats.

    Symmetric and bounded by ln 2; zero iff the states coincide. Tiny negative
    values (order 1e-16) can appear from eigensolver round-off and are returned
    as computed.
    """
    if rho.dims != sigma.dims:
        raise LayoutMismatch(f"layouts differ: {rho.dims} vs {sigma.dims}")
    mid = (np.asarray(rho.mat) + np.asarray(sigma.mat)) / 2.0
    s_mid = von_neumann_entropy(mid)
    return s_mid - 0.5 * von_neumann_entropy(rho) - 0.5 * von_neumann_entropy(sigma)


def delta(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """The metric sqrt(qjsd); obeys the triangle inequality."""
    return float(np.sqrt(max(qjsd(rho, sigma), 0.0)))


@lru_cache(maxsize=None)
def _gram_items(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j): the m diagonal pairs, then the pairs i < j."""
    i, j = np.triu_indices(m, 1)
    out = np.concatenate([np.arange(m), i]), np.concatenate([np.arange(m), j])
    for a in out:
        a.setflags(write=False)
    return out


def qjsd_gram(states: Sequence[DensityMatrix]) -> np.ndarray:
    """Pairwise divergence matrix (symmetric, zero diagonal).

    The states and their m(m-1)/2 midpoints are eigensolved in stacks; a
    state is its own midpoint (a + a)/2, exactly.
    """
    m = len(states)
    if m < 2:
        raise TooFewStates(f"need at least 2 states, got {m}")
    dims0 = states[0].dims
    for s in states[1:]:
        if s.dims != dims0:
            raise LayoutMismatch("all states in an ensemble must share a layout")
    mats = np.stack([s.mat for s in states])
    i, j = _gram_items(m)
    ent = _stacked_entropies(
        lambda a, b: (mats[i[a:b]] + mats[j[a:b]]) / 2.0, i.size, states[0].dim
    )
    i, j = i[m:], j[m:]
    out = np.zeros((m, m))
    out[i, j] = ent[m:] - 0.5 * ent[i] - 0.5 * ent[j]
    out[j, i] = out[i, j]
    return out


@dataclass(frozen=True)
class GramReport:
    """Outcome of a negative-type probe over one ensemble."""

    size: int
    trials: int
    negative_type_max: float      # max of a.D.a over zero-sum unit vectors; <= 0 expected
    kernel_min_eigenvalue: float  # min eigenvalue of the shifted Gram ln2 - D (report only)


def negative_type_check(states: Sequence[DensityMatrix], trials: int, seed) -> GramReport:
    """Sample zero-sum coefficient vectors a and record max a.D.a.

    Conditional negative-definiteness of the divergence matrix shows up as the
    max staying <= 0 (up to float slack); the shifted-kernel eigenvalue is
    informational only.
    """
    dmat = qjsd_gram(states)
    m = dmat.shape[0]
    rng = rng_from(seed)
    worst = -np.inf
    for _ in range(int(trials)):
        a = rng.standard_normal(m)
        a -= a.mean()
        nrm = float(np.linalg.norm(a))
        if nrm < 1e-12:
            continue
        a /= nrm
        worst = max(worst, float(a @ dmat @ a))
    if not np.isfinite(worst):
        worst = 0.0
    kernel = LN2 - dmat
    min_eig = float(np.linalg.eigvalsh((kernel + kernel.T) / 2.0)[0])
    return GramReport(size=m, trials=int(trials), negative_type_max=worst,
                      kernel_min_eigenvalue=min_eig)
