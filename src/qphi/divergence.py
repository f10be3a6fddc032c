"""Von Neumann entropy, quantum Jensen-Shannon divergence, and the derived metric.

All values are in nats (natural log). The square root of the divergence is a
metric on states; ln 2 minus the divergence behaves like a similarity kernel,
whose Gram spectrum is reported (not asserted) by :func:`negative_type_check`.

Every entropy in the package is :func:`entropies` of a spectrum, or of a
stack of spectra. Small spectra are computed in stacks: ``np.linalg.eigvalsh``
on an (m, D, D) array runs m eigensolves in one call, with the same spectra as
m separate calls. :func:`qjsd` is :func:`_pair_divergences` on one pair,
which eigensolves the states of two paired stacks and their midpoints in one
stack. :func:`qjsd_gram` eigensolves its m states and all pairwise midpoints,
and :func:`_grams` those of a stack of ensembles. A stack holds at most
``_STACK_BYTES`` (1 MB) of matrices, so D=256 still goes one matrix at a time,
and the code that builds a stack sizes it: a kernel that builds more matrices
than it is given splits its input into runs, so a caller passes stacks of
any length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BadParameter, LayoutMismatch, NumericalBreakdown, TooFewStates
from .states import DensityMatrix, _int, rng_from

LN2 = float(np.log(2.0))

_EIG_FAIL_TOL = 1e-9   # anything below this is a numerical breakdown
# cap on the complex matrices of one stack, checked where the stack is built
_STACK_BYTES = 1 << 20


def _stack_len(dim: int, width: Optional[int] = None) -> int:
    """How many D x D complex matrices one stacked eigensolve takes, or how
    many D x ``width`` arrays one stack holds (at least 1)."""
    return max(1, _STACK_BYTES // (16 * dim * (dim if width is None else width)))


def entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum(p ln p) over a spectrum, or over every row of a stack of spectra,
    with 0 ln 0 == 0.

    Eigenvalues in [-1e-9, 0] count as exact zeros: each adds an exact 0 to
    its row's sum. Anything lower raises :class:`NumericalBreakdown`.
    """
    w = np.asarray(spectra, dtype=float)
    lo = float(w.min()) if w.size else 0.0
    if lo < -_EIG_FAIL_TOL:
        raise NumericalBreakdown(f"eigenvalue {lo:.3e} below -{_EIG_FAIL_TOL}")
    p = np.where(w > 0.0, w, 1.0)  # 1 ln 1 == 0 stands in for 0 ln 0
    return -np.sum(p * np.log(p), axis=-1)


def von_neumann_entropy(rho: Union[DensityMatrix, np.ndarray]) -> float:
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(entropies(np.linalg.eigvalsh(mat)))


def qjsd(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Jensen-Shannon divergence S((rho+sigma)/2) - S(rho)/2 - S(sigma)/2, in nats.

    Symmetric and bounded by ln 2; zero iff the states coincide. Tiny negative
    values (order 1e-16) can appear from eigensolver round-off and are returned
    as computed. :func:`_pair_divergences` on a stack of one pair.
    """
    if rho.dims != sigma.dims:
        raise LayoutMismatch(f"layouts differ: {rho.dims} vs {sigma.dims}")
    return float(_pair_divergences(np.asarray(rho.mat)[None], np.asarray(sigma.mat)[None])[0])


def _pair_entropies(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """S(a), S(b) and S((a + b)/2) of two paired (k, D, D) stacks, as rows
    of a (3, k) array. Each run of pairs is one stacked eigensolve of its
    states and midpoints, at most ``_STACK_BYTES`` of matrices."""
    step = max(1, _stack_len(a.shape[-1]) // 3)
    return np.concatenate([
        entropies(np.linalg.eigvalsh(np.concatenate([x, y, (x + y) / 2.0]))).reshape(3, -1)
        for x, y in ((a[i:i + step], b[i:i + step]) for i in range(0, len(a), step))
    ], axis=1)


def _pair_divergences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`qjsd` of each pair of two paired (k, D, D) stacks."""
    s_a, s_b, s_mid = _pair_entropies(a, b)
    return s_mid - 0.5 * s_a - 0.5 * s_b


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
    return _grams(np.stack([s.mat for s in states])[None])[0]


def _grams(mats: np.ndarray) -> np.ndarray:
    """:func:`qjsd_gram` of each ensemble of a (T, m, D, D) stack of T
    ensembles of m states, with every state and midpoint of every ensemble
    eigensolved in shared stacks."""
    t_count, m, dim = mats.shape[0], mats.shape[1], mats.shape[-1]
    i, j = _gram_items(m)
    # item k of the flat list is pair (ii[k], jj[k]) of ensemble tt[k]
    tt = np.repeat(np.arange(t_count), i.size)
    ii, jj = np.tile(i, t_count), np.tile(j, t_count)
    step = _stack_len(dim)
    ent = np.concatenate([
        entropies(np.linalg.eigvalsh(
            (mats[tt[k:k + step], ii[k:k + step]] + mats[tt[k:k + step], jj[k:k + step]]) / 2.0
        ))
        for k in range(0, tt.size, step)
    ]).reshape(t_count, i.size)
    i, j = i[m:], j[m:]
    out = np.zeros((t_count, m, m))
    out[:, i, j] = ent[:, m:] - 0.5 * ent[:, i] - 0.5 * ent[:, j]
    out[:, j, i] = out[:, i, j]
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
    informational only. ``trials`` may be 0, as verify's config may set it.
    """
    trials = _int(trials, 0, BadParameter, "trials")
    return _negative_type(qjsd_gram(states), trials, rng_from(seed))


def _negative_type(dmat: np.ndarray, trials: int, rng: np.random.Generator) -> GramReport:
    """:func:`negative_type_check` on a divergence matrix already computed."""
    m = dmat.shape[0]
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
    return GramReport(size=m, trials=int(trials), negative_type_max=worst,
                      kernel_min_eigenvalue=_kernel_min_eigenvalue(dmat))


def _kernel_min_eigenvalue(dmat: np.ndarray) -> float:
    """The minimum eigenvalue of the shifted Gram ln 2 - D of a divergence matrix."""
    kernel = LN2 - dmat
    return float(np.linalg.eigvalsh((kernel + kernel.T) / 2.0)[0])
