"""Von Neumann entropy, quantum Jensen-Shannon divergence, and the derived metric.

All values are in nats (natural log). The square root of the divergence is a
metric on states; ln 2 minus the divergence behaves like a similarity kernel,
whose Gram spectrum is reported (not asserted) by :func:`negative_type_check`.

Every entropy in the package is :func:`entropies` of a spectrum, or of a
stack of spectra. Small spectra are computed in stacks: ``np.linalg.eigvalsh``
on an (m, D, D) array runs m eigensolves in one call, with the same spectra as
m separate calls. Every divergence between given states comes from one kernel,
:func:`_ensemble_entropies`: it takes m paired stacks of states and eigensolves
each run of samples' states, then their pairwise midpoints, as one stack.
:func:`qjsd` is its m = 2 case on one pair, :func:`qjsd_gram` its case of one
ensemble. A stack holds at most ``_STACK_BYTES`` (1 MB) of matrices, so D=256
goes one matrix at a time, and the code that builds a stack sizes it: a
kernel that builds more matrices than it is given splits its input into runs,
so a caller passes stacks of any length.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BadParameter, LayoutMismatch, NumericalBreakdown, TooFewStates
from .states import DensityMatrix, _array, _int, rng_from

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
    its row's sum. Anything lower, or NaN, raises :class:`NumericalBreakdown`.
    """
    w = np.asarray(spectra, dtype=float)
    lo = float(w.min()) if w.size else 0.0
    if not lo >= -_EIG_FAIL_TOL:  # NaN fails every comparison
        raise NumericalBreakdown(f"eigenvalue {lo:.3e} is not at least -{_EIG_FAIL_TOL}")
    p = np.where(w > 0.0, w, 1.0)  # 1 ln 1 == 0 stands in for 0 ln 0
    return -np.sum(p * np.log(p), axis=-1)


def von_neumann_entropy(rho: Union[DensityMatrix, np.ndarray]) -> float:
    mat = rho.mat if isinstance(rho, DensityMatrix) else _array(rho, (None, None), "matrix")
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


def _ensemble_entropies(stacks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """S of every state of m paired (T, D, D) stacks, as a (T, m) array, and
    S((a_i + a_j)/2) of every pair i < j of a sample, as a (T, m(m-1)/2)
    array in ``np.triu_indices`` order. Each run of samples is one stacked
    eigensolve of its states, stack by stack, then its midpoints, pair by
    pair, at most ``_STACK_BYTES`` of matrices. When one sample's matrices
    alone are more, each sample is a run, eigensolved in stacks of as many
    of its matrices as fit, its midpoints built as they are reached."""
    m = len(stacks)
    pairs = list(itertools.combinations(range(m), 2))
    per = _stack_len(stacks[0].shape[-1])
    step = max(1, per // (m + len(pairs)))
    ent = []
    for lo in range(0, len(stacks[0]), step):
        pieces = itertools.chain(
            (s[lo:lo + step] for s in stacks),
            ((stacks[i][lo:lo + step] + stacks[j][lo:lo + step]) / 2.0 for i, j in pairs),
        )
        run = []
        while chunk := list(itertools.islice(pieces, per // step)):
            run.append(entropies(np.linalg.eigvalsh(np.concatenate(chunk))))
        ent.append(np.concatenate(run).reshape(m + len(pairs), -1))
    ent = np.concatenate(ent, axis=1)
    return ent[:m].T, ent[m:].T


def _pair_divergences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`qjsd` of each pair of two paired (k, D, D) stacks."""
    s, mid = _ensemble_entropies([a, b])
    return mid[:, 0] - 0.5 * s[:, 0] - 0.5 * s[:, 1]


def delta(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """The metric sqrt(qjsd); obeys the triangle inequality."""
    return float(np.sqrt(max(qjsd(rho, sigma), 0.0)))


def qjsd_gram(states: Sequence[DensityMatrix]) -> np.ndarray:
    """Pairwise divergence matrix (symmetric, zero diagonal).

    The states and their m(m-1)/2 midpoints are eigensolved in stacks.
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
    ensembles of m states."""
    m = mats.shape[1]
    s, mid = _ensemble_entropies([mats[:, k] for k in range(m)])
    i, j = np.triu_indices(m, 1)
    out = np.zeros((len(mats), m, m))
    out[:, i, j] = mid - 0.5 * s[:, i] - 0.5 * s[:, j]
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
