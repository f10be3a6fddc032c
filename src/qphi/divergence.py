"""Von Neumann entropy, quantum Jensen-Shannon divergence, and the derived metric.

All values are in nats (natural log). The square root of the divergence is a
metric on states; ln 2 minus the divergence behaves like a similarity kernel,
whose Gram spectrum is reported (not asserted) by :func:`negative_type_check`.

Every entropy in the package is :func:`entropies` of a spectrum, or of a
stack of spectra. Small spectra are computed in stacks: ``np.linalg.eigvalsh``
on an (m, D, D) array runs m eigensolves in one call, with the same spectra as
m separate calls. One batching kernel, :func:`_stacked_entropies`, takes the
entropies of the dense midpoints of the divergences here and of phi's
marginal-mode cuts and partitions: it sizes and owns one buffer of at most
``_STACK_BYTES`` (1 MB) of matrices, so D=256 goes one matrix at a time, and
walks the states in runs, while the caller's filler writes each stack. Every
divergence between given states is :func:`_ensemble_entropies`, its filler
of m paired stacks of states and their pairwise midpoints: :func:`qjsd` is
its m = 2 case on one pair, :func:`qjsd_gram` its case of one ensemble. A
caller passes stacks of any length.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BadParameter, LayoutMismatch, NumericalBreakdown, TooFewStates
from .states import DensityMatrix, _array, _int, _items, rng_from

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
    """S(rho) = -tr rho ln rho of a state, or of a raw square array of numbers
    (:func:`~qphi.states._array`), of which only the lower triangle is read,
    as by eigvalsh. A raw array with a non-finite entry raises
    :class:`BadParameter`, even where that triangle would not read it."""
    if isinstance(rho, DensityMatrix):
        mat = rho.mat
    else:
        mat = _array(rho, (None, None), "matrix")
        if not np.isfinite(mat).all():
            raise BadParameter("matrix has non-finite entries")
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


def _stacked_entropies(count: int, items: Sequence, fill, dim: int, dtype) -> np.ndarray:
    """S of every (state, item) pair of ``count`` states and ``items``, a
    (count, len(items)) array. One buffer of at most ``_STACK_BYTES`` takes
    runs of whole states with all their items, or one state at a time in
    stacks of as many items as fit when one state's items alone are more:
    ``fill(chunk, part, rows)`` writes the D x D matrices of the items
    ``part`` for the states ``rows`` (a slice) into ``chunk``, a
    (len(part), states, D, D) view of it, and each chunk is one eigvalsh."""
    per = _stack_len(dim)
    step = max(1, per // len(items))  # states per run
    fits = min(per // step, len(items))  # a run's items per eigensolve
    buf = np.empty((fits * min(step, count), dim, dim), dtype)
    out = np.empty((count, len(items)))
    for lo in range(0, count, step):
        rows = slice(lo, min(count, lo + step))
        for c in range(0, len(items), fits):
            part = items[c:c + fits]
            chunk = buf[:len(part) * (rows.stop - lo)].reshape(len(part), -1, dim, dim)
            fill(chunk, part, rows)
            out[rows, c:c + len(part)] = entropies(np.linalg.eigvalsh(chunk)).T
    return out


def _ensemble_entropies(stacks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """S of every state of m paired (T, D, D) stacks, as a (T, m) array, and
    S((a_i + a_j)/2) of every pair i < j of a sample, as a (T, m(m-1)/2)
    array in ``np.triu_indices`` order: :func:`_stacked_entropies` of the
    samples' states, then their midpoints, each a_i + a_j added into the
    buffer and halved in place by ``*= 0.5``. Halving is exact, so each
    component has the bits of (a_i + a_j) / 2.0 but for the sign of an exact
    zero, which numpy's complex division by 2.0 may turn to +0.0 (and takes
    eight times as long); the midpoint's spectrum is the same. A state is its
    own midpoint, as doubling and halving are exact."""
    m, count, dim = len(stacks), len(stacks[0]), stacks[0].shape[-1]
    items = [(i, i) for i in range(m)] + list(itertools.combinations(range(m), 2))

    def fill(chunk, part, rows):
        for dst, (i, j) in zip(chunk, part):
            np.add(stacks[i][rows], stacks[j][rows], out=dst)
        chunk *= 0.5

    ent = _stacked_entropies(count, items, fill, dim, np.result_type(*stacks))
    return ent[:, :m], ent[:, m:]


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
    states = _items(states, BadParameter, "states", "density matrices")
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
    """:func:`negative_type_check` on a divergence matrix already computed.
    The trials' coefficient vectors are drawn as one (trials, m) block, the
    normals trial by trial would take, and scored with stacked reductions; a
    vector whose norm after centering is under 1e-12 is skipped."""
    m = dmat.shape[0]
    a = rng.standard_normal((int(trials), m))
    a -= a.mean(axis=1, keepdims=True)
    nrm = np.sqrt(np.sum(a * a, axis=1))
    keep = nrm >= 1e-12
    a = a[keep] / nrm[keep, None]
    worst = float(np.max(np.sum((a @ dmat) * a, axis=1), initial=-np.inf))
    if not np.isfinite(worst):
        worst = 0.0
    return GramReport(size=m, trials=int(trials), negative_type_max=worst,
                      kernel_min_eigenvalue=_kernel_min_eigenvalue(dmat))


def _kernel_min_eigenvalue(dmat: np.ndarray) -> float:
    """The minimum eigenvalue of the shifted Gram ln 2 - D of a divergence matrix."""
    kernel = LN2 - dmat
    return float(np.linalg.eigvalsh((kernel + kernel.T) / 2.0)[0])
