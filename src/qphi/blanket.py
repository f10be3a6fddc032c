"""Petz transpose-channel recovery and the blanket scan.

``petz_recover`` rebuilds the ``rebuild`` subsystems through the ``blanket``
from the state with ``rebuild`` traced out: exact whenever the blanket
mediates all correlations (products, classical Markov chains), lossy when
coherence bypasses it.

``blanket_scan`` scores each candidate blanket Z by the divergence between
the state and (recovered conditional on the complement Y) tensor (blanket
marginal). Because Y is the whole complement of Z, nothing is left over for
the recovery to act on: the Petz sandwich returns the state on its support,
the recovered conditional is just rho_Y, and the score is
qjsd(rho, rho_Y (x) rho_Z), the marginal-mode divergence of the cut Z|Y.
The scan therefore reads phi's per-cut table and runs no recovery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import (
    BadParameter,
    BadSize,
    DisjointnessViolation,
    IndexOutOfRange,
    SupportBreakdown,
)
from .phi import PhiResult, phi as phi_fn
from .states import (
    Bipartition,
    DensityMatrix,
    _assemble_raw,
    _indices,
    _int,
    _partial_trace_raw,
    _spectral,
    _validate_stack,
)

PINV_CUTOFF = 1e-12
TRACE_DRIFT_TOL = 1e-8


def _embed(op: np.ndarray, op_idx: list[int], space_idx: list[int], dims) -> np.ndarray:
    """Operator acting as ``op`` (a matrix or a stack of them) on op_idx and
    identity on the rest of space_idx.

    Both index lists hold original subsystem labels in ascending order; the
    result is assembled on the sub-layout of space_idx.
    """
    pos = {s: k for k, s in enumerate(space_idx)}
    rest = [pos[i] for i in space_idx if i not in op_idx]
    d_rest = math.prod(dims[space_idx[k]] for k in rest)
    return _assemble_raw(
        [op, np.eye(d_rest, dtype=complex)],
        [[pos[i] for i in op_idx], rest],
        [dims[i] for i in space_idx],
    )


def _check_subsets(rho: DensityMatrix, blanket: Iterable[int], rebuild: Iterable[int]):
    z = _indices(blanket, rho.n, IndexOutOfRange, "subsystem indices")
    y = _indices(rebuild, rho.n, IndexOutOfRange, "subsystem indices")
    if not z or not y:
        raise BadParameter("blanket and rebuild sets must both be non-empty")
    if set(z) & set(y):
        raise DisjointnessViolation(f"blanket {z} and rebuild {y} overlap")
    return z, y


def petz_recover(
    rho: DensityMatrix,
    blanket: Iterable[int],
    rebuild: Iterable[int],
) -> DensityMatrix:
    """Reconstruct the full state with ``rebuild`` regenerated through ``blanket``.

    Applies rho_{YZ}^{1/2} (rho_Z^{-1/2} . rho_Z^{-1/2} (x) I_Y) rho_{YZ}^{1/2}
    to the marginal without Y, with pseudo-inverses on the support of rho_Z
    (eigenvalues below ``PINV_CUTOFF`` are treated as zero). The output is
    renormalized when its trace drifts by at most 1e-8 and rejected otherwise.
    """
    z, y = _check_subsets(rho, blanket, rebuild)
    return DensityMatrix(rho.layout, _petz_stack(np.asarray(rho.mat)[None], rho.dims, z, y)[0])


def _petz_stack(mats: np.ndarray, dims, z: list[int], y: list[int]) -> np.ndarray:
    """:func:`petz_recover` of every state of an (S, D, D) stack with layout
    ``dims``, through the sorted, disjoint, non-empty subsystem lists z
    (blanket) and y (rebuild): each product and eigensolve is one stacked
    call. The outputs are cleaned as :func:`~qphi.states.validate_state`
    cleans a matrix; the first trace that drifts raises."""
    n = len(dims)
    a = [i for i in range(n) if i not in z and i not in y]
    az = sorted(a + z)
    yz = sorted(y + z)

    w, v = np.linalg.eigh(_partial_trace_raw(mats, dims, z))
    inv = np.where(w > PINV_CUTOFF, 1.0 / np.sqrt(np.clip(w, PINV_CUTOFF, None)), 0.0)
    inv_on_az = _embed(_spectral(v, inv), z, az, dims)
    mid_az = inv_on_az @ _partial_trace_raw(mats, dims, az) @ inv_on_az
    mid_full = _embed(mid_az, az, list(range(n)), dims)
    w, v = np.linalg.eigh(_partial_trace_raw(mats, dims, yz))
    sq_full = _embed(_spectral(v, np.sqrt(np.clip(w, 0.0, None))), yz, list(range(n)), dims)
    out = sq_full @ mid_full @ sq_full

    tr = np.real(np.trace(out, axis1=-2, axis2=-1))
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_DRIFT_TOL)
    if bad.size:
        raise SupportBreakdown(
            f"recovered trace {float(tr[bad[0]])} drifted more than {TRACE_DRIFT_TOL} from 1"
        )
    return _validate_stack(out / tr[:, None, None])


@dataclass(frozen=True)
class BlanketResult:
    target_size: int
    scores: tuple[tuple[tuple[int, ...], float], ...]  # canonical subset order
    argmin: tuple[int, ...]
    optimal_cut_side: tuple[int, ...]
    matches_optimal_cut_side: bool


def blanket_scan(rho: DensityMatrix, target_size: int, mode: str = "marginal") -> BlanketResult:
    """Score every size-``target_size`` subset Z as a candidate blanket.

    score(Z) = qjsd(rho, recovered conditional (x) blanket marginal). With the
    whole complement Y rebuilt the recovered conditional is rho_Y, so the score
    is the marginal per-cut divergence of the cut Z|Y; zero exactly when the
    state factorizes across Z. The scan validates the size, calls phi once
    and reads the scores from its ``per_cut`` table (:func:`_scan`). The
    argmin subset is compared against the smaller side of the phi-optimal cut
    (reported, not asserted).
    """
    n = rho.n
    if _int(target_size, 1, BadSize, "target size") > n - 1:
        raise BadSize(f"target size {target_size} outside [1, {n - 1}]")
    return _scan(phi_fn(rho, mode), target_size)


def _scan(res: PhiResult, target_size: int) -> BlanketResult:
    """The blanket scan of the state whose phi result is ``res``."""
    n = res.optimal_cut.n
    a_side, b_side = res.optimal_cut.as_lists()
    smaller = tuple(a_side) if len(a_side) <= len(b_side) else tuple(b_side)

    per_cut = dict(res.per_cut)
    scores = tuple(
        (zc, per_cut[Bipartition.of(zc, n)]) for zc in combinations(range(n), target_size)
    )
    vmin = min(v for _, v in scores)
    argmin = next(zc for zc, v in scores if v <= vmin + 1e-12)
    return BlanketResult(
        target_size=int(target_size),
        scores=scores,
        argmin=argmin,
        optimal_cut_side=smaller,
        matches_optimal_cut_side=(set(argmin) == set(smaller)),
    )
