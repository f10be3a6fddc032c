"""Hermitian witness built from the closest-product gap W = sigma* - rho.

The operator is traceless by construction. Its expectation against the source
state equals tr[sigma* rho] - tr[rho^2]; how that number relates to -phi is
emitted as a comparison record rather than asserted, and the scan over random
product states records sign counterexamples instead of claiming positivity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadParameter, LayoutMismatch, NumericalBreakdown
from .phi import PhiResult
from .states import (
    Bipartition,
    DensityMatrix,
    SubsystemLayout,
    _array,
    _int,
    assemble_on_subsets,
    ginibre_mixed,
    haar_pure,
    rng_from,
)

IMAG_TOL = 1e-10


@dataclass(frozen=True)
class Witness:
    op: np.ndarray
    cut: Bipartition
    layout: SubsystemLayout
    phi_at_construction: float

    def __post_init__(self):
        arr = _array(self.op, (self.layout.dim,) * 2, "witness operator").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "op", arr)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.op)


def build_witness(rho: DensityMatrix, result: PhiResult) -> Witness:
    """sigma* - rho for the optimal cut found by a phi computation."""
    if result.sigma_star.dims != rho.dims:
        raise LayoutMismatch("phi result belongs to a different layout")
    w = np.asarray(result.sigma_star.mat) - np.asarray(rho.mat)
    herm = float(np.max(np.abs(w - w.conj().T)))
    tr = abs(complex(np.trace(w)))
    if herm > 1e-9 or tr > 1e-9:
        raise NumericalBreakdown(
            f"witness failed algebra checks: hermiticity {herm:.3e}, trace {tr:.3e}"
        )
    return Witness(op=w, cut=result.optimal_cut, layout=rho.layout,
                   phi_at_construction=result.phi)


def expectation(w: Witness, state: DensityMatrix) -> float:
    if state.dims != w.layout.dims:
        raise LayoutMismatch(f"state layout {state.dims} != witness layout {w.layout.dims}")
    val = complex(np.trace(w.op @ np.asarray(state.mat)))
    if abs(val.imag) > IMAG_TOL:
        raise NumericalBreakdown(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def phi_comparison(w: Witness, rho: DensityMatrix) -> dict:
    """Record tr[W rho] next to -phi; the two are NOT asserted equal."""
    e = expectation(w, rho)
    return {
        "expectation_on_state": e,
        "minus_phi": -w.phi_at_construction,
        "gap": e - (-w.phi_at_construction),
    }


@dataclass(frozen=True)
class ProductScanReport:
    samples: int
    seed: Optional[int]  # None when driven by an externally supplied stream
    min_expectation: float
    argmin_state: DensityMatrix
    fraction_negative: float  # fraction strictly below -1e-9


def product_state_scan(w: Witness, samples: int, seed) -> ProductScanReport:
    """Expectation of the witness over random product states on its own cut.

    Alternates Haar-random pure factors with full-rank Ginibre factors.
    """
    samples = _int(samples, 1, BadParameter, "samples")
    a_idx, b_idx = w.cut.as_lists()
    da = int(np.prod([w.layout.dims[i] for i in a_idx]))
    db = int(np.prod([w.layout.dims[i] for i in b_idx]))
    rng = rng_from(seed)
    best: Optional[tuple[float, DensityMatrix]] = None
    negative = 0
    for i in range(samples):
        if i % 2 == 0:
            fa = haar_pure((da,), rng).mat
            fb = haar_pure((db,), rng).mat
        else:
            fa = ginibre_mixed((da,), da, rng).mat
            fb = ginibre_mixed((db,), db, rng).mat
        prod = assemble_on_subsets([np.asarray(fa), np.asarray(fb)], [a_idx, b_idx], w.layout)
        e = expectation(w, prod)
        if e < -1e-9:
            negative += 1
        if best is None or e < best[0]:
            best = (e, prod)
    return ProductScanReport(
        samples=samples,
        seed=seed if isinstance(seed,(int, np.integer)) else None,
        min_expectation=best[0],
        argmin_state=best[1],
        fraction_negative=negative / samples,
    )
