"""Integrated information of a multipartite state.

Phi is the minimum quantum Jensen-Shannon divergence between the state and a
product state across a bipartition. ``marginal`` mode scores every cut with
the literal product of its marginals; ``optimized`` mode additionally refines
the product factors on the winning cut(s) by alternating coordinate descent in
an exponential (log-density) parametrization.

The per-cut value qjsd(rho, rho_A (x) rho_B) = S(m) - S(rho)/2 - S(sigma)/2,
with m the midpoint (rho + sigma)/2, is computed spectrally. rho is
eigendecomposed once per call, which gives S(rho) for every cut and a factor
X with X X^dag = rho (eigenvalues under the eigensolver's noise floor
D*eps*lambda_max dropped). Each cut takes S(sigma) = S(rho_A) + S(rho_B) from
the two marginal spectra, and the spectrum of m from one of three branches:

- rank 1 (pure rho): the Schmidt closed form (Nielsen & Chuang 2.5). One SVD
  of the state vector, reshaped to d_A x d_B, gives the r = min(d_A, d_B)
  Schmidt weights lambda, which are the spectrum of both marginals; m has
  eigenvalues lambda_i lambda_j / 2 for i != j and those of the r x r matrix
  (diag(lambda^2) + sqrt(lambda) sqrt(lambda)^T) / 2.
- rank rho + rank rho_A * rank rho_B < D: m = Z Z^dag with Z = [X Y]/sqrt(2),
  Y the Kronecker product of the marginal factors, so its non-zero spectrum
  is that of the smaller Gram matrix Z^dag Z.
- otherwise: one dense eigensolve of m.

The dense qjsd of :mod:`qphi.divergence` is the reference the tests hold
every branch to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .divergence import delta, entropy_of_spectrum, qjsd
from .errors import (
    BadParameter,
    InvalidPartition,
    SearchBudgetExceeded,
    SingleSubsystem,
)
from .search import golden_min
from .states import (
    Bipartition,
    DensityMatrix,
    _permute_raw,
    assemble_on_subsets,
    enumerate_bipartitions,
    partial_trace,
    product_of_block_marginals,
    product_of_marginals,
)

TIE_TOL = 1e-9
DEFAULT_N_CAP = 12
REFINE_IMPROVEMENT_TOL = 1e-10
REFINE_MAX_PASSES = 500
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PhiResult:
    """Outcome of a Phi evaluation.

    ``phi`` is the headline value for the requested mode; ``phi_marginal``
    always carries the plain product-of-marginals minimum, and
    ``phi_refined`` the descent value (optimized mode only).
    """

    phi: float
    optimal_cut: Bipartition
    sigma_star: DensityMatrix
    per_cut: tuple[tuple[Bipartition, float], ...]
    ties: tuple[Bipartition, ...]
    mode: str
    phi_marginal: float
    phi_refined: Optional[float] = None
    refinement_spread: Optional[float] = None

    @property
    def tie_count(self) -> int:
        return len(self.ties)


@dataclass(frozen=True)
class PartitionKBlocks:
    """A partition of range(n) into k >= 2 blocks, canonically ordered by minimum."""

    blocks: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self):
        blocks = tuple(frozenset(int(i) for i in b) for b in self.blocks)
        if len(blocks) < 2:
            raise InvalidPartition("a partition needs at least 2 blocks")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise InvalidPartition("empty block")
            if any(i < 0 or i >= self.n for i in b):
                raise InvalidPartition(f"block {sorted(b)} out of range for n={self.n}")
            if seen & b:
                raise InvalidPartition("blocks must be disjoint")
            seen |= b
        if seen != set(range(self.n)):
            raise InvalidPartition("blocks must cover every subsystem")
        blocks = tuple(sorted(blocks, key=min))
        object.__setattr__(self, "blocks", blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)


def as_partition(blocks, n: int) -> PartitionKBlocks:
    if isinstance(blocks, PartitionKBlocks):
        return blocks
    return PartitionKBlocks(tuple(frozenset(b) for b in blocks), n)


def divergence_for_partition(rho: DensityMatrix, blocks) -> float:
    """QJSD between the state and the product of its block marginals."""
    p = as_partition(blocks, rho.n)
    return qjsd(rho, product_of_block_marginals(rho, [sorted(b) for b in p.blocks]))


def enumerate_partitions(n: int, max_n: int = 6) -> list[PartitionKBlocks]:
    """Every set partition of range(n) with at least two blocks."""
    if n > max_n:
        raise BadParameter(f"exhaustive partition enumeration capped at n={max_n}")
    out: list[PartitionKBlocks] = []

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            if len(blocks) >= 2:
                out.append(PartitionKBlocks(tuple(frozenset(b) for b in blocks), n))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def merge_blocks(p: PartitionKBlocks, i: int, j: int) -> PartitionKBlocks:
    if i == j or not (0 <= i < p.k) or not (0 <= j < p.k):
        raise InvalidPartition(f"cannot merge blocks {i} and {j} of a {p.k}-block partition")
    merged = [set(b) for b in p.blocks]
    merged[min(i, j)] |= merged[max(i, j)]
    del merged[max(i, j)]
    return PartitionKBlocks(tuple(frozenset(b) for b in merged), p.n)


def merge_inequality_check(rho: DensityMatrix, p: PartitionKBlocks, i: int, j: int):
    """Divergence before and after merging two blocks; coarsening should not increase it."""
    if p.k < 3:
        raise InvalidPartition("merging requires at least 3 blocks")
    before = divergence_for_partition(rho, p)
    after = divergence_for_partition(rho, merge_blocks(p, i, j))
    return before, after


# ---------------------------------------------------------------------------
# optimized-mode refinement

def _herm_params(d: int) -> int:
    return d * d


def _herm_from_reals(x: np.ndarray, d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    idx = 0
    for i in range(d):
        h[i, i] = x[idx]
        idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = x[idx] + 1j * x[idx + 1]
            h[j, i] = x[idx] - 1j * x[idx + 1]
            idx += 2
    return h


def _reals_from_herm(h: np.ndarray) -> np.ndarray:
    d = h.shape[0]
    x = np.empty(d * d)
    idx = 0
    for i in range(d):
        x[idx] = h[i, i].real
        idx += 1
    for i in range(d):
        for j in range(i + 1, d):
            x[idx] = h[i, j].real
            x[idx + 1] = h[i, j].imag
            idx += 2
    return x


def _density_from_log(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    e = np.exp(w - w.max())
    m = (v * e) @ v.conj().T
    return m / np.real(np.trace(m))


def _log_of_density(mat: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, floor, None)
    return (v * np.log(w)) @ v.conj().T


def _refine_product(
    rho: DensityMatrix,
    cut: Bipartition,
    max_passes: int = REFINE_MAX_PASSES,
    improvement_tol: float = REFINE_IMPROVEMENT_TOL,
    x0: Optional[np.ndarray] = None,
):
    """Minimize qjsd(rho, sigma_A (x) sigma_B) over product states on the cut.

    Factors are parametrized as exp(H)/tr exp(H) with H Hermitian; descent is
    coordinate-wise golden-section starting from the marginals, so the result
    never exceeds the marginal-mode value.
    """
    a_idx, b_idx = cut.as_lists()
    da = int(np.prod([rho.dims[i] for i in a_idx]))
    db = int(np.prod([rho.dims[i] for i in b_idx]))
    na = _herm_params(da)

    def build(x: np.ndarray) -> DensityMatrix:
        ha = _herm_from_reals(x[:na], da)
        hb = _herm_from_reals(x[na:], db)
        return assemble_on_subsets(
            [_density_from_log(ha), _density_from_log(hb)], [a_idx, b_idx], rho.layout
        )

    def f(x: np.ndarray) -> float:
        return qjsd(rho, build(x))

    if x0 is None:
        ha0 = _log_of_density(np.asarray(partial_trace(rho, a_idx).mat))
        hb0 = _log_of_density(np.asarray(partial_trace(rho, b_idx).mat))
        x = np.concatenate([_reals_from_herm(ha0), _reals_from_herm(hb0)])
    else:
        x = np.array(x0, dtype=float)
    fx = f(x)
    radius = 1.0
    passes = 0
    for _ in range(int(max_passes)):
        passes += 1
        f_start = fx
        for c in range(x.size):
            xc = x[c]

            def g(t: float) -> float:
                x[c] = t
                return f(x)

            t_best, f_best, _ = golden_min(g, xc - radius, xc + radius, iters=22)
            if f_best < fx:
                x[c] = t_best
                fx = f_best
            else:
                x[c] = xc
        radius = max(radius * 0.5, 1e-4)
        if f_start - fx < improvement_tol:
            break
    return fx, build(x), passes, x


# ---------------------------------------------------------------------------
# marginal-mode per-cut values

def _rank(w: np.ndarray) -> int:
    """Number of eigenvalues of an ascending spectrum above the eigensolver's
    noise floor D*eps*lambda_max."""
    return int(np.count_nonzero(w > w.size * _EPS * w[-1]))


def _factor(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of a density matrix and a factor X with X X^dag equal to it,
    save the eigenvalues under the noise floor."""
    w, v = np.linalg.eigh(mat)
    k = w.size - _rank(w)
    return w, v[:, k:] * np.sqrt(w[k:])


def _schmidt_midpoint(psi: np.ndarray, da: int) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights of a pure state whose factors are ordered (A, B), and
    the spectrum of the midpoint between it and the product of its marginals."""
    s = np.linalg.svd(psi.reshape(da, -1), compute_uv=False)
    lam = s * s
    cross = np.outer(lam, lam)[~np.eye(lam.size, dtype=bool)] / 2.0
    core = np.linalg.eigvalsh((np.diag(lam * lam) + np.outer(s, s)) / 2.0)
    return lam, np.concatenate([cross, core])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its per-call overhead on small ones."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _rows_in_order(x: np.ndarray, dims, order) -> np.ndarray:
    """The rows of X, indexed by subsystems in ascending order, reindexed
    with the subsystems in ``order``."""
    r = x.shape[1]
    return x.reshape(dims + (r,)).transpose(order + [len(dims)]).reshape(-1, r)


def _gram_midpoint(x: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Non-zero spectrum of (X X^dag + Y Y^dag)/2, with Y Y^dag = rho_A (x) rho_B,
    from the Gram matrix of [X Y]."""
    ya = _factor(rho_a)[1]
    yb = _factor(rho_b)[1]
    y = _kron(ya, yb)
    z = np.hstack([x, y])
    return np.linalg.eigvalsh(z.conj().T @ z) / 2.0


def _dense_midpoint(rho: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Spectrum of (rho + rho_A (x) rho_B)/2 by one dense eigensolve."""
    return np.linalg.eigvalsh((rho + _kron(rho_a, rho_b)) / 2.0)


def _cut_divergences(rho: DensityMatrix, cuts: Sequence[Bipartition]) -> list[float]:
    """qjsd(rho, product_of_marginals(rho, cut)) for every cut, from one
    eigendecomposition of rho (the branches are in the module docstring).

    Each cut works with its factors reordered as (A, B), where rho_A (x) rho_B
    is a plain Kronecker product; the reordering is a permutation of the
    basis, which leaves every spectrum unchanged.
    """
    dims, dim = rho.dims, rho.dim
    mat = np.asarray(rho.mat)
    w, x = _factor(mat)
    s_rho = entropy_of_spectrum(w)
    r = x.shape[1]
    out = []
    for cut in cuts:
        a_idx, b_idx = cut.as_lists()
        order = a_idx + b_idx
        da = math.prod(dims[i] for i in a_idx)
        db = dim // da
        if r == 1:
            lam, mid = _schmidt_midpoint(_rows_in_order(x, dims, order), da)
            # rho_A and rho_B of a pure state share the spectrum lam
            s_sigma = 2.0 * entropy_of_spectrum(lam)
        else:
            rho_ab = _permute_raw(mat, dims, order)
            # the two partial traces of rho_ab, whose factors are already (A, B)
            t = rho_ab.reshape(da, db, da, db)
            rho_a = np.einsum("ijkj->ik", t)
            rho_b = np.einsum("ijil->jl", t)
            wa = np.linalg.eigvalsh(rho_a)
            wb = np.linalg.eigvalsh(rho_b)
            s_sigma = entropy_of_spectrum(wa) + entropy_of_spectrum(wb)
            if r + _rank(wa) * _rank(wb) < dim:
                mid = _gram_midpoint(_rows_in_order(x, dims, order), rho_a, rho_b)
            else:
                mid = _dense_midpoint(rho_ab, rho_a, rho_b)
        out.append(entropy_of_spectrum(mid) - 0.5 * s_rho - 0.5 * s_sigma)
    return out


# ---------------------------------------------------------------------------
# the headline quantity

def phi(
    rho: DensityMatrix,
    mode: str = "marginal",
    *,
    n_cap: int = DEFAULT_N_CAP,
    tie_tol: float = TIE_TOL,
    probe_starts: int = 0,
    probe_seed: int = 0,
) -> PhiResult:
    """Integrated information of the state, minimized over canonical bipartitions.

    ``probe_starts`` (optimized mode) reruns the descent from that many
    perturbed initializations and records the spread of the resulting optima,
    as a uniqueness diagnostic.
    """
    if mode not in ("marginal", "optimized"):
        raise BadParameter(f"unknown mode {mode!r}")
    n = rho.n
    if n < 2:
        raise SingleSubsystem("phi needs at least two subsystems")
    if n > n_cap:
        raise SearchBudgetExceeded(f"n={n} exceeds the configured cap {n_cap}")
    cuts = enumerate_bipartitions(n)
    per_cut = list(zip(cuts, _cut_divergences(rho, cuts)))
    vmin = min(v for _, v in per_cut)
    ties = tuple(c for c, v in per_cut if v <= vmin + tie_tol)
    optimal = ties[0]
    if mode == "marginal":
        return PhiResult(
            phi=vmin,
            optimal_cut=optimal,
            sigma_star=product_of_marginals(rho, optimal),
            per_cut=tuple(per_cut),
            ties=ties,
            mode=mode,
            phi_marginal=vmin,
        )
    best = None
    for cut in ties:
        val, sigma, _passes, xopt = _refine_product(rho, cut)
        if best is None or val < best[0]:
            best = (val, cut, sigma, xopt)
    val, cut, sigma, xopt = best
    spread = None
    if probe_starts > 0:
        rng = np.random.default_rng(probe_seed)
        devs = []
        for _ in range(int(probe_starts)):
            x_init = xopt + 0.05 * rng.standard_normal(xopt.size)
            v2, s2, _, _ = _refine_product(rho, cut, x0=x_init)
            devs.append(float(np.max(np.abs(np.asarray(s2.mat) - np.asarray(sigma.mat)))))
        spread = max(devs)
    return PhiResult(
        phi=val,
        optimal_cut=cut,
        sigma_star=sigma,
        per_cut=tuple(per_cut),
        ties=ties,
        mode=mode,
        phi_marginal=vmin,
        phi_refined=val,
        refinement_spread=spread,
    )


def min_over_partitions(rho: DensityMatrix, max_n: int = 6):
    """Exhaustive minimum of the partition divergence over every k >= 2 partition.

    Returns (best_value, best_partition); used to confirm that bipartitions
    already attain the global minimum.
    """
    best: Optional[tuple[float, PartitionKBlocks]] = None
    for p in enumerate_partitions(rho.n, max_n=max_n):
        v = divergence_for_partition(rho, p)
        if best is None or v < best[0]:
            best = (v, p)
    return best


# ---------------------------------------------------------------------------
# empirical checkers (convexity is measured, not assumed)

@dataclass(frozen=True)
class ConvexityReport:
    t_grid: tuple[float, ...]
    violations: tuple[float, ...]  # phi(mix) - [t phi1 + (1-t) phi2], positive = violation
    max_violation: float


def convexity_check(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    t_grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    mode: str = "marginal",
) -> ConvexityReport:
    if rho1.dims != rho2.dims:
        raise BadParameter("states must share a layout")
    p1 = phi(rho1, mode).phi
    p2 = phi(rho2, mode).phi
    viol = []
    for t in t_grid:
        if not 0.0 <= t <= 1.0:
            raise BadParameter(f"mixing weight {t} outside [0, 1]")
        mix = DensityMatrix(
            rho1.layout, t * np.asarray(rho1.mat) + (1.0 - t) * np.asarray(rho2.mat)
        )
        viol.append(phi(mix, mode).phi - (t * p1 + (1.0 - t) * p2))
    mx = max(viol)
    return ConvexityReport(tuple(float(t) for t in t_grid), tuple(viol), mx)


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float  # |sqrt(phi1) - sqrt(phi2)|
    rhs: float  # delta(rho1, rho2)
    violation: float  # lhs - rhs


def lipschitz_check(rho1: DensityMatrix, rho2: DensityMatrix, mode: str = "marginal") -> LipschitzReport:
    """Compares the sqrt-phi gap against the state distance (1-Lipschitz bound)."""
    if rho1.dims != rho2.dims:
        raise BadParameter("states must share a layout")
    p1 = max(phi(rho1, mode).phi, 0.0)
    p2 = max(phi(rho2, mode).phi, 0.0)
    lhs = abs(float(np.sqrt(p1)) - float(np.sqrt(p2)))
    rhs = delta(rho1, rho2)
    return LipschitzReport(lhs=lhs, rhs=rhs, violation=lhs - rhs)
