"""Integrated information of a multipartite state.

Phi is the minimum quantum Jensen-Shannon divergence between the state and a
product state across a bipartition. ``marginal`` mode scores every cut with
the literal product of its marginals. ``optimized`` mode refines the product
factors on every cut by matrix exponentiated-gradient descent in log space
(:func:`_refine_product`), starting from the marginals, and reports the
minimum over cuts of the refined values; no cut reports more than its
marginal value, so phi <= phi_marginal. ``ties`` and ``per_cut`` are the
marginal-mode values in both modes.

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

The value of a cut does not depend on which side comes first, so each cut
puts its smaller side first, and cuts whose smaller sides have the same
dimension are evaluated together, from a per-layout plan (:func:`_cut_plan`,
cached): one gather reorders rho for every cut of a chunk, one batched
partial trace gives their marginals, and one stacked eigensolve per side
gives the marginal spectra; the dense branch runs one stacked midpoint
eigensolve per chunk. A chunk holds at most 1 MB of D x D matrices, so
D = 256 still goes one cut at a time.

:func:`partition_divergences` scores k-block partitions the same way: S(rho)
once, each distinct block marginal once, S(sigma) as the sum of the block
entropies, and the midpoints in stacks.

The dense qjsd of :mod:`qphi.divergence` is the reference the tests hold
every branch to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .divergence import _stack_len, _stacked_entropies, delta, entropies, entropy_of_spectrum
from .errors import (
    BadParameter,
    InvalidPartition,
    SearchBudgetExceeded,
    SingleSubsystem,
)
from .states import (
    Bipartition,
    DensityMatrix,
    _kron,
    _permute_raw,
    _split_marginals,
    assemble_on_subsets,
    enumerate_bipartitions,
    partial_trace,
    product_of_marginals,
)

TIE_TOL = 1e-9
DEFAULT_N_CAP = 12
REFINE_IMPROVEMENT_TOL = 1e-12
REFINE_MAX_STEPS = 1000
_MAX_HALVINGS = 60
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class PhiResult:
    """Outcome of a Phi evaluation.

    ``phi`` is the headline value for the requested mode; ``phi_marginal``
    always carries the plain product-of-marginals minimum, and
    ``phi_refined`` the minimum over cuts of the refined values (optimized
    mode only). ``per_cut`` and ``ties`` hold the marginal-mode values.
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


def partition_divergences(rho: DensityMatrix, partitions) -> list[float]:
    """:func:`divergence_for_partition` of every partition, from shared work.

    S(rho) is computed once and each distinct block marginal once; S(sigma)
    is the sum of the block entropies, since S is additive over a product; rho
    and every midpoint (rho + sigma)/2 are eigensolved in stacks.
    """
    parts = [as_partition(p, rho.n) for p in partitions]
    marg = {}
    for p in parts:
        for b in p.blocks:
            if b not in marg:
                marg[b] = np.asarray(partial_trace(rho, b).mat)
    by_dim: dict[int, list[frozenset[int]]] = {}
    for b, m in marg.items():
        by_dim.setdefault(m.shape[0], []).append(b)
    ent = {}
    for d, blocks in by_dim.items():
        mats = np.stack([marg[b] for b in blocks])
        ent.update(zip(blocks, _stacked_entropies(lambda a, b: mats[a:b], len(blocks), d)))
    mat = np.asarray(rho.mat)

    def midpoint(k):
        if k == 0:
            return mat  # rho itself, for S(rho)
        blocks = parts[k - 1].blocks
        subs = [sorted(b) for b in blocks]
        sigma = assemble_on_subsets([marg[b] for b in blocks], subs, rho.layout)
        return (mat + np.asarray(sigma.mat)) / 2.0

    s = _stacked_entropies(
        lambda a, b: np.stack([midpoint(k) for k in range(a, b)]), len(parts) + 1, rho.dim
    )
    return [
        float(s_mid - 0.5 * s[0] - 0.5 * sum(ent[b] for b in p.blocks))
        for s_mid, p in zip(s[1:], parts)
    ]


def divergence_for_partition(rho: DensityMatrix, blocks) -> float:
    """QJSD between the state and the product of its block marginals."""
    return partition_divergences(rho, [blocks])[0]


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
    before, after = partition_divergences(rho, [p, merge_blocks(p, i, j)])
    return before, after


# ---------------------------------------------------------------------------
# optimized-mode refinement

def _log_of_density(mat: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, floor, None)
    return (v * np.log(w)) @ v.conj().T


def _exp_factor(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spectrum, spectrum and eigenvectors of exp(H)/tr exp(H). The
    log-spectrum comes from H, so it stays finite where the spectrum underflows."""
    w, v = np.linalg.eigh(h)
    logp = w - w.max()
    logp -= math.log(float(np.sum(np.exp(logp))))
    return logp, np.exp(logp), v


def _refine_product(
    rho: DensityMatrix, cut: Bipartition, start: Optional[tuple[np.ndarray, np.ndarray]] = None
):
    """Minimize qjsd(rho, sigma_A (x) sigma_B) over product states on the cut.

    Matrix exponentiated-gradient (mirror) descent (Tsuda, Raetsch & Warmuth,
    JMLR 2005). Each factor is sigma = exp(H)/tr exp(H), and H starts at the
    log of the marginal (eigenvalues floored at 1e-12) unless ``start`` gives
    (H_A, H_B). The gradient of qjsd in sigma is G = (log sigma - log m)/2,
    with m = (rho + sigma)/2; its partial traces G_A = tr_B[(1 (x) sigma_B) G]
    and G_B = tr_A[(sigma_A (x) 1) G] give the step H_A <- H_A - eta G_A,
    H_B <- H_B - eta G_B. eta is halved until the value does not rise and
    doubled after every accepted step. Each trial costs one eigensolve of m,
    which gives both S(m) and log m; S(rho) is computed once. The descent stops
    when a step gains less than REFINE_IMPROVEMENT_TOL, or after
    REFINE_MAX_STEPS steps.

    Returns (value, sigma, steps, (H_A, H_B)).
    """
    a_idx, b_idx = cut.as_lists()
    da = math.prod(rho.dims[i] for i in a_idx)
    db = rho.dim // da
    # with the factors ordered (A, B), sigma is a plain Kronecker product
    rho_ab = _permute_raw(np.asarray(rho.mat), rho.dims, a_idx + b_idx)
    s_rho = entropy_of_spectrum(np.linalg.eigvalsh(rho_ab))
    if start is None:
        start = tuple(_log_of_density(m) for m in _split_marginals(rho_ab, da))

    def evaluate(h):
        (la, pa, va), (lb, pb, vb) = _exp_factor(h[0]), _exp_factor(h[1])
        sa, sb = (va * pa) @ va.conj().T, (vb * pb) @ vb.conj().T
        wm, vm = np.linalg.eigh((rho_ab + _kron(sa, sb)) / 2.0)
        s_sigma = entropy_of_spectrum(pa) + entropy_of_spectrum(pb)
        value = entropy_of_spectrum(wm) - 0.5 * s_rho - 0.5 * s_sigma
        return value, h, (la, va, lb, vb, sa, sb, wm, vm)

    value, h, point = evaluate(start)
    eta, steps = 1.0, 0
    while steps < REFINE_MAX_STEPS:
        la, va, lb, vb, sa, sb, wm, vm = point
        # G_A and G_B up to multiples of the identity, which exp(H)/tr exp(H)
        # does not see
        log_m = (vm * np.log(np.clip(wm, _TINY, None))) @ vm.conj().T
        log_m = log_m.reshape(da, db, da, db)
        ga = 0.5 * ((va * la) @ va.conj().T - np.einsum("jm,imkj->ik", sb, log_m))
        gb = 0.5 * ((vb * lb) @ vb.conj().T - np.einsum("im,mjil->jl", sa, log_m))
        for _ in range(_MAX_HALVINGS):
            trial = evaluate((h[0] - eta * ga, h[1] - eta * gb))
            if trial[0] <= value:
                break
            eta *= 0.5
        else:
            break
        steps += 1
        gain = value - trial[0]
        value, h, point = trial
        eta *= 2.0
        if gain < REFINE_IMPROVEMENT_TOL:
            break
    sigma = assemble_on_subsets([point[4], point[5]], [a_idx, b_idx], rho.layout)
    return value, sigma, steps, h


# ---------------------------------------------------------------------------
# marginal-mode per-cut values

def _rank(w: np.ndarray):
    """Number of eigenvalues of an ascending spectrum (or of each row of a
    stack of them) above the eigensolver's noise floor D*eps*lambda_max."""
    return (w > w.shape[-1] * _EPS * w[..., -1:]).sum(axis=-1)


def _factor(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of a density matrix and a factor X with X X^dag equal to it,
    save the eigenvalues under the noise floor."""
    w, v = np.linalg.eigh(mat)
    k = w.size - int(_rank(w))
    return w, v[:, k:] * np.sqrt(w[k:])


def _schmidt_midpoint(psi: np.ndarray, da: int) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights of a pure state whose factors are ordered (A, B), and
    the spectrum of the midpoint between it and the product of its marginals."""
    s = np.linalg.svd(psi.reshape(da, -1), compute_uv=False)
    lam = s * s
    cross = np.outer(lam, lam)[~np.eye(lam.size, dtype=bool)] / 2.0
    core = np.linalg.eigvalsh((np.diag(lam * lam) + np.outer(s, s)) / 2.0)
    return lam, np.concatenate([cross, core])


def _gram_midpoint(x: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Non-zero spectrum of (X X^dag + Y Y^dag)/2, with Y Y^dag = rho_A (x) rho_B,
    from the Gram matrix of [X Y]."""
    ya = _factor(rho_a)[1]
    yb = _factor(rho_b)[1]
    y = _kron(ya, yb)
    z = np.hstack([x, y])
    return np.linalg.eigvalsh(z.conj().T @ z) / 2.0


def _dense_midpoint(rho: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Spectra of a stack of midpoints (rho + rho_A (x) rho_B)/2, by one
    stacked dense eigensolve."""
    return np.linalg.eigvalsh((rho + _kron(rho_a, rho_b)) / 2.0)


@lru_cache(maxsize=32)
def _cut_plan(dims: tuple[int, ...], step: int):
    """The canonical cuts of a layout, each with its smaller side first,
    grouped by that side's dimension d in chunks of at most ``step`` cuts:
    (d, the cuts' positions in enumerate_bipartitions order, each cut's
    subsystem order, first side then second). Only the orders are kept, not
    the D-long basis permutations they give."""
    dim = math.prod(dims)
    groups: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for k, cut in enumerate(enumerate_bipartitions(len(dims))):
        a_idx, b_idx = cut.as_lists()
        da = math.prod(dims[i] for i in a_idx)
        if da * da > dim:
            a_idx, b_idx, da = b_idx, a_idx, dim // da
        groups.setdefault(da, []).append((k, tuple(a_idx + b_idx)))
    plan = []
    for da, members in sorted(groups.items()):
        for s in range(0, len(members), step):
            chunk = members[s:s + step]
            plan.append((da, tuple(k for k, _ in chunk), tuple(o for _, o in chunk)))
    return tuple(plan)


def _cut_divergences(rho: DensityMatrix) -> list[float]:
    """qjsd(rho, product_of_marginals(rho, cut)) for every canonical cut, in
    enumerate_bipartitions order, from one eigendecomposition of rho (the
    branches are in the module docstring).

    Each cut works with its factors reordered as (A, B), smaller side first,
    where rho_A (x) rho_B is a plain Kronecker product; the reordering is a
    permutation of the basis, which leaves every spectrum unchanged.
    """
    dims, dim = rho.dims, rho.dim
    mat = np.asarray(rho.mat)
    w, x = _factor(mat)
    s_rho = entropy_of_spectrum(w)
    r = x.shape[1]
    base = np.arange(dim).reshape(dims)
    out = np.empty(2 ** (rho.n - 1) - 1)
    for da, index, orders in _cut_plan(dims, _stack_len(dim)):
        # row perm[c, i] of the reordered basis is row i of the original one
        perm = np.stack([base.transpose(o).reshape(-1) for o in orders])
        if r == 1:
            for k, p in zip(index, perm):
                lam, mid = _schmidt_midpoint(x[p], da)
                # rho_A and rho_B of a pure state share the spectrum lam
                s_sigma = 2.0 * entropy_of_spectrum(lam)
                out[k] = entropy_of_spectrum(mid) - 0.5 * s_rho - 0.5 * s_sigma
            continue
        rho_ab = mat[perm[:, :, None], perm[:, None, :]]
        rho_a, rho_b = _split_marginals(rho_ab, da)
        wa, wb = np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b)
        s_sigma = entropies(wa) + entropies(wb)
        s_mid = np.empty(len(index))
        gram = r + _rank(wa) * _rank(wb) < dim
        # a slice takes views, not copies, when every cut of the chunk is dense
        dense = ~gram if gram.any() else slice(None)
        if not gram.all():
            s_mid[dense] = entropies(_dense_midpoint(rho_ab[dense], rho_a[dense], rho_b[dense]))
        for c in np.flatnonzero(gram):
            s_mid[c] = entropy_of_spectrum(_gram_midpoint(x[perm[c]], rho_a[c], rho_b[c]))
        out[list(index)] = s_mid - 0.5 * s_rho - 0.5 * s_sigma
    return out.tolist()


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
    per_cut = list(zip(cuts, _cut_divergences(rho)))
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
    for cut, marginal in per_cut:
        val, sigma, _steps, h = _refine_product(rho, cut)
        # the descent starts from the marginals floored at 1e-12, so it can
        # end a round-off above the marginal value
        if marginal < val:
            val, sigma = marginal, product_of_marginals(rho, cut)
        if best is None or val < best[0]:
            best = (val, cut, sigma, h)
    val, cut, sigma, hopt = best
    spread = None
    if probe_starts > 0:
        rng = np.random.default_rng(probe_seed)
        devs = []
        for _ in range(int(probe_starts)):
            z = [rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape) for h in hopt]
            h_init = tuple(h + 0.025 * (g + g.conj().T) for h, g in zip(hopt, z))
            _, s2, _, _ = _refine_product(rho, cut, start=h_init)
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
    parts = enumerate_partitions(rho.n, max_n=max_n)
    values = partition_divergences(rho, parts)
    k = int(np.argmin(values))
    return values[k], parts[k]


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
