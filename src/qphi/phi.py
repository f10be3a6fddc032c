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
the two marginal spectra, and S(m) from one of four branches:

- rank 1 (pure rho): the Schmidt closed form (Nielsen & Chuang 2.5). One SVD
  of the state vector, reshaped to d_A x d_B, gives the r = min(d_A, d_B)
  Schmidt weights lambda, which are the spectrum of both marginals; m has
  eigenvalues lambda_i lambda_j / 2 for i != j and those of the r x r matrix
  (diag(lambda^2) + sqrt(lambda) sqrt(lambda)^T) / 2.
- rank rho + rank rho_A * rank rho_B < D: m = Z Z^dag with Z = [X Y]/sqrt(2),
  Y the Kronecker product of the marginal factors, so its non-zero spectrum
  is that of the smaller Gram matrix Z^dag Z.
- both marginals of full rank and r = rank rho small (:func:`_resolvent_pays`:
  12 (r + 4) <= D and r^2 <= D): m is diag(a) + W W^dag in the eigenbasis of
  sigma/2 = U diag(a) U^dag, U = U_A (x) U_B, with W = U^dag X / sqrt(2) of r
  columns, and
  S(m) = -sum_i (a_i + |w_i|^2) ln a_i - int_0^inf tr[(I + G)^-1 (H + G^2)] dt,
  G(t) = W^dag (A + t)^-1 W, H(t) = W^dag A (A + t)^-2 W, from the integral
  form of the matrix logarithm (Higham, Functions of Matrices, SIAM 2008)
  and the Woodbury identity: r x r matrices only. The trapezoidal rule in
  u = ln t, step 1/2 on [ln a_min - 37, 37], takes the integral to about
  1e-16 (Trefethen & Weideman, SIAM Review 56, 2014); see
  :func:`_resolvent_midpoint`.
- otherwise: one dense eigensolve of m.

The value of a cut does not depend on which side comes first, so each cut
puts its smaller side first, and cuts whose smaller sides have the same
dimension are evaluated together, from a per-layout plan (:func:`_cut_plan`,
cached). A cut's marginals come straight from rho, one contraction per side
(:func:`~qphi.states._partial_trace_raw`), with one stacked eigensolve per
side. Only the dense branch reorders rho, gathering the cuts it scores for
one stacked midpoint eigensolve; the others read permuted rows of psi or X.
A chunk holds at most 1 MB of D x D matrices, so D = 256 still goes one cut
at a time. The kernel, :func:`_cut_divergences`, takes a stack of states of
one layout and runs the plan once for all of them, choosing the branch per
state and cut; :func:`phi` calls it with a stack of one.

:func:`partition_divergences` scores k-block partitions the same way, also
on stacks of states: S(rho) once, each distinct block marginal once,
S(sigma) as the sum of the block entropies, and the midpoints in stacks.

The dense qjsd of :mod:`qphi.divergence` is the reference the tests hold
every branch to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .divergence import _pair_divergences, _stack_len, entropies
from .errors import (
    BadParameter,
    InvalidPartition,
    LayoutMismatch,
    NumericalBreakdown,
    SingleSubsystem,
)
from .states import (
    Bipartition,
    DensityMatrix,
    SubsystemLayout,
    _assemble_raw,
    _indices,
    _int,
    _kron,
    _real,
    _partial_trace_raw,
    _permute_raw,
    _spectral,
    assemble_on_subsets,
    enumerate_bipartitions,
    product_of_marginals,
)

TIE_TOL = 1e-9
PARTITION_N_MAX = 6  # exhaustive k-block enumeration stops here (202 partitions)
REFINE_IMPROVEMENT_TOL = 1e-12
REFINE_MAX_STEPS = 1000
_LOG_FLOOR = 1e-12  # eigenvalue floor of the marginal logs the descent starts from
_MAX_HALVINGS = 60
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# trapezoidal nodes of the resolvent branch, in u = ln t (see _resolvent_midpoint)
_NODE_STEP = 0.5
_NODE_SPAN = 37.0


@dataclass(frozen=True)
class PhiResult:
    """Outcome of a Phi evaluation.

    ``phi`` is the headline value for the requested mode (in optimized mode,
    the minimum over cuts of the refined values); ``phi_marginal`` always
    carries the plain product-of-marginals minimum. ``per_cut`` and ``ties``
    hold the marginal-mode values.
    ``sigma_star`` is the closest product state found; in marginal mode it is
    built on first access.
    """

    phi: float
    optimal_cut: Bipartition
    per_cut: tuple[tuple[Bipartition, float], ...]
    ties: tuple[Bipartition, ...]
    mode: str
    phi_marginal: float
    refinement_spread: Optional[float] = None
    # sigma_star, or a function of no arguments that builds it
    sigma: Union[DensityMatrix, Callable[[], DensityMatrix], None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def sigma_star(self) -> DensityMatrix:
        if callable(self.sigma):
            object.__setattr__(self, "sigma", self.sigma())
        return self.sigma

    @property
    def tie_count(self) -> int:
        return len(self.ties)


@dataclass(frozen=True)
class PartitionKBlocks:
    """A partition of range(n) into k >= 2 blocks, canonically ordered by minimum."""

    blocks: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self):
        _int(self.n, 2, InvalidPartition, "subsystem count")
        blocks = tuple(
            frozenset(_indices(b, self.n, InvalidPartition, "block indices")) for b in self.blocks
        )
        if len(blocks) < 2:
            raise InvalidPartition("a partition needs at least 2 blocks")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise InvalidPartition("empty block")
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
    """:func:`divergence_for_partition` of every partition, from shared work
    (:func:`_partition_divergences` on a stack of one)."""
    parts = [as_partition(p, rho.n) for p in partitions]
    for p in parts:
        if p.n != rho.n:
            raise LayoutMismatch(f"partition over n={p.n} applied to state with n={rho.n}")
    if not parts:
        return []
    return _partition_divergences(np.asarray(rho.mat)[None], rho.dims, parts)[0].tolist()


def _partition_divergences(
    mats: np.ndarray, dims: tuple[int, ...], parts: Sequence[PartitionKBlocks]
) -> np.ndarray:
    """:func:`divergence_for_partition` of every state of an (S, D, D) stack
    and every partition: an (S, partitions) array.

    S(rho) is computed once per state and each distinct block marginal once,
    by one batched partial trace over the stack; S(sigma) is the sum of the
    block entropies, since S is additive over a product. Each eigensolve is
    one stacked call over the S states: one for the states, one per distinct
    block and one per partition's midpoints (rho + sigma)/2.
    """
    marg = {}
    for p in parts:
        for b in p.blocks:
            if b not in marg:
                marg[b] = _partial_trace_raw(mats, dims, sorted(b))
    ent = {b: entropies(np.linalg.eigvalsh(m)) for b, m in marg.items()}
    s_rho = entropies(np.linalg.eigvalsh(mats))
    cols = []
    for p in parts:
        sigma = _assemble_raw([marg[b] for b in p.blocks], [sorted(b) for b in p.blocks], dims)
        s_mid = entropies(np.linalg.eigvalsh((mats + sigma) / 2.0))
        cols.append(s_mid - 0.5 * s_rho - 0.5 * sum(ent[b] for b in p.blocks))
    return np.stack(cols, axis=1)


def divergence_for_partition(rho: DensityMatrix, blocks) -> float:
    """QJSD between the state and the product of its block marginals."""
    return partition_divergences(rho, [blocks])[0]


def enumerate_partitions(n: int) -> list[PartitionKBlocks]:
    """Every set partition of range(n) with at least two blocks, for n up to
    ``PARTITION_N_MAX``."""
    if _int(n, 1, BadParameter, "subsystem count") > PARTITION_N_MAX:
        raise BadParameter(f"exhaustive partition enumeration capped at n={PARTITION_N_MAX}")
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
    ij = _indices((i, j), p.k, InvalidPartition, "merged block indices")
    if len(ij) < 2:
        raise InvalidPartition(f"cannot merge block {i} with itself")
    merged = [set(b) for b in p.blocks]
    merged[ij[0]] |= merged[ij[1]]
    del merged[ij[1]]
    return PartitionKBlocks(tuple(frozenset(b) for b in merged), p.n)


def merge_inequality_check(rho: DensityMatrix, p: PartitionKBlocks, i: int, j: int):
    """Divergence before and after merging two blocks; coarsening should not increase it."""
    if p.k < 3:
        raise InvalidPartition("merging requires at least 3 blocks")
    before, after = partition_divergences(rho, [p, merge_blocks(p, i, j)])
    return before, after


# ---------------------------------------------------------------------------
# optimized-mode refinement

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
    s_rho = entropies(np.linalg.eigvalsh(rho_ab))
    if start is None:
        eigs = (np.linalg.eigh(_partial_trace_raw(rho.mat, rho.dims, s)) for s in (a_idx, b_idx))
        start = tuple(_spectral(v, np.log(np.clip(w, _LOG_FLOOR, None))) for w, v in eigs)

    def evaluate(h):
        (la, pa, va), (lb, pb, vb) = _exp_factor(h[0]), _exp_factor(h[1])
        sa, sb = _spectral(va, pa), _spectral(vb, pb)
        wm, vm = np.linalg.eigh((rho_ab + _kron(sa, sb)) / 2.0)
        s_sigma = entropies(pa) + entropies(pb)
        value = float(entropies(wm) - 0.5 * s_rho - 0.5 * s_sigma)
        return value, h, (la, va, lb, vb, sa, sb, wm, vm)

    value, h, point = evaluate(start)
    eta, steps = 1.0, 0
    while steps < REFINE_MAX_STEPS:
        la, va, lb, vb, sa, sb, wm, vm = point
        # G_A and G_B up to multiples of the identity, which exp(H)/tr exp(H)
        # does not see
        log_m = _spectral(vm, np.log(np.clip(wm, _TINY, None))).reshape(da, db, da, db)
        ga = 0.5 * (_spectral(va, la) - np.einsum("jm,imkj->ik", sb, log_m))
        gb = 0.5 * (_spectral(vb, lb) - np.einsum("im,mjil->jl", sa, log_m))
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


def _factor(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A factor X with X X^dag equal to the density matrix whose
    eigendecomposition is (w, v), save the eigenvalues under the noise floor."""
    k = w.size - int(_rank(w))
    return v[:, k:] * np.sqrt(w[k:])


def _schmidt_midpoint(psi: np.ndarray, da: int) -> tuple[np.ndarray, np.ndarray]:
    """Schmidt weights of pure states, a stack of vectors whose factors are
    ordered (A, B), and the spectra of the midpoints between them and the
    products of their marginals."""
    s = np.linalg.svd(psi.reshape(psi.shape[:-1] + (da, -1)), compute_uv=False)
    lam = s * s
    r = lam.shape[-1]
    cross = (lam[..., :, None] * lam[..., None, :])[..., ~np.eye(r, dtype=bool)] / 2.0
    diag = np.zeros(lam.shape + (r,))
    diag[..., np.arange(r), np.arange(r)] = lam * lam
    core = np.linalg.eigvalsh((diag + s[..., :, None] * s[..., None, :]) / 2.0)
    return lam, np.concatenate([cross, core], axis=-1)


def _gram_midpoint(x: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Non-zero spectrum of (X X^dag + Y Y^dag)/2, with Y Y^dag = rho_A (x) rho_B,
    from the Gram matrix of [X Y]."""
    y = _kron(_factor(*np.linalg.eigh(rho_a)), _factor(*np.linalg.eigh(rho_b)))
    z = np.hstack([x, y])
    return np.linalg.eigvalsh(z.conj().T @ z) / 2.0


def _resolvent_pays(dim: int, r):
    """Whether the resolvent branch beats the dense eigensolve of a D x D
    midpoint when rho has rank r (elementwise for an array of ranks).

    On one core of a 2-vCPU host (OpenBLAS, one thread) the two took equal
    time at r of about 2, 7, 11, 11, 14 and 18 for D = 64, 96, 128, 144, 192
    and 256, which D = 12 r + 20 fits. The rule 12 (r + 4) <= D stays two
    ranks inside that line, so D <= 64 never takes the branch; r^2 <= D keeps
    its D x r^2 table within one D x D matrix."""
    return (12 * (r + 4) <= dim) & (r * r <= dim)


def _resolvent_midpoint(
    x: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray, wa: np.ndarray, wb: np.ndarray
) -> float:
    """S(m) of the midpoint m = (X X^dag + rho_A (x) rho_B)/2 from r x r
    matrices, r the columns of X, when both marginals have full rank; wa and
    wb are their ascending spectra (the formula is in the module docstring).

    The integrand, in u = ln t, is analytic in |Im u| < pi: its poles sit at
    t = -a_i and at minus the eigenvalues of m. The trapezoidal rule with
    step h = 1/2 therefore errs by about exp(-2 pi^2 / h) = 7e-18 times the
    integrand's size. The integrand is at most t / (2 a_min) and 1 / (2 t),
    so the tails cut off below ln a_min - 37 and above 37 are each under
    e^-37 / 2 = 4e-17. The nodes go D at a time, so no table is larger than
    one D x D matrix.
    """
    da, db = rho_a.shape[-1], rho_b.shape[-1]
    dim, r = x.shape
    ua, ub = np.linalg.eigh(rho_a)[1], np.linalg.eigh(rho_b)[1]
    w = ub.conj().T @ (ua.conj().T @ x.reshape(da, db * r)).reshape(da, db, r)
    w = w.reshape(dim, r) / math.sqrt(2.0)
    a = np.multiply.outer(wa, wb).reshape(-1) / 2.0
    head = -float(np.dot(a + (w.real * w.real + w.imag * w.imag).sum(axis=1), np.log(a)))
    # row d holds conj(w_d)^T w_d as 2 r^2 reals, so each node's row of
    # (a_d + t)^-1, times this table, is G(t) (and of a_d (a_d + t)^-2, H(t))
    rows = (w.conj()[:, :, None] * w[:, None, :]).reshape(dim, r * r).view(float)
    t = np.exp(np.arange(math.log(a.min()) - _NODE_SPAN, _NODE_SPAN + _NODE_STEP / 2, _NODE_STEP))
    diag = np.arange(r)
    integral = 0.0
    for k in range(0, t.size, dim):
        tk = t[k:k + dim]
        res = 1.0 / (a + tk[:, None])
        g = (res @ rows).view(complex).reshape(-1, r, r)
        res *= res
        res *= a
        h = (res @ rows).view(complex).reshape(-1, r, r) + g @ g
        g[:, diag, diag] += 1.0
        integral += float(np.dot(tk, np.trace(np.linalg.solve(g, h), axis1=1, axis2=2).real))
    return head - _NODE_STEP * integral


def _dense_midpoint(rho: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Spectra of a stack of midpoints (rho + rho_A (x) rho_B)/2, by one
    stacked dense eigensolve. The midpoints are built in one buffer: the
    Kronecker products are written into it, then rho is added and the sum
    halved in place. Addition commutes and halving is exact, so the bits are
    those of (rho + rho_A (x) rho_B) / 2 without its two temporaries."""
    da, db = rho_a.shape[-1], rho_b.shape[-1]
    mid = np.empty(rho.shape, np.result_type(rho, rho_a, rho_b))
    np.multiply(
        rho_a[..., :, None, :, None],
        rho_b[..., None, :, None, :],
        out=mid.reshape(mid.shape[:-2] + (da, db, da, db)),
    )
    mid += rho
    mid /= 2.0
    return np.linalg.eigvalsh(mid)


@lru_cache(maxsize=32)
def _cut_plan(dims: tuple[int, ...], step: int):
    """The canonical cuts of a layout, each with its smaller side first,
    grouped by that side's dimension d in chunks of at most ``step`` cuts:
    (d, the cuts' positions in enumerate_bipartitions order, each cut's two
    sorted sides, first then second). Only the sides are kept, not the D-long
    basis permutations they give."""
    dim = math.prod(dims)
    groups: dict[int, list] = {}
    for k, cut in enumerate(enumerate_bipartitions(len(dims))):
        a_idx, b_idx = cut.as_lists()
        da = math.prod(dims[i] for i in a_idx)
        if da * da > dim:
            a_idx, b_idx, da = b_idx, a_idx, dim // da
        groups.setdefault(da, []).append((k, (tuple(a_idx), tuple(b_idx))))
    plan = []
    for da, members in sorted(groups.items()):
        for s in range(0, len(members), step):
            chunk = members[s:s + step]
            plan.append((da, tuple(k for k, _ in chunk), tuple(sides for _, sides in chunk)))
    return tuple(plan)


def _perm(base: np.ndarray, sides) -> np.ndarray:
    """Row perm[c, i] of the basis reordered as sides[c] (first side, then
    second) is row i of the original; ``base`` is arange(D) shaped as the layout."""
    return np.stack([base.transpose(a + b).reshape(-1) for a, b in sides])


def _cut_divergences(mats: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """qjsd(rho, product_of_marginals(rho, cut)) for every state of an
    (S, D, D) stack and every canonical cut, in enumerate_bipartitions order:
    an (S, cuts) array, from one eigendecomposition of each state (the
    branches are in the module docstring).

    Each cut works with its factors ordered (A, B), smaller side first, where
    rho_A (x) rho_B is a plain Kronecker product; the reordering is a
    permutation of the basis, which leaves every spectrum unchanged. The
    states go through the cut plan together: per chunk of cuts, one partial
    trace per side gives each mixed state's marginals, stacked eigensolves
    their spectra, and the branch is chosen per state and cut; only the dense
    branch's (state, cut) pairs are gathered in (A, B) order. Callers pass
    at most ``_stack_len(D)`` states, and no stack built here holds more than
    ``_STACK_BYTES`` of matrices. A state of rank 0, which is neither pure nor
    mixed, raises :class:`NumericalBreakdown`.
    """
    dims = tuple(dims)
    count, dim = mats.shape[0], mats.shape[-1]
    step = _stack_len(dim)
    vstep = _stack_len(dim, 1)
    plan = _cut_plan(dims, step)
    base = np.arange(dim).reshape(dims)
    out = np.empty((count, 2 ** (len(dims) - 1) - 1))
    w, v = np.linalg.eigh(mats)
    rank = _rank(w)
    if not rank.all():
        raise NumericalBreakdown("a state has no eigenvalue above the noise floor")
    s_rho = entropies(w)
    pure = np.flatnonzero(rank == 1)
    mixed = np.flatnonzero(rank > 1)
    # the factor X of a pure state is its one column, and a stack of
    # these vectors takes about D times as many cuts as one of matrices
    psi = v[pure, :, -1] * np.sqrt(w[pure, -1:])
    for da, index, sides in _cut_plan(dims, vstep) if pure.size else ():
        perm = _perm(base, sides)
        per = max(1, vstep // len(index))
        for p0 in range(0, pure.size, per):
            sel = pure[p0:p0 + per]
            lam, mid = _schmidt_midpoint(psi[p0:p0 + per][:, perm], da)
            # rho_A and rho_B of a pure state share the spectrum lam
            s_sigma = 2.0 * entropies(lam)
            out[np.ix_(sel, index)] = entropies(mid) - 0.5 * s_rho[sel, None] - 0.5 * s_sigma
    for _, index, sides in plan if mixed.size else ():
        perm = _perm(base, sides)
        per = max(1, step // len(index))
        for m0 in range(0, mixed.size, per):
            sel = mixed[m0:m0 + per]
            states = mats if sel.size == len(mats) else mats[sel]
            marg = [[_partial_trace_raw(states, dims, side) for side in cut] for cut in sides]
            rho_a, rho_b = (np.stack(m, axis=1) for m in zip(*marg))
            wa, wb = np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b)
            s_sigma = entropies(wa) + entropies(wb)
            s_mid = np.empty(s_sigma.shape)
            ra, rb = _rank(wa), _rank(wb)
            gram = rank[sel, None] + ra * rb < dim
            # full-rank marginals, so the Gram branch does not apply
            resolvent = (ra * rb == dim) & _resolvent_pays(dim, rank[sel, None])
            fast = gram | resolvent
            i, c = np.nonzero(~fast)
            if i.size:
                # the dense pairs only: at most ``step`` D x D matrices
                p = perm[c]
                rho_ab = states[i[:, None, None], p[:, :, None], p[:, None, :]]
                s_mid[i, c] = entropies(_dense_midpoint(rho_ab, rho_a[i, c], rho_b[i, c]))
            for i, c in zip(*np.nonzero(fast)):
                x = _factor(w[sel[i]], v[sel[i]])[perm[c]]
                if gram[i, c]:
                    s_mid[i, c] = entropies(_gram_midpoint(x, rho_a[i, c], rho_b[i, c]))
                else:
                    s_mid[i, c] = _resolvent_midpoint(
                        x, rho_a[i, c], rho_b[i, c], wa[i, c], wb[i, c]
                    )
            out[np.ix_(sel, index)] = s_mid - 0.5 * s_rho[sel, None] - 0.5 * s_sigma
    return out


def _marginal_result(rho: DensityMatrix, values) -> PhiResult:
    """The marginal-mode result of a state from its per-cut values, in
    enumerate_bipartitions order; sigma_star is built on first access."""
    per_cut = tuple(zip(enumerate_bipartitions(rho.n), (float(v) for v in values)))
    vmin = min(v for _, v in per_cut)
    ties = tuple(c for c, v in per_cut if v <= vmin + TIE_TOL)
    optimal = ties[0]
    return PhiResult(
        phi=vmin,
        optimal_cut=optimal,
        per_cut=per_cut,
        ties=ties,
        mode="marginal",
        phi_marginal=vmin,
        sigma=lambda: product_of_marginals(rho, optimal),
    )


# ---------------------------------------------------------------------------
# the headline quantity

def _check_cuttable(n: int) -> None:
    """Raise unless a layout of n subsystems has a cut phi may score."""
    if n < 2:
        raise SingleSubsystem("phi needs at least two subsystems")


def phi(rho: DensityMatrix, mode: str = "marginal", *, probe_starts: int = 0) -> PhiResult:
    """Integrated information of the state, minimized over canonical bipartitions.

    The state's layout has already passed the package's size rule
    (:class:`~qphi.states.SubsystemLayout`), so n is at most 12 here.
    ``probe_starts`` (optimized mode) reruns the descent from that many
    perturbed initializations, drawn from a fixed seed, and records the
    spread of the resulting optima, as a uniqueness diagnostic.
    """
    if mode not in ("marginal", "optimized"):
        raise BadParameter(f"unknown mode {mode!r}")
    probe_starts = _int(probe_starts, 0, BadParameter, "probe_starts")
    if probe_starts > 0 and mode != "optimized":
        raise BadParameter("probe_starts needs mode 'optimized'")
    _check_cuttable(rho.n)
    marg = _marginal_result(rho, _cut_divergences(np.asarray(rho.mat)[None], rho.dims)[0])
    if mode == "marginal":
        return marg
    best = None
    for cut, marginal in marg.per_cut:
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
        rng = np.random.default_rng(0)
        devs = []
        for _ in range(probe_starts):
            z = [rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape) for h in hopt]
            h_init = tuple(h + 0.025 * (g + g.conj().T) for h, g in zip(hopt, z))
            _, s2, _, _ = _refine_product(rho, cut, start=h_init)
            devs.append(float(np.max(np.abs(np.asarray(s2.mat) - np.asarray(sigma.mat)))))
        spread = max(devs)
    return PhiResult(
        phi=val,
        optimal_cut=cut,
        per_cut=marg.per_cut,
        ties=marg.ties,
        mode=mode,
        phi_marginal=marg.phi,
        refinement_spread=spread,
        sigma=sigma,
    )


def min_over_partitions(rho: DensityMatrix):
    """Exhaustive minimum of the partition divergence over every k >= 2 partition.

    Returns (best_value, best_partition); used to confirm that bipartitions
    already attain the global minimum.
    """
    parts = enumerate_partitions(rho.n)
    values = partition_divergences(rho, parts)
    k = int(np.argmin(values))
    return values[k], parts[k]


def _phis(mats: np.ndarray, dims: tuple[int, ...], mode: str = "marginal") -> np.ndarray:
    """phi of every state of an (S, D, D) stack: one :func:`_cut_divergences`
    pass in marginal mode, else one :func:`phi` call per state (which rejects
    an unknown mode). Raises as :func:`phi` does on a layout of one subsystem;
    ``dims`` passes the size rule of :class:`~qphi.states.SubsystemLayout`
    here, before scoring, as a custom channel family's outputs may exceed it."""
    layout = SubsystemLayout(dims)
    _check_cuttable(layout.n)
    if mode == "marginal":
        return _cut_divergences(mats, layout.dims).min(axis=1)
    return np.array([phi(DensityMatrix(layout, m), mode).phi for m in mats])


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
    """phi(t rho1 + (1 - t) rho2) against t phi(rho1) + (1 - t) phi(rho2) for
    each t of ``t_grid``: :func:`_convexity_violations` on a stack of one pair."""
    if rho1.dims != rho2.dims:
        raise LayoutMismatch("states must share a layout")
    viol = _convexity_violations(rho1.mat[None], rho2.mat[None], rho1.dims, t_grid, mode)[0]
    viol = tuple(viol.tolist())
    return ConvexityReport(tuple(float(t) for t in t_grid), viol, max(viol))


def _convexity_violations(a: np.ndarray, b: np.ndarray, dims, t_grid, mode: str) -> np.ndarray:
    """phi(t a + (1 - t) b) - [t phi(a) + (1 - t) phi(b)] for each pair of two
    paired (k, D, D) stacks and each t of ``t_grid``: a (k, len(t_grid))
    array. One :func:`_phis` call per run of pairs scores their a, b and
    every mix, a stack of at most ``_STACK_BYTES``."""
    if len(t_grid) == 0:
        raise BadParameter("t_grid needs at least one mixing weight")
    for t in t_grid:
        if not 0.0 <= _real(t, BadParameter, "mixing weight") <= 1.0:
            raise BadParameter(f"mixing weight {t} outside [0, 1]")
    step = max(1, _stack_len(a.shape[-1]) // (2 + len(t_grid)))
    out = []
    for i in range(0, len(a), step):
        x, y = a[i:i + step], b[i:i + step]
        mixes = [t * x + (1.0 - t) * y for t in t_grid]
        p1, p2, *pm = _phis(np.concatenate([x, y, *mixes]), dims, mode).reshape(len(mixes) + 2, -1)
        out.append(np.stack([p - (t * p1 + (1.0 - t) * p2) for t, p in zip(t_grid, pm)], axis=1))
    return np.concatenate(out)


@dataclass(frozen=True)
class LipschitzReport:
    lhs: float  # |sqrt(phi1) - sqrt(phi2)|
    rhs: float  # delta(rho1, rho2)
    violation: float  # lhs - rhs


def lipschitz_check(rho1: DensityMatrix, rho2: DensityMatrix, mode: str = "marginal") -> LipschitzReport:
    """Compares the sqrt-phi gap against the state distance (1-Lipschitz
    bound); :func:`_lipschitz_sides` on a stack of one pair."""
    if rho1.dims != rho2.dims:
        raise LayoutMismatch("states must share a layout")
    lhs, rhs = _lipschitz_sides(rho1.mat[None], rho2.mat[None], rho1.dims, mode)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return LipschitzReport(lhs=lhs, rhs=rhs, violation=lhs - rhs)


def _lipschitz_sides(a: np.ndarray, b: np.ndarray, dims, mode: str):
    """|sqrt(phi(a)) - sqrt(phi(b))| and delta(a, b) for each pair of two
    paired (k, D, D) stacks: two (k,) arrays. One :func:`_phis` call scores
    a and b."""
    roots = np.sqrt(np.maximum(_phis(np.concatenate([a, b]), dims, mode), 0.0)).reshape(2, -1)
    return np.abs(roots[0] - roots[1]), np.sqrt(np.maximum(_pair_divergences(a, b), 0.0))
