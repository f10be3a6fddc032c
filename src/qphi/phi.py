"""Integrated information of a multipartite state.

Phi is the minimum quantum Jensen-Shannon divergence between the state and a
product state across a bipartition. ``marginal`` mode scores every cut with
the literal product of its marginals. ``optimized`` mode refines the product
factors on every cut by matrix exponentiated-gradient descent in log space,
starting from the marginals, and reports the minimum over cuts of the
refined values; no cut reports more than its marginal value, so
phi <= phi_marginal. ``ties`` and ``per_cut`` are the marginal-mode values in
both modes. The descent, :func:`_refine_products`, runs one chain per
(state, cut) pair, all advancing together through stacked eigensolves, with
S(rho) from one eigvalsh per state; :func:`_refine_cuts` runs it on every
cut, on the cut kernel's plan (each cut's smaller side first, in groups of
one smaller-side dimension), for :func:`phi` and :func:`_phis` alike.

The per-cut value qjsd(rho, rho_A (x) rho_B) = S(m) - S(rho)/2 - S(sigma)/2,
with m the midpoint (rho + sigma)/2, is computed spectrally. rho's spectrum
gives S(rho) for every cut and its rank r (eigenvalues under the
eigensolver's noise floor D*eps*lambda_max dropped); where 2r < D, the forms
read a factor X with X X^dag = rho. :func:`_factors` takes them by one of
three routes, each state once per call, stacked over the states:

- D >= 64 and 1/tr rho^2 <= D/8 (tr rho^2 costs O(D^2), and r >= 1/tr rho^2):
  a seeded randomized range finder (:func:`_sketch`) gives X and its
  spectrum from at most D/8 columns, and is refused past them or when
  max|rho - X X^dag| > D*eps*lambda_max. Its S(rho) leaves out the
  noise-floor eigenvalues.
- every other state, and every refused one: one eigvalsh, all that a state
  with 2r >= D reads;
- then one eigh of the states whose spectrum shows 2r < D.

S(sigma) = S(rho_A) + S(rho_B) comes from the two marginal spectra, and S(m)
from a form chosen by r:

- r = 1 (pure rho): the Schmidt closed form (Nielsen & Chuang 2.5). One SVD
  of the state vector, reshaped to d_A x d_B, gives the r = min(d_A, d_B)
  Schmidt weights lambda, which are the spectrum of both marginals; m has
  eigenvalues lambda_i lambda_j / 2 for i != j and those of the r x r matrix
  (diag(lambda^2) + sqrt(lambda) sqrt(lambda)^T) / 2.
- 1 < r < D/2: in the eigenbasis U = U_A (x) U_B of sigma/2 = U diag(a) U^dag,
  m = diag(a) + W W^dag with W = U^dag X / sqrt(2) (:func:`_sigma_basis`).
  A side B with r d_A < d_B is thin: rho_B = Y Y^dag for Y the d_B x r d_A
  matrix of X's rows, so its non-zero spectrum and X's coordinates in its
  eigenbasis, U_B^dag Y = sqrt(lambda) V^dag, come from the eigh of the
  (r d_A)^2 Gram matrix Y^dag Y = V diag(lambda) V^dag, and rho_B is never
  formed at full size.
  - r + rank rho_A * rank rho_B < D: m's non-zero spectrum is that of the
    Gram matrix of [W, diag(sqrt a)] over the non-zero a, of that size
    (:func:`_gram_midpoint`).
  - both marginals of full rank and r small (:func:`_resolvent_pays`:
    12 (r + 4) <= D and r^2 <= D): S(m) = -sum_i (a_i + |w_i|^2) ln a_i -
    int_0^inf tr[(I + G)^-1 (H + G^2)] dt with G(t) = W^dag (A + t)^-1 W and
    H(t) = W^dag A (A + t)^-2 W, from the integral form of the matrix
    logarithm (Higham, Functions of Matrices, SIAM 2008) and the Woodbury
    identity: r x r matrices only (:func:`_resolvent_midpoint`).
- otherwise: one dense eigensolve of m (:func:`_dense_entropies`), the only
  form when 2r >= D, as rank rho_A * rank rho_B >= r on every cut.

The value of a cut does not depend on which side comes first, so each cut
puts its smaller side first, and cuts whose smaller sides have the same
dimension are evaluated together, from a per-layout plan (:func:`_cut_plan`,
cached). A cut's marginals come straight from rho, one contraction per side
(:func:`~qphi.states._partial_trace_raw`), unless the side is thin; the
marginals of one dimension take one stacked eigvalsh (2r >= D), and each
side's one stacked eigh (1 < r < D/2). No form reorders rho: the dense form
(:func:`_dense_blocks`) multiplies sigma, in rho's own subsystem order,
straight into the batching kernel's midpoint buffer, and the others read
permuted rows of X, whose one column is psi when r = 1.
The states go in runs of one form rank (each r < D/2, pure states included,
or D), each run's chunks sized by the arrays it builds, at most 1 MB each:
D x D midpoints for rank D, so D = 256 goes one cut at a time, and four
D x r arrays otherwise, so at D = 256 a rank-4 state scores 16 cuts a
chunk, the Gram form stacked over them, and a pure one 64. The kernel,
:func:`_cut_divergences`, takes a stack of states of one layout and runs
every run through one plan loop, choosing the form per state and cut;
:func:`phi` calls it with a stack of one.

:func:`partition_divergences` scores k-block partitions, on stacks of states
too, by the same dense body, of which a cut is the 2-block case.

The dense qjsd of :mod:`qphi.divergence` is the reference the tests hold
every branch to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .divergence import _pair_divergences, _stack_len, _stacked_entropies, entropies
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
    _items,
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
# the range finder (_sketch): the seed of its test matrices, and the bound on
# its factors' residual max|rho - X X^dag|, in units of D * lambda_max
_SKETCH_SEED = 0
_SKETCH_TOL = _EPS


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
        blocks = [
            frozenset(_indices(b, self.n, InvalidPartition, "block indices"))
            for b in _items(self.blocks, InvalidPartition, "partition", "blocks")
        ]
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
    return PartitionKBlocks(blocks, n)


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
    and every partition: an (S, partitions) array, S(rho) from one eigvalsh
    of the states and the rest from the cut kernel's dense body
    (:func:`_dense_blocks`)."""
    blocks = [tuple(tuple(sorted(b)) for b in p.blocks) for p in parts]
    s_mid, s_sigma = _dense_blocks(mats, dims, blocks)
    return s_mid - 0.5 * entropies(np.linalg.eigvalsh(mats))[:, None] - 0.5 * s_sigma


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
    return tuple(partition_divergences(rho, [p, merge_blocks(p, i, j)]))


# ---------------------------------------------------------------------------
# optimized-mode refinement

def _exp_factor(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-spectra, spectra and eigenvectors of exp(H)/tr exp(H) for each H of
    a stack. A log-spectrum comes from H, so it stays finite where the
    spectrum underflows; each normalizer is taken by ``math.log``, one row at
    a time, whose last bit a stacked ``np.log`` does not always match."""
    w, v = np.linalg.eigh(h)
    logp = w - w[:, -1:]  # eigh's spectra ascend
    logp -= np.array([math.log(s) for s in np.sum(np.exp(logp), axis=-1).tolist()])[:, None]
    return logp, np.exp(logp), v


def _refine_products(mats: np.ndarray, dims: tuple[int, ...], cuts, start=None):
    """Minimize qjsd(rho, sigma_A (x) sigma_B) over product states, for every
    state rho of an (S, D, D) stack on every cut of ``cuts``, each given as
    its two sorted sides (A, B) in either order, all A sides of one
    dimension: each (state, cut) pair by its own chain.

    Matrix exponentiated-gradient (mirror) descent (Tsuda, Raetsch & Warmuth,
    JMLR 2005). Each factor is sigma = exp(H)/tr exp(H), and H starts at the
    log of the marginal (eigenvalues floored at 1e-12) unless ``start`` gives
    the stacks (H_A, H_B), chain by chain. The gradient of qjsd in sigma is
    G = (log sigma - log m)/2, with m = (rho + sigma)/2; its partial traces
    G_A = tr_B[(1 (x) sigma_B) G] and G_B = tr_A[(sigma_A (x) 1) G] give the
    step H_A <- H_A - eta G_A, H_B <- H_B - eta G_B. eta is halved until the
    value does not rise and doubled after every accepted step. Each trial
    costs one eigensolve of m, which gives both S(m) and log m; S(rho) takes
    one eigvalsh per state. A chain stops when a step gains less than
    REFINE_IMPROVEMENT_TOL, after REFINE_MAX_STEPS steps, or when
    ``_MAX_HALVINGS`` halvings find no step that does not rise.

    The chains advance together: each trial is one stacked eigensolve over
    the chains still halving, while each chain keeps its own eta, halvings
    and stop, so every chain takes the steps, and gives the bits, it would
    take alone. An accepted trial overwrites its chain's value and point in
    place. Chain s * len(cuts) + c is state s on cut c, and the values,
    factor stacks sigma_A and sigma_B, step counts and stacks H_A and H_B
    are returned chain by chain.
    """
    def chains(per_cut):
        # one (S, ...) array per cut, as one array of chains, state-major
        return np.stack(per_cut, axis=1).reshape(-1, *per_cut[0].shape[1:])

    # with the factors ordered (A, B), sigma is a plain Kronecker product
    rho_ab = chains([_permute_raw(mats, dims, a + b) for a, b in cuts])
    da = math.prod(dims[i] for i in cuts[0][0])
    db = mats.shape[-1] // da
    s_rho = np.repeat(entropies(np.linalg.eigvalsh(mats)), len(cuts))
    if start is None:
        marg = ([_partial_trace_raw(mats, dims, c[i]) for c in cuts] for i in (0, 1))
        eigs = (np.linalg.eigh(chains(m)) for m in marg)
        start = tuple(_spectral(v, np.log(np.clip(w, _LOG_FLOOR, None))) for w, v in eigs)

    def evaluate(rho, s_rho, h):
        # S(m) - S(rho)/2 - S(sigma)/2 at the points h, a stack per factor,
        # and the points: [H_A, H_B, the log-spectra and eigenvectors of
        # sigma_A and sigma_B, sigma_A, sigma_B, the eigh of m]
        (la, pa, va), (lb, pb, vb) = _exp_factor(h[0]), _exp_factor(h[1])
        sa, sb = _spectral(va, pa), _spectral(vb, pb)
        wm, vm = np.linalg.eigh((rho + _assemble_raw([sa, sb], ([0], [1]), (da, db))) / 2.0)
        s_sigma = entropies(pa) + entropies(pb)
        return entropies(wm) - 0.5 * s_rho - 0.5 * s_sigma, [*h, la, va, lb, vb, sa, sb, wm, vm]

    # a chain's results (value, H_A, H_B, sigma_A, sigma_B) are written into
    # the first point's arrays when it stops, after any accepted step that
    # overwrote its rows there, so a given start is copied. H_A and H_B take
    # one dtype, which every later point keeps, so no in-place write casts
    dtype = np.result_type(*start, mats)
    value, point = evaluate(rho_ab, s_rho, [np.array(h, dtype) for h in start])
    out = [value, *point[:2], *point[6:8]]
    steps = np.zeros(len(value), dtype=int)
    # the chains still running, and their values, points, eta and states
    live, eta = np.arange(len(value)), np.ones(len(value))
    while live.size:
        _, _, la, va, lb, vb, sa, sb, wm, vm = point
        # G_A and G_B up to multiples of the identity, which exp(H)/tr exp(H)
        # does not see
        log_m = _spectral(vm, np.log(np.clip(wm, _TINY, None))).reshape(-1, da, db, da, db)
        ga = 0.5 * (_spectral(va, la) - np.einsum("sjm,simkj->sik", sb, log_m))
        gb = 0.5 * (_spectral(vb, lb) - np.einsum("sim,smjil->sjl", sa, log_m))
        before = value.copy()
        # the positions in live of the chains still halving
        pending = np.arange(live.size)
        for halving in range(_MAX_HALVINGS):
            # the first trial takes every live chain, with no copy
            sub = pending if halving else slice(None)
            step = eta[sub, None, None]
            h = (point[0][sub] - step * ga[sub], point[1][sub] - step * gb[sub])
            trial, at = evaluate(rho_ab[sub], s_rho[sub], h)
            ok = trial <= value[sub]
            if not halving and ok.all():
                value, point = trial, at
            else:
                accepted = pending[ok]
                value[accepted] = trial[ok]
                for p, q in zip(point, at):
                    p[accepted] = q[ok]
            pending = pending[~ok]
            if not pending.size:
                break
            eta[pending] *= 0.5
        # a chain whose every halving rose keeps its point and takes no step;
        # with a gain of 0, it stops
        steps[live] += 1
        steps[live[pending]] -= 1
        gain = before - value
        eta *= 2.0
        go = (gain >= REFINE_IMPROVEMENT_TOL) & (steps[live] < REFINE_MAX_STEPS)
        if not go.all():
            for o, p in zip(out, [value, *point[:2], *point[6:8]]):
                o[live[~go]] = p[~go]
            live, value, eta, rho_ab, s_rho = live[go], value[go], eta[go], rho_ab[go], s_rho[go]
            point = [p[go] for p in point]
    return out[0], out[3], out[4], steps, out[1], out[2]


def _refine_cuts(mats: np.ndarray, dims: tuple[int, ...]) -> list[list[np.ndarray]]:
    """:func:`_refine_products` for every state of an (S, D, D) stack on every
    canonical cut, in enumerate_bipartitions order: entry k is what a call on
    cut k alone returns, with the cut's sides as :func:`_cut_plan` orders
    them, smaller first. The cuts go in the plan's groups of one
    smaller-side dimension, and each call takes at most ``_stack_len(D)``
    chains, so D = 256 goes one chain at a time."""
    step = _stack_len(mats.shape[-1])
    parts: list[list] = [[] for _ in range(2 ** (len(dims) - 1) - 1)]
    for _, index, sides in _cut_plan(dims, step):
        per = max(1, step // len(index))
        for s in range(0, len(mats), per):
            got = _refine_products(mats[s:s + per], dims, sides)
            for j, k in enumerate(index):
                parts[k].append([a[j::len(index)] for a in got])
    return [[np.concatenate(a) for a in zip(*p)] for p in parts]


# ---------------------------------------------------------------------------
# marginal-mode per-cut values

def _kept(w: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """Which eigenvalues of an ascending spectrum (or of each row of a stack
    of them) lie above the eigensolver's noise floor D*eps*lambda_max, D the
    spectrum's length, or ``dim`` for the thin spectrum of a larger matrix."""
    return w > (w.shape[-1] if dim is None else dim) * _EPS * w[..., -1:]


def _rank(w: np.ndarray):
    """Number of eigenvalues :func:`_kept`."""
    return _kept(w).sum(axis=-1)


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


def _sigma_basis(x, ua, ub, wa, wb) -> tuple[np.ndarray, np.ndarray]:
    """(W, a) with m = (X X^dag + rho_A (x) rho_B)/2 = diag(a) + W W^dag in the
    eigenbasis U = U_A (x) U_B of the marginals' eigh (wa, ua) and (wb, ub):
    W = U^dag X / sqrt(2), a = (w_A (x) w_B)/2, noise (:func:`_kept`) set to 0,
    for one cut or for a stack of them. With ``ub`` None, X's B index already
    runs over the B basis, whose spectrum wb may be thin: the non-zero part
    of rho_B's, from the Gram matrix of X's rows."""
    da, db = wa.shape[-1], wb.shape[-1]
    w = np.swapaxes(ua.conj(), -1, -2) @ x.reshape(x.shape[:-2] + (da, -1))
    if ub is not None:
        w = np.swapaxes(ub.conj(), -1, -2)[..., None, :, :] @ w.reshape(w.shape[:-2] + (da, db, -1))
    a = (wa * _kept(wa))[..., :, None] * (wb * _kept(wb))[..., None, :] / 2.0
    return w.reshape(x.shape) / math.sqrt(2.0), a.reshape(x.shape[:-1])


def _gram_midpoint(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """S(m) of the midpoint m = diag(a) + W W^dag (:func:`_sigma_basis`), for
    one midpoint or a stack of them, from the Gram matrix of
    [W, diag(sqrt a)[:, k]], k the non-zero entries of a:
    [[W^dag W, C], [C^dag, diag(a_k)]] with C = W_k^dag diag(sqrt a_k). The
    Gram matrices of one size are built and eigensolved in stacks of at most
    ``_STACK_BYTES``."""
    lead, (dim, r) = a.shape[:-1], w.shape[-2:]
    w, a = w.reshape(-1, dim, r), a.reshape(-1, dim)
    k = a > 0.0
    sizes = k.sum(axis=-1)
    out = np.empty(len(a))
    for n in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == n)
        step = _stack_len(r + n)
        for sel in (group[s:s + step] for s in range(0, group.size, step)):
            ws, ks = w[sel], k[sel]
            ak = a[sel][ks].reshape(-1, n)
            c = np.swapaxes(ws[ks].reshape(-1, n, r).conj(), -1, -2) * np.sqrt(ak)[:, None, :]
            gram = np.zeros((sel.size, r + n, r + n), w.dtype)
            gram[:, :r, :r] = np.swapaxes(ws.conj(), -1, -2) @ ws
            gram[:, :r, r:] = c
            gram[:, r:, :r] = np.swapaxes(c.conj(), -1, -2)
            gram[:, np.arange(r, r + n), np.arange(r, r + n)] = ak
            out[sel] = entropies(np.linalg.eigvalsh(gram))
    return out.reshape(lead)


def _resolvent_pays(dim: int, r):
    """Whether the resolvent branch beats the dense eigensolve of a D x D
    midpoint when rho has rank r (elementwise for an array of ranks).

    On one core of a 2-vCPU host (OpenBLAS, one thread) the two took equal
    time at r of about 2, 7, 11, 11, 14 and 18 for D = 64, 96, 128, 144, 192
    and 256, which D = 12 r + 20 fits. The rule 12 (r + 4) <= D stays two
    ranks inside that line, so D <= 64 never takes the branch; r^2 <= D keeps
    its D x r^2 table within one D x D matrix."""
    return (12 * (r + 4) <= dim) & (r * r <= dim)


def _resolvent_midpoint(w: np.ndarray, a: np.ndarray) -> float:
    """S(m) of the midpoint m = diag(a) + W W^dag (:func:`_sigma_basis`) from
    r x r matrices, r the columns of W, when both marginals have full rank
    (the formula is in the module docstring).

    The integral is taken by the trapezoidal rule in u = ln t (Trefethen &
    Weideman, SIAM Review 56, 2014). The integrand is analytic in
    |Im u| < pi: its poles sit at t = -a_i and at minus the eigenvalues of m.
    The step h = 1/2 therefore errs by about exp(-2 pi^2 / h) = 7e-18 times
    the integrand's size. The integrand is at most t / (2 a_min) and 1 / (2 t),
    so the tails cut off below ln a_min - 37 and above 37 are each under
    e^-37 / 2 = 4e-17. The nodes go D at a time, so no table is larger than
    one D x D matrix.
    """
    dim, r = w.shape
    head = -float(np.dot(a + (w.real * w.real + w.imag * w.imag).sum(axis=1), np.log(a)))
    # row d holds conj(w_d)^T w_d, read as reals for the product, so each
    # node's row of (a_d + t)^-1, times this table, is G(t) (and of
    # a_d (a_d + t)^-2, H(t))
    rows = (w.conj()[:, :, None] * w[:, None, :]).reshape(dim, r * r)
    t = np.exp(np.arange(math.log(a.min()) - _NODE_SPAN, _NODE_SPAN + _NODE_STEP / 2, _NODE_STEP))
    diag = np.arange(r)
    integral = 0.0
    for k in range(0, t.size, dim):
        tk = t[k:k + dim]
        res = 1.0 / (a + tk[:, None])
        g = (res @ rows.view(float)).view(rows.dtype).reshape(-1, r, r)
        res *= res
        res *= a
        h = (res @ rows.view(float)).view(rows.dtype).reshape(-1, r, r) + g @ g
        g[:, diag, diag] += 1.0
        integral += float(np.dot(tk, np.trace(np.linalg.solve(g, h), axis1=1, axis2=2).real))
    return head - _NODE_STEP * integral


def _dense_entropies(states, marg, sides, cols, dims) -> np.ndarray:
    """S((rho + sigma)/2) of every state of an (S, D, D) stack on the cuts
    ``cols`` (positions in ``sides``; a partition's sides are its blocks), an
    (S, len(cols)) array, by :func:`~qphi.divergence._stacked_entropies`: its
    filler multiplies sigma from the cut's marginal stacks ``marg[c]``
    straight into the kernel's buffer, adds rho and halves in place, the bits
    of (rho + sigma) / 2.0, as addition commutes and halving is exact."""

    def fill(chunk, part, rows):
        for dst, c in zip(chunk, part):
            _assemble_raw([m[rows] for m in marg[c]], sides[c], dims, out=dst)
        chunk += states[rows]
        chunk /= 2.0

    return _stacked_entropies(len(states), cols, fill, states.shape[-1], states.dtype)


def _dense_blocks(states, dims, blocks):
    """(S(m), S(sigma)) of every state of an (S, D, D) stack against the
    product of its block marginals, for each entry of ``blocks``, a tuple of
    sorted block tuples (a cut's two sides, or a partition's blocks): two
    (S, len(blocks)) arrays. Each distinct block is traced once and the
    blocks of one dimension take one stacked eigvalsh; S(sigma) is the sum
    of the block entropies, as S is additive over a product, and the
    midpoints are :func:`_dense_entropies`."""
    groups, index = _block_groups(dims, tuple(blocks))
    marg = {b: _partial_trace_raw(states, dims, b) for g in groups for b in g}
    ent = [entropies(np.linalg.eigvalsh(np.stack([marg[b] for b in g], axis=1))) for g in groups]
    # the block entropies, then a 0 that pads the shorter block lists
    ent = np.concatenate(ent + [np.zeros((len(states), 1))], axis=1)
    s_sigma = ent[:, index[:, 0]]
    for col in index.T[1:]:
        s_sigma += ent[:, col]
    factors = [[marg[b] for b in p] for p in blocks]
    return _dense_entropies(states, factors, blocks, range(len(blocks)), dims), s_sigma


@lru_cache(maxsize=64)
def _block_groups(dims: tuple[int, ...], blocks: tuple):
    """How :func:`_dense_blocks` groups a tuple of block lists: the distinct
    blocks by dimension, and each list's positions in those groups, in
    order, as a (lists, longest list) array, -1 past a list's end."""
    groups: dict[int, list] = {}
    for b in dict.fromkeys(sum(blocks, ())):
        groups.setdefault(math.prod(dims[i] for i in b), []).append(b)
    pos = {b: k for k, b in enumerate(b for g in groups.values() for b in g)}
    index = np.full((len(blocks), max(map(len, blocks))), -1)
    for row, p in zip(index, blocks):
        row[:len(p)] = [pos[b] for b in p]
    index.flags.writeable = False
    return tuple(map(tuple, groups.values())), index


@lru_cache(maxsize=32)
def _cut_plan(dims: tuple[int, ...], step: int):
    """The canonical cuts of a layout, each with its smaller side first (side
    A when the two are equal), grouped by that side's dimension d in chunks
    of at most ``step`` cuts: (d, the cuts' positions in enumerate_bipartitions
    order, each cut's two sorted sides, first then second). The cut kernel
    and the refinement (:func:`_refine_cuts`) walk the same plan. Only the
    sides are kept, not the D-long basis permutations they give."""
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


def _low_rank_cuts(states, x, dims, sides):
    """(S(m), S(sigma)) of every state of a stack of rank 1 < r < D/2 on every
    cut of ``sides``, all with one dimension d_A of the first side, two
    (S, cuts) arrays, given X's rows permuted into each cut's (A, B) order,
    an (S, cuts, D, r) stack. The marginals take one stacked eigh per side,
    a thin side B (r d_A < d_B) the eigh of the Gram matrices of X's rows
    instead (module docstring), and the Gram and resolvent pairs one
    stacked sigma-basis form each, the Gram pairs' then eigensolved in
    stacks and the resolvent pairs' integrated one pair at a time; the other
    pairs' cuts are solved densely (:func:`_dense_entropies`)."""
    count, cuts, dim, r = x.shape
    da = math.prod(dims[i] for i in sides[0][0])
    db = dim // da
    marg = [[_partial_trace_raw(states, dims, a)] for a, _ in sides]
    wa, ua = np.linalg.eigh(np.stack([m[0] for m in marg], axis=1))
    if r * da < db:
        # rho_B = Y Y^dag for Y the d_B x r d_A matrix of X's rows, so
        # U_B^dag Y = sqrt(lam) V^dag from the eigh of Y^dag Y
        y = np.swapaxes(x.reshape(count, cuts, da, db, r), 2, 3).reshape(count, cuts, db, da * r)
        wb, vb = np.linalg.eigh(np.swapaxes(y.conj(), -1, -2) @ y)
        kept_b = _kept(wb, db)
        lam, ub = wb * kept_b, None
        xb = (vb * np.sqrt(lam)[..., None, :]).conj().reshape(count, cuts, da, r, -1)
        xb = np.swapaxes(xb, -1, -2).reshape(count, cuts, -1, r)
    else:
        for m, (_, b) in zip(marg, sides):
            m.append(_partial_trace_raw(states, dims, b))
        wb, ub = np.linalg.eigh(np.stack([m[1] for m in marg], axis=1))
        kept_b, lam, xb = _kept(wb), wb, x
    kept = _rank(wa) * kept_b.sum(axis=-1)
    gram = r + kept < dim
    resolvent = ~gram & (kept == dim) & _resolvent_pays(dim, r)
    s_mid = np.empty(kept.shape)
    for fast in (gram, resolvent):
        i, c = np.nonzero(fast)
        if i.size:
            ubi = None if ub is None else ub[i, c]
            w, a = _sigma_basis(xb[i, c], ua[i, c], ubi, wa[i, c], lam[i, c])
            if fast is gram:
                s_mid[i, c] = _gram_midpoint(w, a)
            else:
                s_mid[i, c] = [_resolvent_midpoint(*pair) for pair in zip(w, a)]
    slow = ~(gram | resolvent)
    dense = np.flatnonzero(slow.any(axis=0))
    if dense.size:
        # a cut with a dense pair is solved densely for every state, so rho
        # is not copied; a thin side's marginal is Y Y^dag
        for c in dense.tolist() if ub is None else ():
            marg[c].append(y[:, c] @ np.swapaxes(y[:, c].conj(), -1, -2))
        got = _dense_entropies(states, marg, sides, dense, dims)
        s_mid[:, dense] = np.where(slow[:, dense], got, s_mid[:, dense])
    return s_mid, entropies(wa) + entropies(wb)


def _normals(count: int, seed: int) -> np.ndarray:
    """``count`` standard normal draws fixed by ``seed``: splitmix64 of a
    counter (Steele, Lea & Flood, OOPSLA 2014) gives 53-bit uniforms, and the
    Box-Muller transform makes them normal. It spares a process that would
    import numpy.random for :func:`_sketch` alone about 17 ms."""
    z = np.arange(2 * count, dtype=np.uint64) + np.uint64((seed << 32) + 1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(float) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log1p(-u[:count])) * np.cos(2.0 * np.pi * u[count:])


def _sketch(mats: np.ndarray) -> list:
    """(kept spectrum, factor X with X X^dag = rho) of each state of an
    (S, D, D) stack by a seeded randomized range finder (Halko, Martinsson &
    Tropp, SIAM Rev. 53, 2011), or None where it refuses. A round takes the
    first k columns of one Gaussian test matrix Omega, one power step
    Q = orth(rho orth(rho Omega)) and the eigh of the k x k compression
    Q^dag rho Q; a state whose k compressed eigenvalues are all kept
    (:func:`_kept`, floor of size D) goes on to 2k, k = 8, 16, ... D/8. X is
    accepted only if max|rho - X X^dag| <= D * ``_SKETCH_TOL`` * lambda_max,
    taken a block of rows at a time, so no temporary is D x D."""
    dim = mats.shape[-1]
    g = _normals(2 * dim * (dim // 8), _SKETCH_SEED).reshape(2, dim, dim // 8)
    omega = g[0] + 1j * g[1] if np.iscomplexobj(mats) else g[0]
    out, todo, k = [None] * len(mats), np.arange(len(mats)), 8
    block = _stack_len(1, dim)  # rows of one 1 MB block of the residual
    while todo.size and k <= dim // 8:
        rho = mats if todo.size == len(mats) else mats[todo]
        q = np.linalg.qr(rho @ np.linalg.qr(rho @ omega[:, :k])[0])[0]
        w, v = np.linalg.eigh(np.swapaxes(q.conj(), -1, -2) @ rho @ q)
        kept = _kept(w, dim)
        more = kept.all(axis=-1)
        for i in np.flatnonzero(~more).tolist():
            r = int(kept[i].sum())
            x = q[i] @ (v[i, :, -r:] * np.sqrt(w[i, -r:]))
            tol = dim * _SKETCH_TOL * w[i, -1]
            if all(np.abs(rho[i, j:j + block] - x[j:j + block] @ x.conj().T).max() <= tol
                   for j in range(0, dim, block)):
                out[todo[i]] = (w[i, -r:], x)
        todo, k = todo[more], 2 * k
    return out


def _factors(mats: np.ndarray):
    """S(rho) and the rank r of each state of an (S, D, D) stack, and the
    factors X of the states with 2r < D (r top eigenvectors, scaled) as the
    last r columns of one (S, D, largest such r) stack, or None if there are
    none. States with D >= 64 and 1/tr rho^2 <= D/8 try :func:`_sketch`; the
    others, and those it refuses, take one stacked eigvalsh, and of these
    only the states with 2r < D take eigh."""
    count, dim = mats.shape[0], mats.shape[-1]
    s_rho, rank, found, solved = np.empty(count), np.zeros(count, dtype=int), {}, None
    if dim >= 64:
        tried = np.flatnonzero([dim * np.vdot(m, m).real >= 8.0 for m in mats])
        sketched = _sketch(mats if tried.size == count else mats[tried]) if tried.size else ()
        for i, f in zip(tried.tolist(), sketched):
            if f is not None:
                s_rho[i], rank[i], found[i] = entropies(f[0]), f[0].size, f[1]
    rest = np.flatnonzero(rank == 0)
    if rest.size:
        w = np.linalg.eigvalsh(mats if rest.size == count else mats[rest])
        s_rho[rest], rank[rest] = entropies(w), _rank(w)
        if not rank[rest].all():
            raise NumericalBreakdown("a state has no eigenvalue above the noise floor")
        # only a state with 2r < D reads its eigenvectors
        thin = rest[2 * rank[rest] < dim]
        if thin.size:
            w, v = np.linalg.eigh(mats[thin])
            s_rho[thin], rank[thin] = entropies(w), _rank(w)
            solved = thin, w, v
    low = 2 * rank < dim
    if not low.any():
        return s_rho, rank, None
    top = int(rank[low].max())
    x = np.zeros((count, dim, top), mats.dtype)
    if solved is not None:
        # the columns past a state's rank are never read
        thin, w, v = solved
        x[thin] = v[..., -top:] * np.sqrt(np.maximum(w[:, None, -top:], 0.0))
    for i, f in found.items():
        x[i, :, top - f.shape[-1]:] = f
    return s_rho, rank, x


def _cut_divergences(mats: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """qjsd(rho, product_of_marginals(rho, cut)) for every state of an
    (S, D, D) stack and every canonical cut, in enumerate_bipartitions order:
    an (S, cuts) array, from :func:`_factors` of the states (the forms and
    the cut plan are in the module docstring).

    The states go in runs of one form rank, pure states (r = 1) included,
    all through one plan loop, each run's cut plan sized by the arrays it
    builds. A chunk takes :func:`_dense_blocks` for 2r >= D, the Schmidt form
    of X's one column for r = 1, and :func:`_low_rank_cuts` otherwise; only
    the first and last read rho, and every dense midpoint stack is sized by
    :func:`~qphi.divergence._stacked_entropies`. In a run of
    1 < r < D/2, a side B with r d_A < d_B is thin: its spectrum and X's
    coordinates in its eigenbasis come from the (r d_A)^2 Gram matrix of X's
    rows. Callers pass at most ``_stack_len(D)`` states, and no stack built
    here holds more than ``_STACK_BYTES`` of matrices; a state of rank 0
    raises :class:`NumericalBreakdown`.
    """
    dims = tuple(dims)
    count, dim = mats.shape[0], mats.shape[-1]
    base = np.arange(dim).reshape(dims)
    out = np.empty((count, 2 ** (len(dims) - 1) - 1))
    s_rho, rank, factor = _factors(mats)
    # a state with 2r >= D takes the forms of rank D (module docstring)
    form_rank = np.where(2 * rank >= dim, dim, rank)
    for r in sorted(set(form_rank.tolist())):
        run = np.flatnonzero(form_rank == r)
        # cuts a chunk, by what the run builds per (state, cut) pair: a D x D
        # midpoint, or four D x r arrays (X's rows, W and its intermediates)
        step = _stack_len(dim, dim if r == dim else 4 * r)
        # a pure state's one column of X is its state vector psi
        x = factor[run, :, -r:] if r < dim else None
        for da, index, sides in _cut_plan(dims, step):
            per = max(1, step // len(index))
            for g0 in range(0, run.size, per):
                sel = run[g0:g0 + per]
                xs = None if x is None else x[g0:g0 + per][:, _perm(base, sides)]
                # the Schmidt form reads X alone, so rho is gathered for the others
                states = mats if sel.size == count or r == 1 else mats[sel]
                if r == dim:
                    s_mid, s_sigma = _dense_blocks(states, dims, sides)
                elif r > 1:
                    s_mid, s_sigma = _low_rank_cuts(states, xs, dims, sides)
                else:
                    lam, mid = _schmidt_midpoint(xs[..., 0], da)
                    # rho_A and rho_B of a pure state share the spectrum lam
                    s_mid, s_sigma = entropies(mid), 2.0 * entropies(lam)
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
    mats = np.asarray(rho.mat)[None]
    marginal = _cut_divergences(mats, rho.dims)[0]
    marg = _marginal_result(rho, marginal)
    if mode == "marginal":
        return marg
    refined = _refine_cuts(mats, rho.dims)
    # the descent starts from the marginals floored at 1e-12, so it can end
    # a round-off above the marginal value; the first lowest cut wins
    capped = np.minimum([r[0][0] for r in refined], marginal)
    k = int(np.argmin(capped))
    cut = marg.per_cut[k][0]
    value, sa, sb, _, *hopt = (r[0] for r in refined[k])
    # the refinement took the cut's smaller side first (_cut_plan)
    sides = cut.as_lists()
    if len(sa) != math.prod(rho.dims[i] for i in sides[0]):
        sides = sides[::-1]
    if marginal[k] < value:
        sigma = product_of_marginals(rho, cut)
    else:
        sigma = assemble_on_subsets([sa, sb], sides, rho.layout)
    res = replace(marg, phi=float(capped[k]), optimal_cut=cut, mode=mode, sigma=sigma)
    if probe_starts == 0:
        return res
    # per start, the real then the imaginary part of H_A's perturbation, then
    # H_B's, from one seeded stream; at most _stack_len(D) starts a call
    rng, step, spread = np.random.default_rng(0), _stack_len(rho.dim), 0.0
    for p in range(0, probe_starts, step):
        draws = rng.standard_normal((min(step, probe_starts - p), 2 * (sa.size + sb.size)))
        x = np.split(draws, np.cumsum([sa.size, sa.size, sb.size]), axis=1)
        z = [(x[2 * i] + 1j * x[2 * i + 1]).reshape(-1, *h.shape) for i, h in enumerate(hopt)]
        start = [h + 0.025 * (g + np.swapaxes(g.conj(), -1, -2)) for h, g in zip(hopt, z)]
        # chain c is start c on the one state, whose S(rho) takes one eigvalsh
        found = _refine_products(mats, rho.dims, [sides] * len(draws), start)[1:3]
        spread = max(spread, float(np.abs(_assemble_raw(found, sides, rho.dims) - sigma.mat).max()))
    return replace(res, refinement_spread=spread)


def min_over_partitions(rho: DensityMatrix):
    """Exhaustive minimum of the partition divergence over every k >= 2 partition.

    Returns (best_value, best_partition); used to confirm that bipartitions
    already attain the global minimum.
    """
    _check_cuttable(rho.n)
    parts = enumerate_partitions(rho.n)
    values = partition_divergences(rho, parts)
    k = int(np.argmin(values))
    return values[k], parts[k]


def _phis(mats: np.ndarray, dims: tuple[int, ...], mode: str = "marginal") -> np.ndarray:
    """phi of every state of an (S, D, D) stack, as :func:`phi` gives it: the
    marginal per-cut values of one :func:`_cut_divergences` pass, and in
    optimized mode those of one :func:`_refine_cuts` pass, each capped at
    its marginal one. Raises as :func:`phi` does on an unknown mode or a
    layout of one subsystem; ``dims`` passes the size rule of
    :class:`~qphi.states.SubsystemLayout` here, before scoring, as a custom
    channel family's outputs may exceed it."""
    if mode not in ("marginal", "optimized"):
        raise BadParameter(f"unknown mode {mode!r}")
    layout = SubsystemLayout(dims)
    _check_cuttable(layout.n)
    values = _cut_divergences(mats, layout.dims)
    if mode == "optimized":
        values = np.minimum(values, np.stack([r[0] for r in _refine_cuts(mats, layout.dims)], 1))
    return values.min(axis=1)


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
