"""Multipartite density operators: layouts, validation, tensor algebra, generators.

Subsystem 0 is the most significant factor in the Kronecker ordering, so the
computational-basis index of ``|x0 x1 ... x_{n-1}>`` is ``x0*d1*...*d_{n-1} + ...``.
All randomness flows through ``numpy.random.Generator`` seeded explicitly;
identical seeds reproduce matrices bit for bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    EmptyKeepSet,
    IndexOutOfRange,
    InvalidCut,
    LayoutMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9

SeedLike = Union[int, np.random.Generator]


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions of the tensor factors."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise DimensionMismatch("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise DimensionMismatch(f"every local dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out


def as_layout(layout) -> SubsystemLayout:
    if isinstance(layout, SubsystemLayout):
        return layout
    return SubsystemLayout(tuple(layout))


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator together with its subsystem layout.

    Construction does only cheap shape checks; use :func:`validate_state` for
    untrusted matrices (it enforces hermiticity, unit trace and positivity).
    """

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        layout = as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        arr = np.asarray(self.mat, dtype=complex)
        if arr.shape != (layout.dim, layout.dim):
            raise DimensionMismatch(
                f"matrix shape {arr.shape} does not match layout dimension {layout.dim}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def dim(self) -> int:
        return self.layout.dim

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


@dataclass(frozen=True)
class Bipartition:
    """A two-block split of ``range(n)``; canonically subsystem 0 sits in side A."""

    mask_a: frozenset[int]
    n: int

    def __post_init__(self):
        mask = frozenset(int(i) for i in self.mask_a)
        object.__setattr__(self, "mask_a", mask)
        if any(i < 0 or i >= self.n for i in mask):
            raise IndexOutOfRange(f"cut indices {sorted(mask)} out of range for n={self.n}")
        if len(mask) == 0 or len(mask) == self.n:
            raise InvalidCut("a bipartition needs two non-empty sides")
        if 0 not in mask:
            raise InvalidCut("canonical form requires subsystem 0 in side A")

    @classmethod
    def of(cls, side: Iterable[int], n: int) -> "Bipartition":
        """Build the canonical cut containing the given side (complemented if needed)."""
        s = frozenset(int(i) for i in side)
        if any(i < 0 or i >= n for i in s):
            raise IndexOutOfRange(f"cut indices {sorted(s)} out of range for n={n}")
        if 0 not in s:
            s = frozenset(range(n)) - s
        return cls(s, n)

    @property
    def mask_b(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.mask_a

    def bitmask(self) -> int:
        return sum(1 << i for i in self.mask_a)

    def as_lists(self) -> tuple[list[int], list[int]]:
        return sorted(self.mask_a), sorted(self.mask_b)


def enumerate_bipartitions(n_or_layout) -> list[Bipartition]:
    """All 2^(n-1) - 1 canonical cuts in ascending-bitmask order."""
    n = n_or_layout if isinstance(n_or_layout, int) else as_layout(n_or_layout).n
    full = (1 << n) - 1
    cuts = []
    for mask in range(1, full, 2):  # bit 0 always set, never the full set
        side = frozenset(i for i in range(n) if mask >> i & 1)
        cuts.append(Bipartition(side, n))
    return cuts


# ---------------------------------------------------------------------------
# validation

def validate_state(mat, layout) -> DensityMatrix:
    """Check an untrusted matrix and return a cleaned DensityMatrix.

    Non-finite entries are refused. Hermiticity, trace and positivity are
    enforced at 1e-9; eigenvalues in [-1e-9, 0) are clipped to zero and the
    spectrum renormalized to unit trace.
    """
    lay = as_layout(layout)
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] != lay.dim:
        raise DimensionMismatch(
            f"matrix dimension {arr.shape[0]} does not match layout product {lay.dim}"
        )
    if not np.isfinite(arr).all():
        raise BadParameter("matrix has non-finite entries")
    herm_defect = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if herm_defect > HERMITICITY_TOL:
        raise NotHermitian(f"hermiticity defect {herm_defect:.3e} exceeds {HERMITICITY_TOL}")
    h = (arr + arr.conj().T) / 2.0
    tr = complex(np.trace(h))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr} differs from 1 by more than {TRACE_TOL}")
    eigs = np.linalg.eigvalsh(h)
    lo = float(eigs[0])
    if lo < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {lo:.3e} below -{PSD_TOL}")
    if lo < -1e-12:
        # genuinely dirty input: project onto the PSD cone and renormalize
        w, v = np.linalg.eigh(h)
        w = np.clip(w, 0.0, None)
        h = (v * w) @ v.conj().T
        h = (h + h.conj().T) / 2.0
        h = h / np.real(np.trace(h))
    elif abs(tr - 1.0) > 1e-12:
        h = h / np.real(tr)
    return DensityMatrix(lay, h)


# ---------------------------------------------------------------------------
# tensor algebra

def _permute_raw(mat: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors; ``order[k]`` is the current position moved to slot k."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    axes = list(order) + [n + i for i in order]
    d = int(np.prod([dims[i] for i in order]))
    return np.ascontiguousarray(t.transpose(axes)).reshape(d, d)


def permute_subsystems(rho: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Relabel subsystems so that output factor k is input factor ``order[k]``."""
    n = rho.n
    if sorted(order) != list(range(n)):
        raise BadParameter(f"order {list(order)} is not a permutation of range({n})")
    out = _permute_raw(np.asarray(rho.mat), rho.dims, order)
    return DensityMatrix(SubsystemLayout(tuple(rho.dims[i] for i in order)), out)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out everything except ``keep``, preserving the original ordering."""
    n = rho.n
    keep_sorted = sorted(set(int(i) for i in keep))
    if len(keep_sorted) == 0:
        raise EmptyKeepSet("keep set must be non-empty")
    if any(i < 0 or i >= n for i in keep_sorted):
        raise IndexOutOfRange(f"keep indices {keep_sorted} out of range for n={n}")
    if len(keep_sorted) == n:
        return rho
    traced = [i for i in range(n) if i not in keep_sorted]
    dims = rho.dims
    t = np.asarray(rho.mat).reshape(dims * 2)
    axes = keep_sorted + traced + [n + i for i in keep_sorted] + [n + i for i in traced]
    dk = int(np.prod([dims[i] for i in keep_sorted]))
    dt = int(np.prod([dims[i] for i in traced]))
    t4 = t.transpose(axes).reshape(dk, dt, dk, dt)
    out = np.einsum("abcb->ac", t4)
    return DensityMatrix(SubsystemLayout(tuple(dims[i] for i in keep_sorted)), out)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of two stacks of them pair by pair, without
    np.kron's per-call overhead on small ones."""
    shape = a.shape[:-2] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


def _split_marginals(rho_ab: np.ndarray, da: int) -> tuple[np.ndarray, np.ndarray]:
    """rho_A and rho_B of a matrix, or a stack of them, whose factors are
    ordered (A, B) with dim A = da."""
    db = rho_ab.shape[-1] // da
    t = rho_ab.reshape(rho_ab.shape[:-2] + (da, db, da, db))
    return np.einsum("...ijkj->...ik", t), np.einsum("...ijil->...jl", t)


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(
        SubsystemLayout(a.dims + b.dims), np.kron(np.asarray(a.mat), np.asarray(b.mat))
    )


def assemble_on_subsets(
    factors: Sequence[np.ndarray], subsets: Sequence[Sequence[int]], layout: SubsystemLayout
) -> DensityMatrix:
    """Kron the factor matrices (each living on a sorted index subset) and
    permute the result back into ascending subsystem order."""
    n = layout.n
    cur: list[int] = []
    big = None
    for f, sub in zip(factors, subsets):
        big = f if big is None else _kron(big, f)
        cur.extend(sub)
    if sorted(cur) != list(range(n)):
        raise BadParameter("subsets must partition the full index range")
    dims_cur = [layout.dims[i] for i in cur]
    order = [cur.index(k) for k in range(n)]
    return DensityMatrix(layout, _permute_raw(big, dims_cur, order))


def product_of_block_marginals(rho: DensityMatrix, blocks: Sequence[Iterable[int]]) -> DensityMatrix:
    subs = [sorted(set(b)) for b in blocks]
    mats = [np.asarray(partial_trace(rho, s).mat) for s in subs]
    return assemble_on_subsets(mats, subs, rho.layout)


def product_of_marginals(rho: DensityMatrix, cut: Bipartition) -> DensityMatrix:
    """The product rho_A (x) rho_B across the cut (original subsystem order).

    Equal bit for bit to ``product_of_block_marginals(rho, [A, B])``, from one
    reordering of rho to (A, B) instead of two partial traces.
    """
    if cut.n != rho.n:
        raise LayoutMismatch(f"cut over n={cut.n} applied to state with n={rho.n}")
    a_idx, b_idx = cut.as_lists()
    da = int(np.prod([rho.dims[i] for i in a_idx]))
    rho_ab = _permute_raw(np.asarray(rho.mat), rho.dims, a_idx + b_idx)
    return assemble_on_subsets(_split_marginals(rho_ab, da), [a_idx, b_idx], rho.layout)


# ---------------------------------------------------------------------------
# generators

def rng_from(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def substream(seed: int, name: str) -> np.random.Generator:
    """A named, reproducible child stream of the given seed."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[4 * k : 4 * k + 4], "big") for k in range(4))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=words))


def pure_state(vec: np.ndarray, layout) -> DensityMatrix:
    lay = as_layout(layout)
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.shape[0] != lay.dim:
        raise DimensionMismatch(f"vector length {v.shape[0]} does not match layout {lay.dims}")
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise BadParameter("zero vector cannot be normalized")
    v = v / nrm
    proj = np.outer(v, v.conj())
    proj = (proj + proj.conj().T) / 2.0  # keep the stored matrix exactly hermitian
    return DensityMatrix(lay, proj)


def maximally_mixed(layout) -> DensityMatrix:
    lay = as_layout(layout)
    return DensityMatrix(lay, np.eye(lay.dim, dtype=complex) / lay.dim)


def bell() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return pure_state(v, (2, 2))


def ghz(n: int) -> DensityMatrix:
    if n < 2:
        raise BadParameter("ghz needs at least 2 qubits")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return pure_state(v, (2,) * n)


def w_state(n: int) -> DensityMatrix:
    if n < 2:
        raise BadParameter("w needs at least 2 qubits")
    v = np.zeros(2**n, dtype=complex)
    for k in range(n):
        v[1 << k] = 1.0 / np.sqrt(n)
    return pure_state(v, (2,) * n)


def haar_pure(layout, seed: SeedLike) -> DensityMatrix:
    lay = as_layout(layout)
    rng = rng_from(seed)
    v = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    return pure_state(v, lay)


def ginibre_mixed(layout, rank: int, seed: SeedLike) -> DensityMatrix:
    """Full support when rank >= dim; induced-measure mixed state otherwise."""
    lay = as_layout(layout)
    if rank < 1:
        raise BadParameter(f"rank must be >= 1, got {rank}")
    rng = rng_from(seed)
    g = rng.standard_normal((lay.dim, rank)) + 1j * rng.standard_normal((lay.dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0  # keep the stored matrix exactly hermitian
    return DensityMatrix(lay, m / np.real(np.trace(m)))


def random_product(layout, cut: Bipartition, seed: SeedLike) -> DensityMatrix:
    """A random full-rank product state across the given cut."""
    lay = as_layout(layout)
    if cut.n != lay.n:
        raise LayoutMismatch(f"cut over n={cut.n} incompatible with layout n={lay.n}")
    rng = rng_from(seed)
    a_idx, b_idx = cut.as_lists()
    da = int(np.prod([lay.dims[i] for i in a_idx]))
    db = int(np.prod([lay.dims[i] for i in b_idx]))
    ma = np.asarray(ginibre_mixed((da,), da, rng).mat)
    mb = np.asarray(ginibre_mixed((db,), db, rng).mat)
    return assemble_on_subsets([ma, mb], [a_idx, b_idx], lay)
