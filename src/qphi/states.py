"""Multipartite density operators: layouts, validation, tensor algebra, generators.

Subsystem 0 is the most significant factor in the Kronecker ordering, so the
computational-basis index of ``|x0 x1 ... x_{n-1}>`` is ``x0*d1*...*d_{n-1} + ...``.
All randomness flows through ``numpy.random.Generator`` seeded explicitly;
identical seeds reproduce matrices bit for bit. :func:`_spectral` is the
package's one functional calculus: every f(A) = V f(w) V^dag (log, square root,
pseudo-inverse square root) is rebuilt by it, each caller flooring w by its own
policy. Dimensions, counts, indices and seeds must be integers, checked by
:func:`_int` (a floor) and :func:`_indices` (a range): floats, bools and
strings are refused, not truncated. Real parameters (strengths, angles,
bounds, weights, tolerances) must be finite real numbers, checked by
:func:`_real`: bools, strings, NaN and infinities are refused. Arrays (matrices,
vectors, Kraus operators, parameter points) must hold numbers and have the
expected shape, checked by :func:`_array`: bools, strings and None are refused.
"""
from __future__ import annotations

import math
import numbers
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
    StateTooLarge,
    TraceNotOne,
)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
# no state has dimension above 2**DEFAULT_N_CAP, a register of this many
# qubits: phi eigensolves D x D matrices on each of its 2**(n-1) - 1 cuts
DEFAULT_N_CAP = 12

# a string, so that importing this module does not load numpy.random
SeedLike = Union[int, "np.random.Generator"]


def _is_int(x) -> bool:
    """Integers only, numpy's included: bools, floats and strings are refused."""
    # the exact-type test first: it is the common case, and the ABC test is slow
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _items(values, exc: type, what: str, of: str) -> list:
    """``values`` as a list; a string, a dict or anything not iterable raises
    ``exc``, whose message names the entries wanted, ``of``."""
    # concrete types, not the slower abstract ones: layouts come through here
    if isinstance(values, (str, dict)) or not hasattr(values, "__iter__"):
        raise exc(f"{what} must be a list of {of}, got {values!r}")
    return list(values)


def _ints(values: Iterable, exc: type, what: str) -> list[int]:
    """``values`` as ints (:func:`_items`); an entry that is not an integer
    raises ``exc``."""
    values = _items(values, exc, what, "integers")
    for v in values:
        if not _is_int(v):
            raise exc(f"{what} must be integers, got {v!r}")
    return [int(v) for v in values]


def _is_number(x) -> bool:
    """Finite real numbers only, numpy's included: bools, strings, NaN and
    infinities are refused."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _real(value, exc: type, what: str) -> float:
    """``value`` as a float; anything but a finite real number raises ``exc``."""
    if not _is_number(value):
        raise exc(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _pairs(values, what: str) -> list[tuple]:
    """``values`` as a list of 2-tuples; anything else raises BadParameter."""
    try:
        pairs = [tuple(v) for v in _items(values, BadParameter, what, "pairs")]
    except TypeError:
        raise BadParameter(f"{what} must be pairs, got {values!r}") from None
    for pair in pairs:
        if len(pair) != 2:
            raise BadParameter(f"{what} must be pairs, got {pair!r}")
    return pairs


def _int(value, lo: int, exc: type, what: str) -> int:
    """``value`` as an int of at least ``lo``; anything else raises ``exc``."""
    if not _is_int(value) or value < lo:
        floor = "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
        raise exc(f"{what} must be {floor}, got {value!r}")
    return int(value)


def _array(values, shape: tuple, what: str, dtype: type = complex) -> np.ndarray:
    """``values`` as a ``dtype`` array of shape ``shape``, copied only to convert;
    a None in ``shape`` is the first axis's length, so (None, None) is square.
    Anything but numbers (real ones for a real ``dtype``) raises BadParameter,
    another shape DimensionMismatch."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise BadParameter(f"{what} must be an array of numbers, not ragged") from None
    if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise BadParameter(f"{what} must be an array of numbers, got {arr.dtype} entries")
    want = tuple(arr.shape[0] if s is None and arr.ndim else s for s in shape)
    if arr.shape != want:
        raise DimensionMismatch(f"{what} has shape {arr.shape}, expected {want}")
    return arr.astype(dtype, copy=False)


def _indices(values: Iterable, n: int, exc: type, what: str) -> list[int]:
    """The distinct entries of ``values``, ascending, as ints in [0, n); an
    entry that is not an integer or lies outside raises ``exc``."""
    out = sorted(set(_ints(values, exc, what)))
    if out and (out[0] < 0 or out[-1] >= n):
        raise exc(f"{what} {out} out of range [0, {n})")
    return out


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered local dimensions of the tensor factors. The package's one
    size rule: a dimension D above ``2**DEFAULT_N_CAP`` = 4096, hence also
    n above ``DEFAULT_N_CAP``, raises :class:`StateTooLarge`, so generators
    and the reader refuse a state before its matrix is allocated or decoded."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_ints(self.dims, DimensionMismatch, "local dimensions"))
        if len(dims) == 0:
            raise DimensionMismatch("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise DimensionMismatch(f"every local dimension must be >= 2, got {dims}")
        # the count first, so that no product of a long list is formed
        if len(dims) > DEFAULT_N_CAP or math.prod(dims) > 2**DEFAULT_N_CAP:
            raise StateTooLarge(f"layout of {len(dims)} subsystems has D > {2**DEFAULT_N_CAP}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def as_layout(layout) -> SubsystemLayout:
    if isinstance(layout, SubsystemLayout):
        return layout
    return SubsystemLayout(tuple(layout))


@dataclass(frozen=True)
class DensityMatrix:
    """A density operator together with its subsystem layout.

    Construction does only the layout's checks and :func:`_array`'s (a D x D
    array of numbers); use :func:`validate_state` for untrusted matrices (it
    also enforces finiteness, hermiticity, unit trace and positivity).
    """

    layout: SubsystemLayout
    mat: np.ndarray

    def __post_init__(self):
        layout = as_layout(self.layout)
        object.__setattr__(self, "layout", layout)
        arr = _array(self.mat, (layout.dim, layout.dim), "density matrix").copy()
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
        _int(self.n, 1, InvalidCut, "subsystem count")
        mask = frozenset(_indices(self.mask_a, self.n, IndexOutOfRange, "cut indices"))
        object.__setattr__(self, "mask_a", mask)
        if len(mask) == 0 or len(mask) == self.n:
            raise InvalidCut("a bipartition needs two non-empty sides")
        if 0 not in mask:
            raise InvalidCut("canonical form requires subsystem 0 in side A")

    @classmethod
    def of(cls, side: Iterable[int], n: int) -> "Bipartition":
        """Build the canonical cut containing the given side (complemented if needed)."""
        s = frozenset(_indices(side, n, IndexOutOfRange, "cut indices"))
        if 0 not in s:
            s = frozenset(range(_int(n, 1, InvalidCut, "subsystem count"))) - s
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
    if isinstance(n_or_layout, numbers.Number):
        n = _int(n_or_layout, 1, BadParameter, "subsystem count")
    else:
        n = as_layout(n_or_layout).n
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

    A D x D array of numbers (:func:`_array`) with finite entries is required.
    Hermiticity, trace and positivity are enforced at 1e-9; eigenvalues in
    [-1e-9, 0) are clipped to zero and the spectrum renormalized to unit trace.
    """
    lay = as_layout(layout)
    return DensityMatrix(lay, _validate_stack(_array(mat, (lay.dim,) * 2, "matrix")[None])[0])


def _adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix or of each matrix of a stack, in a
    new C-ordered array."""
    return np.conjugate(m.swapaxes(-1, -2), out=np.empty(m.shape, dtype=complex))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2, exactly hermitian, built in one new array: IEEE addition
    commutes, so it equals the expression bit for bit."""
    h = _adjoint(m)
    h += m
    h /= 2.0
    return h


def _spectral(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V diag(x) V^dag for eigenvectors V and values x = f(w), the caller's
    floor applied: f(A) of one matrix or of each matrix of a stack."""
    return (v * x[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _validate_stack(arr: np.ndarray) -> np.ndarray:
    """The checks and cleaning of :func:`validate_state`, applied to every
    matrix of an (S, D, D) stack with one stacked eigensolve; the first
    matrix that fails a check raises."""
    if not np.isfinite(arr).all():
        raise BadParameter("matrix has non-finite entries")
    h = _adjoint(arr)
    herm_defect = np.max(np.abs(arr - h), axis=(-2, -1))
    bad = np.flatnonzero(herm_defect > HERMITICITY_TOL)
    if bad.size:
        raise NotHermitian(
            f"hermiticity defect {float(herm_defect[bad[0]]):.3e} exceeds {HERMITICITY_TOL}"
        )
    # the hermitian part, built as _hermitian_part builds it
    h += arr
    h /= 2.0
    tr = np.trace(h, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise TraceNotOne(f"trace {complex(tr[bad[0]])} differs from 1 by more than {TRACE_TOL}")
    lo = np.linalg.eigvalsh(h)[:, 0]
    bad = np.flatnonzero(lo < -PSD_TOL)
    if bad.size:
        raise NotPSD(f"minimum eigenvalue {float(lo[bad[0]]):.3e} below -{PSD_TOL}")
    # genuinely dirty input: project onto the PSD cone and renormalize
    dirty = lo < -1e-12
    if dirty.any():
        w, v = np.linalg.eigh(h[dirty])
        p = _hermitian_part(_spectral(v, np.clip(w, 0.0, None)))
        h[dirty] = p / np.real(np.trace(p, axis1=-2, axis2=-1))[:, None, None]
    off = ~dirty & (np.abs(tr - 1.0) > 1e-12)
    if off.any():
        h[off] = h[off] / np.real(tr[off])[:, None, None]
    return h


# ---------------------------------------------------------------------------
# tensor algebra

def _permute_raw(mat: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors; ``order[k]`` is the current position moved to slot k.
    ``mat`` may be a stack of matrices (leading axes are kept)."""
    n, lead = len(dims), mat.shape[:-2]
    b = len(lead)
    t = mat.reshape(lead + tuple(dims) * 2)
    axes = list(range(b)) + [b + i for i in order] + [b + n + i for i in order]
    d = math.prod(dims[i] for i in order)
    return np.ascontiguousarray(t.transpose(axes)).reshape(lead + (d, d))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out everything except ``keep``, preserving the original ordering."""
    keep_sorted = _indices(keep, rho.n, IndexOutOfRange, "keep indices")
    if len(keep_sorted) == 0:
        raise EmptyKeepSet("keep set must be non-empty")
    if len(keep_sorted) == rho.n:
        return rho
    dims = rho.dims
    out = _partial_trace_raw(np.asarray(rho.mat), dims, keep_sorted)
    return DensityMatrix(SubsystemLayout(tuple(dims[i] for i in keep_sorted)), out)


def _partial_trace_raw(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """The marginal on the sorted subsystems ``keep`` of a matrix, or of a stack
    of them: one einsum over the layout tensor, each traced factor's column
    label equal to its row label, with no reordered copy of the matrix."""
    n = len(dims)
    cols = [n + i if i in keep else i for i in range(n)]
    t = mat.reshape(mat.shape[:-2] + tuple(dims) * 2)
    out = np.einsum(t, [..., *range(n), *cols], [..., *keep, *(n + i for i in keep)])
    dk = math.prod(dims[i] for i in keep)
    return out.reshape(mat.shape[:-2] + (dk, dk))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    # the layout first, so that its size rule refuses before any product is formed
    layout = SubsystemLayout(a.dims + b.dims)
    return assemble_on_subsets([a.mat, b.mat], (range(a.n), range(a.n, layout.n)), layout)


def assemble_on_subsets(
    factors: Sequence[np.ndarray], subsets: Sequence[Sequence[int]], layout: SubsystemLayout
) -> DensityMatrix:
    """Kron the factor matrices (each living on a sorted index subset) and
    permute the result back into ascending subsystem order."""
    return DensityMatrix(layout, _assemble_raw(factors, subsets, layout.dims))


def _assemble_raw(
    factors: Sequence[np.ndarray],
    subsets: Sequence[Sequence[int]],
    dims: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`assemble_on_subsets` on bare matrices; each factor may be a stack
    of matrices (the stacks are paired up, not crossed). Each factor is read
    as a tensor over the whole layout, of size 1 on the subsystems it does
    not hold, so the product of these comes out in ascending subsystem order
    with no transpose; a factor on an unsorted subset is first put in order.
    The last product is written into ``out`` if given, a C-contiguous array
    of the result's shape, with the same bits."""
    n = len(dims)
    if sorted(i for sub in subsets for i in sub) != list(range(n)):
        raise BadParameter("subsets must partition the full index range")
    tensors = []
    for f, sub in zip(factors, subsets):
        if list(sub) != sorted(sub):
            f, sub = _permute_raw(f, [dims[i] for i in sub], np.argsort(sub)), sorted(sub)
        shape = tuple(d if i in sub else 1 for i, d in enumerate(dims)) * 2
        tensors.append(f.reshape(f.shape[:-2] + shape))
    prod = tensors[0]
    for t in tensors[1:-1]:
        prod = prod * t
    dim = math.prod(dims)
    if out is None:
        prod = prod * tensors[-1] if len(tensors) > 1 else prod
        return prod.reshape(prod.shape[:-2 * n] + (dim, dim))
    target = out.reshape(out.shape[:-2] + tuple(dims) * 2)
    if len(tensors) > 1:
        np.multiply(prod, tensors[-1], out=target)
    else:
        np.copyto(target, prod)
    return out


def product_of_block_marginals(rho: DensityMatrix, blocks: Sequence[Iterable[int]]) -> DensityMatrix:
    """The product of the marginals on the blocks, which must partition the
    subsystems (original subsystem order)."""
    subs = [sorted(set(_ints(b, BadParameter, "block indices"))) for b in blocks]
    if not all(subs) or sorted(i for s in subs for i in s) != list(range(rho.n)):
        raise BadParameter(f"blocks {subs} do not partition range({rho.n})")
    mats = [_partial_trace_raw(np.asarray(rho.mat), rho.dims, s) for s in subs]
    return assemble_on_subsets(mats, subs, rho.layout)


def product_of_marginals(rho: DensityMatrix, cut: Bipartition) -> DensityMatrix:
    """The product rho_A (x) rho_B across the cut (original subsystem order):
    :func:`product_of_block_marginals` on the cut's two sides."""
    if cut.n != rho.n:
        raise LayoutMismatch(f"cut over n={cut.n} applied to state with n={rho.n}")
    return product_of_block_marginals(rho, cut.as_lists())


# ---------------------------------------------------------------------------
# generators

def rng_from(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_int(seed, 0, BadParameter, "seed"))


def substream(seed: int, name: str) -> np.random.Generator:
    """A named, reproducible child stream of the given seed."""
    import hashlib  # here, not at the top: only seeded generators need it

    if not isinstance(name, str):
        raise BadParameter(f"stream name must be a string, got {name!r}")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[4 * k : 4 * k + 4], "big") for k in range(4))
    entropy = _int(seed, 0, BadParameter, "seed")
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy, spawn_key=words))


def pure_state(vec: np.ndarray, layout) -> DensityMatrix:
    """|v><v|/<v|v> of a 1-D vector v of D finite numbers, not all zero."""
    lay = as_layout(layout)
    return DensityMatrix(lay, _pure_stack(_array(vec, (lay.dim,), "state vector")))


def _pure_stack(v: np.ndarray) -> np.ndarray:
    """|v><v|/<v|v> of a vector, or of each row of a stack of them, kept
    exactly hermitian. The norm is taken as np.linalg.norm takes it, one
    BLAS dot per real and imaginary part, so a stack matches the per-vector
    results bit for bit. A vector whose norm is zero or not finite is refused."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if not (np.isfinite(sq) & (sq > 0.0)).all():
        raise BadParameter("a vector whose norm is zero or not finite cannot be normalized")
    v = v / np.sqrt(sq)
    proj = v[..., :, None] * v.conj()[..., None, :]
    return _hermitian_part(proj)  # keep the stored matrix exactly hermitian


def maximally_mixed(layout) -> DensityMatrix:
    lay = as_layout(layout)
    return DensityMatrix(lay, np.eye(lay.dim, dtype=complex) / lay.dim)


def bell() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return pure_state(v, (2, 2))


def _qubits(n: int, name: str) -> SubsystemLayout:
    """n qubits; past the size rule, n is refused before (2,) * n is built."""
    if _int(n, 2, BadParameter, f"{name} qubit count") > DEFAULT_N_CAP:
        raise StateTooLarge(f"{name} of {n} qubits exceeds {DEFAULT_N_CAP} qubits")
    return SubsystemLayout((2,) * n)


def ghz(n: int) -> DensityMatrix:
    lay = _qubits(n, "ghz")
    v = np.zeros(lay.dim, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return pure_state(v, lay)


def w_state(n: int) -> DensityMatrix:
    lay = _qubits(n, "w")
    v = np.zeros(lay.dim, dtype=complex)
    for k in range(n):
        v[1 << k] = 1.0 / np.sqrt(n)
    return pure_state(v, lay)


def haar_pure(layout, seed: SeedLike) -> DensityMatrix:
    lay = as_layout(layout)
    rng = rng_from(seed)
    v = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    return pure_state(v, lay)


def ginibre_mixed(layout, rank: int, seed: SeedLike) -> DensityMatrix:
    """Full support when rank >= dim; induced-measure mixed state otherwise.
    A draw of more D x rank entries than 4**DEFAULT_N_CAP is refused."""
    lay = as_layout(layout)
    if lay.dim * _int(rank, 1, BadParameter, "rank") > 4**DEFAULT_N_CAP:
        raise StateTooLarge(f"Ginibre draw {lay.dim} x {rank} exceeds 4**{DEFAULT_N_CAP} entries")
    rng = rng_from(seed)
    g = rng.standard_normal((lay.dim, rank)) + 1j * rng.standard_normal((lay.dim, rank))
    return DensityMatrix(lay, _ginibre_stack(g))


def _ginibre_stack(g: np.ndarray) -> np.ndarray:
    """G G^dag / tr(G G^dag) of a matrix, or of each matrix of a stack, kept
    exactly hermitian; a stack matches the per-matrix results bit for bit."""
    m = _hermitian_part(g @ g.conj().swapaxes(-1, -2))  # keep the stored matrix exactly hermitian
    m /= np.real(np.trace(m, axis1=-2, axis2=-1))[..., None, None]
    return m


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
