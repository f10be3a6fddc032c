"""CPTP maps in Kraus form: application, random draws, and named families.

Random channels are sampled by slicing a Haar unitary on dimension
out_dim * kraus_count into block isometries (Stinespring picture), so the
completeness relation holds by construction up to orthogonality round-off.

:func:`apply_local` applies each site's channel as one superoperator,
sum_k K (x) conj(K), contracted with the state in a single matrix product
instead of a pair of products per Kraus operator. Both application paths
run on stacks of states, each with its own channel (:func:`_apply_kraus`,
:func:`_apply_local`); the one-state functions call them with a stack of one.
The Heisenberg-Weyl operators of :func:`depolarizing` are built once per
dimension. :func:`_dephasing_kraus` and :func:`_depolarizing_kraus` build the
Kraus operators of a whole array of parameters at once; :func:`dephasing` and
:func:`depolarizing` call them with one parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameter, IndexOutOfRange, LayoutMismatch
from .states import (
    DensityMatrix,
    SeedLike,
    SubsystemLayout,
    _array,
    _indices,
    _int,
    _pairs,
    _real,
    as_layout,
    rng_from,
    validate_state,
)

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators of shape (out_dim, in_dim)."""

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        _int(self.in_dim, 1, BadParameter, "in_dim")
        _int(self.out_dim, 1, BadParameter, "out_dim")
        ops = []
        for k in self.kraus:
            arr = _array(k, (self.out_dim, self.in_dim), "Kraus operator").copy()
            if not np.isfinite(arr).all():
                raise BadParameter("Kraus operator has non-finite entries")
            arr.setflags(write=False)
            ops.append(arr)
        if not ops:
            raise BadParameter("a channel needs at least one Kraus operator")
        _check_completeness(np.asarray(ops)[None])
        object.__setattr__(self, "kraus", tuple(ops))

    def apply_raw(self, mat: np.ndarray) -> np.ndarray:
        return _apply_kraus(np.asarray(self.kraus)[None], np.asarray(mat)[None])[0]


def _check_completeness(kraus: np.ndarray) -> None:
    """Raise unless sum_k K^dag K = 1 to COMPLETENESS_TOL for every channel of
    an (S, K, out_dim, in_dim) stack of Kraus families."""
    acc = np.einsum("skai,skaj->sij", kraus.conj(), kraus)
    defect = np.max(np.abs(acc - np.eye(kraus.shape[-1])), axis=(-2, -1))
    bad = np.flatnonzero(defect > COMPLETENESS_TOL)
    if bad.size:
        raise BadParameter(
            f"Kraus completeness defect {float(defect[bad[0]]):.3e} exceeds {COMPLETENESS_TOL}"
        )


def _apply_kraus(kraus: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag for every state of an (S, in_dim, in_dim) stack,
    each with its own Kraus family from an (S, K, out_dim, in_dim) stack. The
    terms are summed in Kraus order, as one channel at a time would."""
    out = np.zeros(mats.shape[:-2] + (kraus.shape[-2],) * 2, dtype=complex)
    for k in range(kraus.shape[-3]):
        op = kraus[..., k, :, :]
        out += op @ mats @ op.conj().swapaxes(-1, -2)
    return out


@dataclass(frozen=True)
class LocalChannel:
    """One independent channel per subsystem, applied in parallel."""

    channels: tuple[KrausChannel, ...]

    def __post_init__(self):
        if not self.channels:
            raise BadParameter("local channel needs at least one site")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def in_dims(self) -> tuple[int, ...]:
        return tuple(c.in_dim for c in self.channels)

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(c.out_dim for c in self.channels)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel(d, d, (np.eye(d, dtype=complex),))


def apply_channel(
    ch: KrausChannel, rho: DensityMatrix, out_layout: Optional[SubsystemLayout] = None
) -> DensityMatrix:
    """Apply the channel to the whole state and revalidate the output."""
    lay = _output_layout(ch, rho, out_layout)
    return validate_state(ch.apply_raw(np.asarray(rho.mat)), lay)


def _output_layout(
    ch: KrausChannel, rho: DensityMatrix, out_layout: Optional[SubsystemLayout] = None
) -> SubsystemLayout:
    """The layout of ch(rho): ``out_layout`` if given, else rho's when the
    dimension is kept, else one subsystem. Raises unless ch fits rho and the
    layout fits ch's output."""
    if rho.dim != ch.in_dim:
        raise LayoutMismatch(f"state dimension {rho.dim} != channel input {ch.in_dim}")
    if out_layout is None:
        if ch.out_dim == rho.dim:
            out_layout = rho.layout
        elif ch.out_dim >= 2:
            out_layout = SubsystemLayout((ch.out_dim,))
        else:
            raise LayoutMismatch("cannot infer an output layout for a 1-dimensional output")
    lay = as_layout(out_layout)
    if lay.dim != ch.out_dim:
        raise LayoutMismatch(f"output layout product {lay.dim} != channel output {ch.out_dim}")
    return lay


def _apply_local(kraus: Sequence[np.ndarray], mats: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """A local channel on every state of an (S, D, D) stack with layout
    ``dims``; ``kraus[site]`` is the (S, K, out_dim, in_dim) stack of that
    site's Kraus families, one per state. Each site's channel is applied as
    one superoperator, S[a, b, i, j] = sum_k K[a, i] conj(K[b, j]), which maps
    the site's (row, col) index pair (i, j) to (a, b)."""
    n, s = len(dims), mats.shape[0]
    dims = list(dims)
    t = mats.reshape((s,) + tuple(dims) * 2)
    for site, ks in enumerate(kraus):
        sup = np.einsum("skai,skbj->sabij", ks, ks.conj())
        dout, din = ks.shape[-2], ks.shape[-1]
        # the site's (row, col) axes first, then the rest in order
        rest = [1 + i for i in range(2 * n) if i not in (site, n + site)]
        t2 = t.transpose([0, 1 + site, 1 + n + site] + rest)
        tail = t2.shape[3:]
        out = sup.reshape(s, dout * dout, din * din) @ t2.reshape(s, din * din, -1)
        t = np.moveaxis(out.reshape((s, dout, dout) + tail), (1, 2), (1 + site, 1 + n + site))
        dims[site] = dout
    d = int(np.prod(dims))
    return t.reshape(s, d, d)


def _check_sites(in_dims: tuple[int, ...], rho: DensityMatrix) -> None:
    if in_dims != rho.dims:
        raise LayoutMismatch(f"per-site inputs {in_dims} != state layout {rho.dims}")


def apply_local(lc: LocalChannel, rho: DensityMatrix) -> DensityMatrix:
    _check_sites(lc.in_dims, rho)
    kraus = [np.asarray(ch.kraus)[None] for ch in lc.channels]
    out = _apply_local(kraus, np.asarray(rho.mat)[None], rho.dims)[0]
    return validate_state(out, SubsystemLayout(lc.out_dims))


def tensored(lc: LocalChannel) -> KrausChannel:
    """Collapse a local channel into one monolithic Kraus family (small n only)."""
    ops = [np.eye(1, dtype=complex)]
    for ch in lc.channels:
        ops = [np.kron(a, k) for a in ops for k in ch.kraus]
    din = int(np.prod(lc.in_dims))
    dout = int(np.prod(lc.out_dims))
    return KrausChannel(din, dout, tuple(ops))


# ---------------------------------------------------------------------------
# draws and named families

def haar_unitary(d: int, seed: SeedLike) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix (phase-fixed)."""
    return _haar_from_normals(rng_from(seed).standard_normal((2, d, d)))


def _haar_from_normals(x: np.ndarray) -> np.ndarray:
    """The unitary :func:`haar_unitary` makes from the standard normals
    x[..., 0, :, :] (real parts) and x[..., 1, :, :] (imaginary parts); a
    stack of draws goes through one stacked QR."""
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def _isometry_kraus(u: np.ndarray, in_dim: int, out_dim: int, kraus_count: int) -> np.ndarray:
    """The Kraus family of :func:`random_channel` from a Haar unitary on
    out_dim * kraus_count, or a stack of them: the row blocks of its first
    in_dim columns."""
    return u[..., :in_dim].reshape(u.shape[:-2] + (kraus_count, out_dim, in_dim))


def _random_kraus(x: np.ndarray, in_dim: int, out_dim: int, kraus_count: int) -> np.ndarray:
    """The Kraus families :func:`random_channel` builds from a stack of draws
    x of shape (S, 2, d, d), d = out_dim * kraus_count, as one
    (S, kraus_count, out_dim, in_dim) stack, checked for completeness."""
    kraus = _isometry_kraus(_haar_from_normals(x), in_dim, out_dim, kraus_count)
    _check_completeness(kraus)
    return kraus


def random_channel(in_dim: int, out_dim: int, kraus_count: int, seed: SeedLike) -> KrausChannel:
    for value, what in ((in_dim, "in_dim"), (out_dim, "out_dim"), (kraus_count, "kraus_count")):
        _int(value, 1, BadParameter, what)
    big = out_dim * kraus_count
    if big < in_dim:
        raise BadParameter(
            f"out_dim*kraus_count = {big} must be >= in_dim = {in_dim} for an isometry"
        )
    u = haar_unitary(big, seed)
    return KrausChannel(in_dim, out_dim, tuple(_isometry_kraus(u, in_dim, out_dim, kraus_count)))


def dephasing(theta: float, phi: float) -> KrausChannel:
    """Projective dephasing of a qubit in the basis rotated by (theta, phi).

    theta = phi = 0 reproduces computational-basis dephasing.
    """
    theta, phi = (_real(x, BadParameter, "dephasing angle") for x in (theta, phi))
    kraus = _dephasing_kraus(np.asarray(theta), np.asarray(phi))
    return KrausChannel(2, 2, tuple(kraus))


def _dephasing_kraus(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The Kraus pair of :func:`dephasing` for every angle pair of two
    same-shape arrays: an array of shape theta.shape + (2, 2, 2)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    b0 = np.stack([c, np.exp(1j * phi) * s], axis=-1)
    b1 = np.stack([-np.exp(-1j * phi) * s, c], axis=-1)
    b = np.stack([b0, b1], axis=-2)
    return b[..., :, None] * b.conj()[..., None, :]


@lru_cache(maxsize=16)
def _weyl_ops(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 Heisenberg-Weyl operators X^a Z^b, read-only and built once per d."""
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            op = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            op.setflags(write=False)
            ops.append(op)
    return tuple(ops)


def depolarizing(p: float, d: int = 2) -> KrausChannel:
    """rho -> (1-p) rho + p I/d, via the Heisenberg-Weyl twirl."""
    p = _real(p, BadParameter, "depolarizing strength")
    d = _int(d, 2, BadParameter, "depolarizing dimension")
    ops, count = _depolarizing_kraus(np.array([p]), d)
    return KrausChannel(d, d, tuple(ops[0, : count[0]]))


def _depolarizing_kraus(p: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus operators of :func:`depolarizing` for every strength of a
    1-D array: an (S, d^2, d, d) stack and the (S,) count of
    operators each strength has, d^2, or 1 at p = 0 (its trailing operators
    are zero)."""
    bad = np.flatnonzero(~((0.0 <= p) & (p <= 1.0)))
    if bad.size:
        raise BadParameter(f"depolarizing strength must lie in [0, 1], got {p[bad[0]]}")
    ops = np.empty((p.size, d * d, d, d), dtype=complex)
    ops[:, 0] = np.sqrt(1.0 - p + p / d**2)[:, None, None] * np.eye(d, dtype=complex)
    ops[:, 1:] = (np.sqrt(p) / d)[:, None, None, None] * np.asarray(_weyl_ops(d)[1:])
    return ops, np.where(p > 0.0, d * d, 1)


def partial_trace_channel(layout, drop: Sequence[int]) -> KrausChannel:
    """The CPTP map tracing out the ``drop`` subsystems.

    Kraus operator t maps basis state |k, t> (kept digits k, dropped digits t)
    to |k>: it is the (d_keep, D) block of rows of the identity, reordered to
    (keep, drop), whose dropped digits equal t. There are prod(dims dropped)
    of them, each a 0/1 matrix with one 1 per row.
    """
    lay = as_layout(layout)
    n = lay.n
    drop_sorted = _indices(drop, n, IndexOutOfRange, "drop indices")
    if not drop_sorted:
        raise BadParameter("drop set must be non-empty")
    keep = [i for i in range(n) if i not in drop_sorted]
    if not keep:
        raise BadParameter("cannot trace out every subsystem")
    din = lay.dim
    dk = math.prod(lay.dims[i] for i in keep)
    rows = np.eye(din, dtype=complex).reshape(lay.dims + (din,))
    rows = rows.transpose(keep + drop_sorted + [n]).reshape(dk, din // dk, din)
    return KrausChannel(din, dk, tuple(rows[:, t, :] for t in range(din // dk)))


def local_dephasing(angles: Sequence[tuple[float, float]]) -> LocalChannel:
    pairs = _pairs(angles, "dephasing angles (theta, phi)")
    return LocalChannel(tuple(dephasing(t, p) for t, p in pairs))


def local_depolarizing(ps: Sequence[float], dims: Sequence[int]) -> LocalChannel:
    if len(ps) != len(dims):
        raise BadParameter("need one strength per subsystem")
    return LocalChannel(tuple(depolarizing(p, d) for p, d in zip(ps, dims)))


def random_local_channel(layout, kraus_count: int, seed: SeedLike) -> LocalChannel:
    lay = as_layout(layout)
    rng = rng_from(seed)
    return LocalChannel(
        tuple(random_channel(d, d, kraus_count, rng) for d in lay.dims)
    )
