"""CPTP maps in Kraus form: application, random draws, and named families.

Random channels are sampled by slicing a Haar unitary on dimension
out_dim * kraus_count into block isometries (Stinespring picture), so the
completeness relation holds by construction up to orthogonality round-off.

:func:`apply_local` applies each site's channel as one superoperator,
sum_k K (x) conj(K), contracted with the state in a single ``tensordot``
instead of a pair of products per Kraus operator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BadParameter, DimensionMismatch, IndexOutOfRange, LayoutMismatch
from .states import (
    DensityMatrix,
    SeedLike,
    SubsystemLayout,
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
        if self.in_dim < 1 or self.out_dim < 1:
            raise BadParameter("channel dimensions must be positive")
        ops = []
        acc = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for k in self.kraus:
            arr = np.asarray(k, dtype=complex)
            if arr.shape != (self.out_dim, self.in_dim):
                raise DimensionMismatch(
                    f"Kraus operator shape {arr.shape} != ({self.out_dim}, {self.in_dim})"
                )
            if not np.isfinite(arr).all():
                raise BadParameter("Kraus operator has non-finite entries")
            arr = arr.copy()
            arr.setflags(write=False)
            ops.append(arr)
            acc += arr.conj().T @ arr
        if not ops:
            raise BadParameter("a channel needs at least one Kraus operator")
        defect = float(np.max(np.abs(acc - np.eye(self.in_dim))))
        if defect > COMPLETENESS_TOL:
            raise BadParameter(f"Kraus completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL}")
        object.__setattr__(self, "kraus", tuple(ops))

    def apply_raw(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ mat @ k.conj().T
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
    if rho.dim != ch.in_dim:
        raise LayoutMismatch(f"state dimension {rho.dim} != channel input {ch.in_dim}")
    out = ch.apply_raw(np.asarray(rho.mat))
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
    return validate_state(out, lay)


def _apply_on_site(t: np.ndarray, ch: KrausChannel, site: int, n: int) -> np.ndarray:
    # t has axes (row_0..row_{n-1}, col_0..col_{n-1}); the superoperator
    # S[a, b, i, j] = sum_k K[a, i] conj(K[b, j]) maps the site's (row, col)
    # pair (i, j) to (a, b)
    ks = np.asarray(ch.kraus)
    sup = np.einsum("kai,kbj->abij", ks, ks.conj())
    out = np.tensordot(sup, t, axes=([2, 3], [site, n + site]))
    return np.moveaxis(out, (0, 1), (site, n + site))


def apply_local(lc: LocalChannel, rho: DensityMatrix) -> DensityMatrix:
    if lc.in_dims != rho.dims:
        raise LayoutMismatch(f"per-site inputs {lc.in_dims} != state layout {rho.dims}")
    n = rho.n
    dims = list(rho.dims)
    t = np.asarray(rho.mat).reshape(tuple(dims) * 2)
    for site, ch in enumerate(lc.channels):
        t = _apply_on_site(t, ch, site, n)
        dims[site] = ch.out_dim
    d = int(np.prod(dims))
    return validate_state(t.reshape(d, d), SubsystemLayout(tuple(dims)))


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
    rng = rng_from(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_channel(in_dim: int, out_dim: int, kraus_count: int, seed: SeedLike) -> KrausChannel:
    if in_dim < 1 or out_dim < 1 or kraus_count < 1:
        raise BadParameter("in_dim, out_dim and kraus_count must all be >= 1")
    big = out_dim * kraus_count
    if big < in_dim:
        raise BadParameter(
            f"out_dim*kraus_count = {big} must be >= in_dim = {in_dim} for an isometry"
        )
    u = haar_unitary(big, seed)
    v = u[:, :in_dim]
    ops = tuple(v[i * out_dim : (i + 1) * out_dim, :] for i in range(kraus_count))
    return KrausChannel(in_dim, out_dim, ops)


def dephasing(theta: float, phi: float) -> KrausChannel:
    """Projective dephasing of a qubit in the basis rotated by (theta, phi).

    theta = phi = 0 reproduces computational-basis dephasing.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    b0 = np.array([c, np.exp(1j * phi) * s], dtype=complex)
    b1 = np.array([-np.exp(-1j * phi) * s, c], dtype=complex)
    p0 = np.outer(b0, b0.conj())
    p1 = np.outer(b1, b1.conj())
    return KrausChannel(2, 2, (p0, p1))


def _weyl_ops(d: int) -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
    return ops


def depolarizing(p: float, d: int = 2) -> KrausChannel:
    """rho -> (1-p) rho + p I/d, via the Heisenberg-Weyl twirl."""
    if not 0.0 <= p <= 1.0:
        raise BadParameter(f"depolarizing strength must lie in [0, 1], got {p}")
    ops = []
    w0 = 1.0 - p + p / d**2
    ops.append(np.sqrt(w0) * np.eye(d, dtype=complex))
    if p > 0.0:
        weight = np.sqrt(p) / d
        for wop in _weyl_ops(d)[1:]:
            ops.append(weight * wop)
    return KrausChannel(d, d, tuple(ops))


def partial_trace_channel(layout, drop: Sequence[int]) -> KrausChannel:
    """The CPTP map tracing out the ``drop`` subsystems (Kraus rank = prod dims dropped)."""
    lay = as_layout(layout)
    n = lay.n
    drop_sorted = sorted(set(int(i) for i in drop))
    if not drop_sorted:
        raise BadParameter("drop set must be non-empty")
    if any(i < 0 or i >= n for i in drop_sorted):
        raise IndexOutOfRange(f"drop indices {drop_sorted} out of range for n={n}")
    keep = [i for i in range(n) if i not in drop_sorted]
    if not keep:
        raise BadParameter("cannot trace out every subsystem")
    dk = int(np.prod([lay.dims[i] for i in keep]))
    dt = int(np.prod([lay.dims[i] for i in drop_sorted]))
    din = lay.dim
    strides = {}
    acc = 1
    for i in reversed(range(n)):
        strides[i] = acc
        acc *= lay.dims[i]
    ops = []
    for t in range(dt):
        k = np.zeros((dk, din), dtype=complex)
        # decode t into drop digits
        digits = {}
        rem = t
        for i in reversed(drop_sorted):
            digits[i] = rem % lay.dims[i]
            rem //= lay.dims[i]
        for r in range(dk):
            rem = r
            kd = {}
            for i in reversed(keep):
                kd[i] = rem % lay.dims[i]
                rem //= lay.dims[i]
            col = sum(kd[i] * strides[i] for i in keep) + sum(
                digits[i] * strides[i] for i in drop_sorted
            )
            k[r, col] = 1.0
        ops.append(k)
    return KrausChannel(din, dk, tuple(ops))


def local_dephasing(angles: Sequence[tuple[float, float]]) -> LocalChannel:
    return LocalChannel(tuple(dephasing(t, p) for t, p in angles))


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
