"""Search for the channel in a parametrized family whose output retains the
most integrated information.

The search is derivative-free: quasi-random restarts inside the closed
parameter box, coordinate-wise golden-section ascent per restart, and a final
polish from the best point so far. The result is the best point evaluated.
Everything is deterministic for a fixed seed, budget and restart count.

The restarts are the first points of a scrambled Sobol sequence: Joe & Kuo
(2008) direction numbers, linear matrix scrambling plus a digital shift
(Matousek 1998; Owen 1998), in Gray-code order. They equal the points of
``scipy.stats.qmc.Sobol(d, scramble=True)`` for the same generator, and the
embedded table of direction numbers caps a searched family at
``SOBOL_DIM_MAX`` (32) parameters.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channels import (
    KrausChannel,
    LocalChannel,
    apply_channel,
    apply_local,
    dephasing,
    depolarizing,
    partial_trace_channel,
)
from .errors import BadBudget, BadParameter, GridTooLarge
from .phi import phi as phi_fn
from .search import golden_max
from .states import DensityMatrix, as_layout, substream

ChannelLike = Union[KrausChannel, LocalChannel]

LINE_ITERS = 24  # golden-section iterations per coordinate line search
GRID_CAP = 1 << 16  # most points one spectrum grid may evaluate

# Joe & Kuo direction numbers for Sobol dimensions 2..32: a primitive
# polynomial over GF(2) as an integer (leading and constant terms included),
# then the initial odd m_1..m_s for its degree s. Dimension 1 has every m_j = 1.
_SOBOL_TABLE = (
    (3, 1), (7, 1, 3), (11, 1, 3, 1), (13, 1, 1, 1), (19, 1, 1, 3, 3),
    (25, 1, 3, 5, 13), (37, 1, 1, 5, 5, 17), (41, 1, 1, 5, 5, 5),
    (47, 1, 1, 7, 11, 19), (55, 1, 1, 5, 1, 1), (59, 1, 1, 1, 3, 11),
    (61, 1, 3, 5, 5, 31), (67, 1, 3, 3, 9, 7, 49), (91, 1, 1, 1, 15, 21, 21),
    (97, 1, 3, 1, 13, 27, 49), (103, 1, 1, 1, 15, 7, 5), (109, 1, 3, 1, 15, 13, 25),
    (115, 1, 1, 5, 5, 19, 61), (131, 1, 3, 7, 11, 23, 15, 103),
    (137, 1, 3, 7, 13, 13, 15, 69), (143, 1, 1, 3, 13, 7, 35, 63),
    (145, 1, 3, 5, 9, 1, 25, 53), (157, 1, 3, 1, 13, 9, 35, 107),
    (167, 1, 3, 1, 5, 27, 61, 31), (171, 1, 1, 5, 11, 19, 41, 61),
    (185, 1, 3, 5, 3, 3, 13, 69), (191, 1, 1, 7, 13, 1, 19, 1),
    (193, 1, 3, 7, 5, 13, 19, 59), (203, 1, 1, 3, 9, 25, 29, 41),
    (211, 1, 3, 5, 13, 23, 1, 55), (213, 1, 3, 7, 3, 13, 59, 17),
)
SOBOL_DIM_MAX = len(_SOBOL_TABLE) + 1
_SOBOL_BITS = 30


def _sobol_starts(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first n points in [0, 1)^d of the scrambled Sobol sequence that
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=rng)`` draws, bit for bit."""
    if d > SOBOL_DIM_MAX:
        raise BadParameter(f"the search covers at most {SOBOL_DIM_MAX} parameters, got {d}")
    # direction numbers m_j 2^(30-j), by the Bratley-Fox recurrence
    rows = [[1] * _SOBOL_BITS]
    for poly, *m in _SOBOL_TABLE[: max(d - 1, 0)]:
        s = len(m)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        rows.append(m)
    msb = np.arange(_SOBOL_BITS - 1, -1, -1)
    v = np.array(rows[:d], dtype=np.uint32).reshape(d, _SOBOL_BITS) << msb
    # scipy scrambles from a child of the generator's seed sequence;
    # Generator.spawn and the public seed_seq need numpy 1.25
    child = np.random.default_rng(rng.bit_generator._seed_seq.spawn(1)[0])
    shift_bits = child.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32)
    ltm = np.tril(child.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # left-multiply each direction number's MSB-first bit vector over GF(2)
    bits = v[..., None] >> msb & 1
    sv = ((np.einsum("dpi,dji->djp", ltm, bits) & 1) << msb).sum(axis=2)
    shift = (shift_bits << np.arange(_SOBOL_BITS)).sum(axis=1)
    # Gray-code order: point k flips the direction of k's lowest set bit
    steps = sv[:, [(k & -k).bit_length() - 1 for k in range(1, n)]].T
    return np.bitwise_xor.accumulate(np.vstack([shift, steps]), axis=0) * 2.0**-_SOBOL_BITS


@dataclass(frozen=True)
class ChannelFamily:
    """A box-parametrized family of channels acting on a fixed input layout.

    :meth:`apply` applies a :class:`LocalChannel` site by site and a
    :class:`KrausChannel` to the whole state, by what the builder returns.
    """

    kind: str
    box: tuple[tuple[float, float], ...]
    builder: Callable[[np.ndarray], ChannelLike]
    # layouts cannot be inferred when a channel shrinks the system; families
    # that change dimensions report the output layout per parameter point
    out_layout: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        for lo, hi in self.box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise BadParameter(f"malformed parameter interval ({lo}, {hi})")

    @property
    def n_params(self) -> int:
        return len(self.box)

    def instantiate(self, params: Sequence[float]) -> ChannelLike:
        p = np.asarray(params, dtype=float)
        if p.shape != (self.n_params,):
            raise BadParameter(f"expected {self.n_params} parameters, got shape {p.shape}")
        for x, (lo, hi) in zip(p, self.box):
            if x < lo - 1e-12 or x > hi + 1e-12:
                raise BadParameter(f"parameter {x} outside [{lo}, {hi}]")
        return self.builder(p)

    def apply(self, params: Sequence[float], rho: DensityMatrix) -> DensityMatrix:
        ch = self.instantiate(params)
        if isinstance(ch, LocalChannel):
            return apply_local(ch, rho)
        lay = None
        if self.out_layout is not None:
            lay = self.out_layout(np.asarray(params, dtype=float))
        return apply_channel(ch, rho, lay)


def local_dephasing_family(layout) -> ChannelFamily:
    """Per-qubit basis dephasing; parameters are (theta_i, phi_i) per site."""
    lay = as_layout(layout)
    if any(d != 2 for d in lay.dims):
        raise BadParameter("dephasing family is defined for qubit layouts")
    box = tuple(((0.0, np.pi), (0.0, 2.0 * np.pi))[k % 2] for k in range(2 * lay.n))

    def build(p: np.ndarray) -> LocalChannel:
        return LocalChannel(tuple(dephasing(p[2 * i], p[2 * i + 1]) for i in range(lay.n)))

    return ChannelFamily(kind="localDephasing", box=box, builder=build)


def local_depolarizing_family(layout) -> ChannelFamily:
    lay = as_layout(layout)
    box = tuple((0.0, 1.0) for _ in range(lay.n))

    def build(p: np.ndarray) -> LocalChannel:
        return LocalChannel(tuple(depolarizing(float(x), d) for x, d in zip(p, lay.dims)))

    return ChannelFamily(kind="localDepolarizing", box=box, builder=build)


def partial_trace_family(layout) -> ChannelFamily:
    """Discrete family over the drop sets that leave at least two subsystems.

    The single parameter is a continuous index rounded to the nearest choice,
    so the same search machinery applies.
    """
    lay = as_layout(layout)
    n = lay.n
    drops: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        drop = tuple(i for i in range(n) if mask >> i & 1)
        if n - len(drop) >= 2:
            drops.append(drop)
    if not drops:
        raise BadParameter("no drop set leaves two subsystems to cut")

    def pick(p: np.ndarray) -> tuple[int, ...]:
        k = int(round(float(p[0])))
        k = min(max(k, 0), len(drops) - 1)
        return drops[k]

    def build(p: np.ndarray) -> KrausChannel:
        return partial_trace_channel(lay, pick(p))

    def kept_layout(p: np.ndarray):
        drop = set(pick(p))
        return tuple(d for i, d in enumerate(lay.dims) if i not in drop)

    return ChannelFamily(
        kind="partialTrace",
        box=((0.0, float(len(drops) - 1)),),
        builder=build,
        out_layout=kept_layout,
    )


def custom_family(box, builder, kind: str = "custom") -> ChannelFamily:
    return ChannelFamily(kind=kind, box=tuple(tuple(b) for b in box), builder=builder)


@dataclass(frozen=True)
class ObserverResult:
    best_params: tuple[float, ...]
    phi_before: float
    phi_after: float
    ratio: float
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]
    near_optimal: tuple[tuple[float, ...], ...]  # every evaluated point within 1e-6 of the best


def _phi_of_output(rho: DensityMatrix, family: ChannelFamily, params: np.ndarray, mode: str) -> float:
    out = family.apply(params, rho)
    return phi_fn(out, mode).phi


def maximize_phi(
    rho: DensityMatrix,
    family: ChannelFamily,
    budget: int = 2000,
    restarts: int = 8,
    seed: int = 0,
    mode: str = "marginal",
) -> ObserverResult:
    """Maximize phi(F(rho)) over the family's parameter box.

    ``budget`` caps the number of objective evaluations; each of the
    ``restarts`` starting points receives an equal share, and whatever
    remains funds a final polish around the incumbent. The result is the best
    point the search evaluated, the earliest one on ties, so ``phi_after`` is
    the largest value in ``trace``. The starting points are the first
    ``restarts`` points of the module's scrambled Sobol sequence, seeded from
    ``seed``; a family with more than ``SOBOL_DIM_MAX`` (32) parameters raises
    :class:`BadParameter` before any evaluation.
    """
    if budget < 1:
        raise BadBudget(f"budget must be >= 1, got {budget}")
    if restarts < 1:
        raise BadParameter(f"restarts must be >= 1, got {restarts}")
    unit = _sobol_starts(family.n_params, restarts, substream(seed, "observer-starts"))
    phi_before = phi_fn(rho, mode).phi
    lows = np.array([b[0] for b in family.box])
    highs = np.array([b[1] for b in family.box])

    log: list[tuple[tuple[float, ...], float]] = []

    def objective(p: np.ndarray) -> float:
        v = _phi_of_output(rho, family, p, mode)
        log.append((tuple(float(x) for x in p), v))
        return v

    def best() -> tuple[tuple[float, ...], float]:
        return max(log, key=lambda e: e[1])

    def ascend(p0, end: int, f0: Optional[float] = None) -> None:
        """Coordinate-wise ascent from p0 while the evaluation count stays <= end;
        p0 is evaluated first unless its value f0 is known."""
        p = np.array(p0, dtype=float)
        f_cur = objective(p) if f0 is None else f0
        while len(log) < end:
            f_pass_start = f_cur
            for c in range(p.size):
                # a line search costs iters + 4 evaluations; never start one
                # that would pass the end
                room = end - len(log)
                if room < 5:
                    break

                def g(t: float) -> float:
                    p[c] = t
                    return objective(p)

                pc = p[c]
                t_best, f_best, _ = golden_max(g, lows[c], highs[c], min(LINE_ITERS, room - 4))
                if f_best > f_cur:
                    p[c] = t_best
                    f_cur = f_best
                else:
                    p[c] = pc
            if f_cur - f_pass_start < 1e-12:
                break

    starts = lows + unit * (highs - lows)
    per_restart = max(budget // restarts, family.n_params + 1)
    # the last pass polishes the best point so far with whatever budget is left
    for r in range(restarts + 1):
        if len(log) >= budget:
            break
        if r < restarts:
            ascend(starts[r], min(len(log) + per_restart, budget))
        else:
            best_p, best_f = best()
            ascend(best_p, budget, best_f)

    best_params, best_f = best()
    near = tuple(params for params, v in log if best_f - v <= 1e-6)
    ratio = best_f / phi_before if phi_before > 0 else 0.0
    return ObserverResult(
        best_params=best_params,
        phi_before=phi_before,
        phi_after=best_f,
        ratio=ratio,
        evaluations=len(log),
        trace=tuple(log),
        near_optimal=near,
    )


@dataclass(frozen=True)
class SpectrumResult:
    axes: tuple[tuple[int, int], ...]         # (parameter index, point count)
    params: tuple[tuple[float, ...], ...]      # row-major over the axes
    values: tuple[float, ...]
    phi_input: float
    fraction_retaining_half: float


def observer_spectrum(
    rho: DensityMatrix,
    family: ChannelFamily,
    axes: Sequence[tuple[int, int]],
    fixed: Optional[dict] = None,
    mode: str = "marginal",
) -> SpectrumResult:
    """Evaluate phi(F(rho)) on a dense grid of at most ``GRID_CAP`` points
    over one or two parameters.

    Non-axis parameters sit at the box midpoint unless pinned via ``fixed``,
    a map from parameter index to value.
    """
    if not 1 <= len(axes) <= 2:
        raise BadParameter("spectrum grids cover one or two parameters")
    total = 1
    for idx, npts in axes:
        if not (0 <= idx < family.n_params):
            raise BadParameter(f"axis parameter {idx} out of range")
        if npts < 2:
            raise BadParameter("each axis needs at least 2 points")
        total *= npts
    if total > GRID_CAP:
        raise GridTooLarge(f"grid of {total} points exceeds cap {GRID_CAP}")
    base = np.array([(lo + hi) / 2.0 for lo, hi in family.box])
    for k, v in (fixed or {}).items():
        if not 0 <= int(k) < family.n_params:
            raise BadParameter(f"fixed parameter {k} out of range [0, {family.n_params})")
        base[int(k)] = float(v)
    grids = [
        np.linspace(family.box[idx][0], family.box[idx][1], npts) for idx, npts in axes
    ]
    phi_before = phi_fn(rho, mode).phi
    params_out: list[tuple[float, ...]] = []
    values: list[float] = []
    for point in itertools.product(*grids):
        p = base.copy()
        for (idx, _), x in zip(axes, point):
            p[idx] = x
        v = _phi_of_output(rho, family, p, mode)
        params_out.append(tuple(float(x) for x in p))
        values.append(v)
    vals = np.array(values)
    frac = float(np.mean(vals >= 0.5 * phi_before)) if phi_before > 0 else 1.0
    return SpectrumResult(
        axes=tuple((int(i), int(npts)) for i, npts in axes),
        params=tuple(params_out),
        values=tuple(float(v) for v in values),
        phi_input=phi_before,
        fraction_retaining_half=frac,
    )
