"""Search for the channel in a parametrized family whose output retains the
most integrated information.

The search is derivative-free: quasi-random restarts inside the closed
parameter box, coordinate-wise golden-section ascent per restart, and a final
polish from the best point so far. The result is the best point evaluated.
Everything is deterministic for a fixed seed, budget and restart count.

Each restart is an ask/tell generator that yields the points it wants scored
and is sent their values. Every restart's share of the budget is fixed
before the first evaluation, so the restarts run in lockstep: each round
scores one point from every live restart as one (S, D, D) stack of channel
outputs, through the stacked channel, validation and phi kernels; a point
the search has scored before takes its value from a per-search memo. The
polish follows on its own. The trace lists each restart's evaluations in
restart order, so it equals a one-at-a-time search's bit for bit. The
spectrum grid is scored in stacks too.

The restarts are the first points of a scrambled Sobol sequence: Joe & Kuo
(2008) direction numbers, linear matrix scrambling plus a digital shift
(Matousek 1998; Owen 1998), in Gray-code order. They equal the points of
``scipy.stats.qmc.Sobol(d, scramble=True)`` for the same generator, and the
embedded table of direction numbers caps a searched family at
``SOBOL_DIM_MAX`` (32) parameters.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence, Union

import numpy as np

from .channels import (
    KrausChannel,
    LocalChannel,
    _apply_local,
    _check_completeness,
    _check_sites,
    _dephasing_kraus,
    _depolarizing_kraus,
    _output_layout,
    partial_trace_channel,
)
from .divergence import _stack_len
from .errors import BadBudget, BadParameter, GridTooLarge
from .phi import _phis
from .phi import phi as phi_fn
from .search import _golden
from .states import DensityMatrix, _array, _indices, _int, _pairs, _real, _validate_stack
from .states import as_layout, substream

ChannelLike = Union[KrausChannel, LocalChannel]

LINE_ITERS = 24  # golden-section iterations per coordinate line search
SHARE_MIN = 6  # fewest evaluations per restart: its start and one 5-evaluation line search
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
    It is a stack of one through :meth:`_outputs`, which maps a whole matrix
    of parameter points at once.
    """

    kind: str
    box: tuple[tuple[float, float], ...]
    builder: Callable[[np.ndarray], ChannelLike]
    # layouts cannot be inferred when a channel shrinks the system; families
    # that change dimensions report the output layout per parameter point
    # and input state, and raise LayoutMismatch for a state they do not take
    out_layout: Optional[Callable[[np.ndarray, DensityMatrix], tuple]] = None
    # set by _local_family only: every site's Kraus stack built straight from
    # an (S, n_params) matrix, per site an (S, K, d, d) stack and the (S,)
    # count of leading operators each point uses
    _site_kraus: Optional[Callable[[np.ndarray], list]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        box = []
        for pair in _pairs(self.box, "box entries (low, high)"):
            lo, hi = (_real(x, BadParameter, "parameter bounds") for x in pair)
            if lo > hi:
                raise BadParameter(f"malformed parameter interval ({lo}, {hi})")
            box.append((lo, hi))
        object.__setattr__(self, "box", tuple(box))

    @property
    def n_params(self) -> int:
        return len(self.box)

    def _point(self, params: Sequence[float]) -> np.ndarray:
        return _array(params, (self.n_params,), "parameter point", float)

    def _check(self, params: np.ndarray) -> None:
        """Raise unless every entry of an (S, n_params) matrix is finite and
        inside the box, to 1e-12."""
        bad = np.argwhere(~np.isfinite(params))
        if bad.size:
            raise BadParameter(f"parameter {params[tuple(bad[0])]} is not finite")
        lo = np.array([b[0] for b in self.box], dtype=float)
        hi = np.array([b[1] for b in self.box], dtype=float)
        bad = np.argwhere((params < lo - 1e-12) | (params > hi + 1e-12))
        if bad.size:
            i, j = bad[0]
            raise BadParameter(f"parameter {params[i, j]} outside [{lo[j]}, {hi[j]}]")

    def instantiate(self, params: Sequence[float]) -> ChannelLike:
        p = self._point(params)
        self._check(p[None])
        return self._channel(p)

    def _channel(self, p: np.ndarray) -> ChannelLike:
        """The builder's channel at the point p; anything else it returns
        raises BadParameter."""
        ch = self.builder(p)
        if not isinstance(ch, (KrausChannel, LocalChannel)):
            raise BadParameter(f"a family's builder must return a channel, got {ch!r}")
        return ch

    def apply(self, params: Sequence[float], rho: DensityMatrix) -> DensityMatrix:
        ((_, dims, mats),) = self._outputs(self._point(params)[None], rho)
        return DensityMatrix(dims, mats[0])

    def _outputs(self, params: np.ndarray, rho: DensityMatrix):
        """The validated output F_p(rho) of every row p of an (S, n_params)
        parameter matrix, grouped by output layout: a list of (rows, dims,
        stack), ``stack[i]`` the output of row ``rows[i]``.

        The local families build their Kraus stacks directly and apply them
        to every row at once; any other family builds and applies one
        channel per point. Each state's output equals what
        :func:`apply_local` or :func:`apply_channel` gives it alone.
        """
        self._check(params)
        applied = self._local(params, rho) if self._site_kraus else self._built(params, rho)
        layouts: dict = {}
        for rows, dims, out in applied:
            layouts.setdefault(dims, []).append((rows, out))
        return [
            (np.concatenate([r for r, _ in parts]), dims,
             _validate_stack(np.concatenate([o for _, o in parts])))
            for dims, parts in layouts.items()
        ]

    def _local(self, params: np.ndarray, rho: DensityMatrix):
        """(rows, dims, unvalidated outputs) of every row, applied as one
        stack. Each site applies all its operators, and the ones a point does
        not use are exact zeros, so a row's output is that of the operators
        it uses alone."""
        sites = self._site_kraus(params)
        _check_sites(tuple(k.shape[-1] for k, _ in sites), rho)
        for k, _ in sites:
            _check_completeness(k)
        out_dims = tuple(k.shape[-2] for k, _ in sites)
        mats = np.repeat(np.asarray(rho.mat)[None], len(params), axis=0)
        out = _apply_local([k for k, _ in sites], mats, rho.dims)
        return [(np.arange(len(params)), out_dims, out)]

    def _built(self, params: np.ndarray, rho: DensityMatrix):
        """(rows, dims, unvalidated output) per row: the builder's channel
        applied as a stack of one."""
        mat = np.asarray(rho.mat)
        for i, p in enumerate(params):
            ch = self._channel(p)
            if isinstance(ch, LocalChannel):
                _check_sites(ch.in_dims, rho)
                kraus = [np.asarray(c.kraus)[None] for c in ch.channels]
                yield np.array([i]), ch.out_dims, _apply_local(kraus, mat[None], rho.dims)
            else:
                lay = _output_layout(ch, rho, self.out_layout(p, rho) if self.out_layout else None)
                yield np.array([i]), lay.dims, ch.apply_raw(mat)[None]


def _local_family(kind: str, box: tuple, site_kraus: Callable[[np.ndarray], list]) -> ChannelFamily:
    """A family of local channels stated once, by ``site_kraus``; its builder
    takes each site's channel from a stack of one."""

    def build(p: np.ndarray) -> LocalChannel:
        sites = site_kraus(p[None])
        return LocalChannel(
            tuple(KrausChannel(k.shape[-1], k.shape[-2], tuple(k[0, : c[0]])) for k, c in sites)
        )

    family = ChannelFamily(kind=kind, box=box, builder=build)
    object.__setattr__(family, "_site_kraus", site_kraus)
    return family


def local_dephasing_family(layout) -> ChannelFamily:
    """Per-qubit basis dephasing; parameters are (theta_i, phi_i) per site."""
    lay = as_layout(layout)
    if any(d != 2 for d in lay.dims):
        raise BadParameter("dephasing family is defined for qubit layouts")
    box = tuple(((0.0, np.pi), (0.0, 2.0 * np.pi))[k % 2] for k in range(2 * lay.n))

    def site_kraus(params: np.ndarray) -> list:
        kraus = _dephasing_kraus(params[:, 0::2], params[:, 1::2])
        return [(kraus[:, i], np.full(len(params), 2)) for i in range(lay.n)]

    return _local_family("localDephasing", box, site_kraus)


def local_depolarizing_family(layout) -> ChannelFamily:
    lay = as_layout(layout)
    box = tuple((0.0, 1.0) for _ in range(lay.n))

    def site_kraus(params: np.ndarray) -> list:
        return [_depolarizing_kraus(params[:, i], d) for i, d in enumerate(lay.dims)]

    return _local_family("localDepolarizing", box, site_kraus)


def partial_trace_family(layout) -> ChannelFamily:
    """Discrete family over the drop sets that leave at least two subsystems.

    The single parameter is a continuous index rounded to the nearest choice,
    so the same search machinery applies. It takes states of ``layout``
    only, and raises :class:`LayoutMismatch` for any other.
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

    def kept_layout(p: np.ndarray, rho: DensityMatrix):
        _check_sites(lay.dims, rho)
        drop = set(pick(p))
        return tuple(d for i, d in enumerate(lay.dims) if i not in drop)

    return ChannelFamily(
        kind="partialTrace",
        box=((0.0, float(len(drops) - 1)),),
        builder=build,
        out_layout=kept_layout,
    )


def custom_family(box, builder, kind: str = "custom") -> ChannelFamily:
    return ChannelFamily(kind=kind, box=box, builder=builder)


@dataclass(frozen=True)
class ObserverResult:
    best_params: tuple[float, ...]
    phi_before: float
    phi_after: float
    ratio: float
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]
    near_optimal: tuple[tuple[float, ...], ...]  # every evaluated point within 1e-6 of the best


def _scores(family: ChannelFamily, params: np.ndarray, rho: DensityMatrix, mode: str) -> np.ndarray:
    """phi(family.apply(p, rho), mode).phi for every row p of an
    (S, n_params) matrix, bit for bit, scored in stacks of ``_stack_len(D)``
    points."""
    vals = np.empty(len(params))
    step = _stack_len(rho.dim)
    for s0 in range(0, len(params), step):
        for rows, dims, mats in family._outputs(params[s0:s0 + step], rho):
            vals[s0 + rows] = _phis(mats, dims, mode)
    return vals


def _ascend(p0, end: int, lows, highs, f0: Optional[float] = None) -> Generator:
    """Coordinate-wise golden-section ascent from p0 as an ask/tell generator:
    it yields each point to evaluate and is sent its value, while its own
    evaluation count stays <= end. p0 is evaluated first unless its value f0
    is known."""
    p = np.array(p0, dtype=float)
    count = 0
    if f0 is None:
        f_cur = yield p
        count = 1
    else:
        f_cur = f0
    while count < end:
        f_pass_start = f_cur
        for c in range(p.size):
            # a line search costs iters + 4 evaluations; never start one
            # that would pass the end
            room = end - count
            if room < 5:
                break
            pc = p[c]
            t_best, f_best, evals = yield from _on_axis(
                p, c, _golden(lows[c], highs[c], min(LINE_ITERS, room - 4))
            )
            count += evals
            if f_best > f_cur:
                p[c] = t_best
                f_cur = f_best
            else:
                p[c] = pc
        if f_cur - f_pass_start < 1e-12:
            break


def _on_axis(p: np.ndarray, c: int, line: Generator) -> Generator:
    """Run a line search's points through coordinate c of p; returns the
    line search's result."""
    t = next(line)
    while True:
        p[c] = t
        try:
            t = line.send((yield p))
        except StopIteration as done:
            return done.value


def _lockstep(chains: list, score: Callable[[np.ndarray], np.ndarray]) -> list:
    """Run ask/tell chains side by side: each round takes the next point of
    every live chain, scores the round's points as one stack and sends each
    chain its value. Returns each chain's log of (point, value)."""
    logs = [[] for _ in chains]
    asks = {}
    for i, chain in enumerate(chains):
        try:
            asks[i] = next(chain)
        except StopIteration:
            pass
    while asks:
        points = np.array(list(asks.values()), dtype=float)
        for i, p, v in zip(list(asks), points, score(points)):
            v = float(v)
            logs[i].append((tuple(p.tolist()), v))
            try:
                asks[i] = chains[i].send(v)
            except StopIteration:
                del asks[i]
    return logs


def maximize_phi(
    rho: DensityMatrix,
    family: ChannelFamily,
    budget: int = 2000,
    restarts: int = 8,
    seed: int = 0,
    mode: str = "marginal",
) -> ObserverResult:
    """Maximize phi(F(rho)) over the family's parameter box.

    ``budget`` caps the number of objective evaluations. Each restart gets a
    share of ``max(budget // restarts, SHARE_MIN)`` evaluations (its start
    point and at least one line search). As many restarts run as the budget
    funds at that share, at least one and at most ``restarts``; a budget below
    the share goes whole to the one restart. Whatever the restarts leave
    funds a final polish around the incumbent. The result is the best point the search
    evaluated, the earliest one on ties, so ``phi_after`` is the largest value
    in ``trace``. The starting points are the first points of the module's
    scrambled Sobol sequence, seeded from ``seed``, one per restart that runs,
    so ``restarts`` sizes no memory; a family with more than
    ``SOBOL_DIM_MAX`` (32) parameters raises :class:`BadParameter` before any
    evaluation.

    The restarts run in lockstep: each round scores one point from every live
    restart as one stack. A point the search has already scored takes its
    value from a memo, keyed by the point's bytes, but still counts as an
    evaluation. ``trace`` lists each restart's evaluations in restart order,
    then the polish's, and equals a one-at-a-time search's, bit for bit.
    """
    budget = _int(budget, 1, BadBudget, "budget")
    restarts = _int(restarts, 1, BadParameter, "restarts")
    share = min(max(budget // restarts, SHARE_MIN), budget)
    runs = min(restarts, budget // share)
    unit = _sobol_starts(family.n_params, runs, substream(seed, "observer-starts"))
    phi_before = phi_fn(rho, mode).phi
    lows = np.array([b[0] for b in family.box])
    highs = np.array([b[1] for b in family.box])

    trace: list[tuple[tuple[float, ...], float]] = []
    memo: dict[bytes, float] = {}

    def score(points: np.ndarray) -> list:
        # the points not scored yet, each once, in first-seen order
        keys = [p.tobytes() for p in points]
        new = {k: p for k, p in zip(keys, points) if k not in memo}
        if new:
            memo.update(zip(new, _scores(family, np.array(list(new.values())), rho, mode)))
        return [memo[k] for k in keys]

    def run(chains: list) -> None:
        for log in _lockstep(chains, score):
            trace.extend(log)

    starts = lows + unit * (highs - lows)
    run([_ascend(p, share, lows, highs) for p in starts])
    # the polish starts from the best point so far with whatever budget is left
    if len(trace) < budget:
        best_p, best_f = max(trace, key=lambda e: e[1])
        run([_ascend(best_p, budget - len(trace), lows, highs, best_f)])

    best_params, best_f = max(trace, key=lambda e: e[1])
    near = tuple(params for params, v in trace if best_f - v <= 1e-6)
    ratio = best_f / phi_before if phi_before > 0 else 0.0
    return ObserverResult(
        best_params=best_params,
        phi_before=phi_before,
        phi_after=best_f,
        ratio=ratio,
        evaluations=len(trace),
        trace=tuple(trace),
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
    over one or two distinct parameters, scored in stacks of
    ``_stack_len(D)`` points.

    Non-axis parameters sit at the box midpoint unless pinned via ``fixed``,
    a map from parameter index to value; pinning an axis parameter raises
    :class:`BadParameter`.
    """
    try:
        axes = [(idx, npts) for idx, npts in axes]
    except (TypeError, ValueError):
        raise BadParameter(f"grid axes must be (parameter, points) pairs, got {axes!r}") from None
    if not 1 <= len(axes) <= 2:
        raise BadParameter("spectrum grids cover one or two parameters")
    fixed = {} if fixed is None else fixed
    if not isinstance(fixed, Mapping):
        raise BadParameter(f"fixed parameters must map indices to values, got {fixed!r}")
    fixed = {k: _real(v, BadParameter, "fixed parameter values") for k, v in fixed.items()}
    index = [idx for idx, _ in axes]
    if len(_indices(index, family.n_params, BadParameter, "grid axes")) < len(index):
        raise BadParameter(f"grid axes {index} repeat a parameter")
    total = math.prod(_int(npts, 2, BadParameter, "axis point counts") for _, npts in axes)
    if total > GRID_CAP:
        raise GridTooLarge(f"grid of {total} points exceeds cap {GRID_CAP}")
    base = np.array([(lo + hi) / 2.0 for lo, hi in family.box])
    pinned = _indices(list(fixed), family.n_params, BadParameter, "fixed parameters")
    if set(pinned) & set(index):
        raise BadParameter(f"fixed parameters {pinned} pin a grid axis")
    for k, v in fixed.items():
        base[k] = v
    grids = [
        np.linspace(family.box[idx][0], family.box[idx][1], npts) for idx, npts in axes
    ]
    phi_before = phi_fn(rho, mode).phi
    # row-major over the axes, the first axis slowest
    params = np.repeat(base[None], total, axis=0)
    params[:, index] = np.array(list(itertools.product(*grids)))
    vals = _scores(family, params, rho, mode)
    frac = float(np.mean(vals >= 0.5 * phi_before)) if phi_before > 0 else 1.0
    return SpectrumResult(
        axes=tuple((int(i), int(npts)) for i, npts in axes),
        params=tuple(map(tuple, params.tolist())),
        values=tuple(vals.tolist()),
        phi_input=phi_before,
        fraction_retaining_half=frac,
    )
