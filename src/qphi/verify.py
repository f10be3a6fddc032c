"""Batch verification suite: asserted inequality checks plus report-only probes.

Every check draws from its own named substream of the configured seed and runs
sequentially, so reports are byte-for-byte reproducible regardless of any
thread-count hint a caller passes along.

Checks draw and score their states in stacks of at most 1 MB of matrices
(``divergence._STACK_BYTES``), each sized by the code that builds it. One
sampler, :func:`_samples`, takes the draws of every check but the Petz one
(sample t draws its states, then any Kraus count and channel) and sizes its
runs from what it holds of them. It yields one group per layout and run: a
channel check's Kraus families come as one stack, zero-padded to the largest
Kraus count, so each run is scored as one stack per layout, and of each
channel's Ginibre draw only the columns its QR reads are held. The Petz
products draw sample by sample, as what they draw changes shape with the cut
drawn just before, and are built and scored in stacks, one per layout and
cut; the Markov chains are drawn as one block and recovered as one stack. A
kernel that builds more matrices than it is given splits its input itself, so
no check works out a run length. The stacked kernels
(:func:`qphi.phi._cut_divergences`, :func:`qphi.phi._partition_divergences`,
:func:`qphi.phi._refine_products`, :func:`qphi.divergence._grams`,
:func:`qphi.blanket._petz_stack`, the stacked channel application and
validation) give the values of per-state scoring to round-off. Divergence,
convexity, Lipschitz, Petz and blanket scores come from the stacked bodies
behind the library's public functions. A statistic over no samples is null.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .blanket import _petz_stack, _scan
from .channels import _apply_kraus, _apply_local, _random_kraus
from .divergence import (
    LN2, _ensemble_entropies, _grams, _kernel_min_eigenvalue, _negative_type, _pair_divergences,
    _stack_len,
)
from .errors import ConfigInvalid
from .phi import (
    _convexity_violations,
    _cut_divergences,
    _lipschitz_sides,
    _marginal_result,
    _partition_divergences,
    _phis,
    enumerate_partitions,
    merge_blocks,
)
from .states import (
    DensityMatrix,
    SubsystemLayout,
    _assemble_raw,
    _ginibre_stack,
    _int,
    _ints,
    _partial_trace_raw,
    _pure_stack,
    _real,
    _validate_stack,
    enumerate_bipartitions,
    substream,
)
from .witness import build_witness, expectation

DEFAULT_LAYOUTS = ((2, 2), (2, 2, 2))

DEFAULT_COUNTS = {
    "metric_axioms": 300,
    "triangle_inequality": (10000, 2000),
    "data_processing": 1000,
    "local_phi_monotonicity": 500,
    "merge_inequality": 200,
    "kblock_bipartition_equivalence": 200,
    "negative_type": 1000,
    "negative_type_ensembles": 4,
    "petz_product_exactness": 200,
    "petz_markov_chains": 50,
    "witness_algebra": 100,
    "phi_convexity": 20,
    "phi_convexity_optimized": 3,
    "phi_lipschitz": 40,
    "phi_lipschitz_optimized": 6,
    "general_channel_phi_monotonicity": 200,
    "blanket_cut_agreement": 200,
}

# the triangle count of a default layout listed in a config without triangle counts
_TRIANGLE = dict(zip(DEFAULT_LAYOUTS, DEFAULT_COUNTS["triangle_inequality"]))

DEFAULT_TOLERANCES = {
    "metric_axioms": 1e-12,
    "triangle_inequality": 1e-9,
    "data_processing": 1e-9,
    "local_phi_monotonicity": 1e-9,
    "merge_inequality": 1e-9,
    "kblock_bipartition_equivalence": 1e-9,
    "negative_type": 1e-9,
    "petz_product_exactness": 1e-9,
    "witness_algebra": 1e-12,
}


def _mapping(what: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigInvalid(f"{what} must be a JSON object, got {v!r}")
    return v


@dataclass(frozen=True)
class VerifyConfig:
    """A verify run's seed, layouts, per-check sample counts and tolerances.

    The ``triangle_inequality`` count is one per layout, or one for all. Unset,
    it is 10000 for a (2, 2) layout, 2000 for (2, 2, 2) and 2000 for any other.
    """

    seed: int = 0
    layouts: tuple[tuple[int, ...], ...] = DEFAULT_LAYOUTS
    counts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "seed", _int(self.seed, 0, ConfigInvalid, "seed"))
        if not self.layouts:
            raise ConfigInvalid("at least one layout is required")
        try:
            layouts = tuple(
                tuple(_ints(lay, ConfigInvalid, "layout dimensions")) for lay in self.layouts
            )
        except TypeError as exc:
            raise ConfigInvalid(f"malformed layouts: {exc}") from exc
        for lay in layouts:
            SubsystemLayout(lay)  # raises on bad dims and above the size cap
            if len(lay) < 2:
                raise ConfigInvalid("every layout needs at least two subsystems")
        object.__setattr__(self, "layouts", layouts)
        counts = dict(DEFAULT_COUNTS)
        counts["triangle_inequality"] = [_TRIANGLE.get(lay, 2000) for lay in layouts]
        for k, v in _mapping("counts", self.counts or {}).items():
            if k not in DEFAULT_COUNTS:
                raise ConfigInvalid(f"unknown count key {k!r}")
            counts[k] = v
        tri = counts["triangle_inequality"]
        tri = tri if isinstance(tri, (list, tuple)) else [tri] * len(layouts)
        if len(tri) != len(layouts):
            raise ConfigInvalid("triangle_inequality counts must match the layouts list")
        for k, v in counts.items():
            if k != "triangle_inequality":
                counts[k] = _int(v, 0, ConfigInvalid, f"count {k!r}")
        counts["triangle_inequality"] = tuple(
            _int(t, 0, ConfigInvalid, "triangle_inequality count") for t in tri
        )
        object.__setattr__(self, "counts", counts)
        tols = dict(DEFAULT_TOLERANCES)
        for k, v in _mapping("tolerances", self.tolerances or {}).items():
            if k not in DEFAULT_TOLERANCES:
                raise ConfigInvalid(f"unknown tolerance key {k!r}")
            tols[k] = _real(v, ConfigInvalid, f"tolerance {k!r}")
        object.__setattr__(self, "tolerances", tols)

    @classmethod
    def from_dict(cls, obj: dict) -> "VerifyConfig":
        if not isinstance(obj, dict):
            raise ConfigInvalid("config must be a JSON object")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
        # a key left out takes the field's default
        return cls(**obj)


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "assert" | "report"
    status: str  # "pass" | "fail" | "report-only"
    worst_violation: Optional[float]
    samples: int
    details: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    overall: str
    seed: int
    checks: tuple[CheckResult, ...]

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        # strict JSON: a statistic with no samples is null, never +-Infinity
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _sampled(value, samples: int) -> Optional[float]:
    """A statistic as a float, or None when no sample went into it."""
    return float(value) if samples else None


# ---------------------------------------------------------------------------
# stacked draws
#
# State idx of a check's ensemble is a Haar-random pure state when
# idx % 4 == 3 and a full-rank Ginibre state otherwise. A Generator gives the
# same normals in one block as in pieces, so a block of them, cut up in draw
# order, builds the states the per-state generators of qphi.states would
# build one by one, by the same arithmetic on stacks and without a
# DensityMatrix each.

def _pure_at(idx) -> np.ndarray:
    return np.asarray(idx) % 4 == 3


def _states_from_normals(flat: np.ndarray, dim: int, pure, start) -> np.ndarray:
    """The (k, D, D) stack of states whose standard normals begin at
    ``start`` in ``flat``, in the order the per-state draws take them: 2 D^2
    for a Ginibre state (real parts, then imaginary), 2 D for a pure one."""
    out = np.empty((pure.size, dim, dim), dtype=complex)
    if not pure.all():
        x = flat[start[~pure, None] + np.arange(2 * dim * dim)].reshape(-1, 2, dim, dim)
        out[~pure] = _ginibre_stack(x[:, 0] + 1j * x[:, 1])
    if pure.any():
        x = flat[start[pure, None] + np.arange(2 * dim)].reshape(-1, 2, dim)
        out[pure] = _pure_stack(x[:, 0] + 1j * x[:, 1])
    return out


def _chunks(count: int, per: int) -> list[np.ndarray]:
    """Sample numbers 0..count-1 in consecutive runs of at most ``per``."""
    per = max(1, per)
    return [np.arange(lo, min(lo + per, count)) for lo in range(0, count, per)]


def _samples(rng, layouts, count: int, offsets=(0,), mixed=False, kraus=None):
    """The per-sample draws of a check. Sample t lies on layout t mod
    len(layouts) and draws, in order: states t + o for o in ``offsets``
    (full-rank Ginibre throughout when ``mixed``); when ``kraus`` is
    (kmax, local), a Kraus count kc in 1..kmax; then the Ginibre matrix of
    one random channel per site (``local``) or on the whole space.

    A channel on a site of dimension s is drawn on s kc x s kc, as
    :func:`qphi.channels.random_channel` draws it, but only the s columns its
    QR reads are kept. A run holds its states twice, as normals and as
    matrices, and per site those kept columns and the channel's Kraus
    operators padded to kmax, kmax s^2 complex numbers each; runs are as long
    as ``_STACK_BYTES`` allows, and a run without Kraus draws takes all its
    normals in one block. Yields (layout, (k, len(offsets), D, D) states,
    Kraus stacks) per run and layout, in order of first sample. The Kraus
    stacks are None without ``kraus``, else as :func:`_apply_local` (a list,
    one per site) or :func:`_apply_kraus` (one stack) takes them: (k, kmax,
    s, s), whose operators from a sample's kc on are exact zeros, so each
    term they add to a channel's output is an exact zero."""
    kmax, local = kraus or (0, False)
    offsets = np.asarray(offsets)
    dims = np.array([math.prod(lay) for lay in layouts])
    sites = [lay if local else (math.prod(lay),) for lay in layouts]
    # complex numbers a run holds per sample
    width = max(
        2 * offsets.size * d * d + sum(2 * kmax * s * s for s in site)
        for d, site in zip(dims.tolist(), sites)
    )
    for ts in _chunks(count, _stack_len(1, width)):
        li = ts % len(layouts)
        pure = _pure_at(ts[:, None] + offsets) & (not mixed)
        sizes = np.where(pure, 2 * dims[li, None], 2 * dims[li, None] ** 2)
        start = np.cumsum(sizes).reshape(sizes.shape) - sizes
        kc, z = np.zeros(ts.size, dtype=int), []
        if kmax:
            flat = np.empty(int(sizes.sum()))
            for i, j in enumerate(li):
                rng.standard_normal(out=flat[start[i, 0]:start[i, 0] + sizes[i].sum()])
                kc[i] = rng.integers(1, kmax + 1)
                z.append([
                    rng.standard_normal((2, s * kc[i], s * kc[i]))[..., :s].copy()
                    for s in sites[j]
                ])
        else:
            flat = rng.standard_normal(int(sizes.sum()))
        for j in dict.fromkeys(li.tolist()):
            g = np.flatnonzero(li == j)
            dim = int(dims[j])
            states = _states_from_normals(flat, dim, pure[g].ravel(), start[g].ravel())
            ks = None
            if kmax:
                ks = [np.zeros((g.size, kmax, s, s), dtype=complex) for s in sites[j]]
                for k in dict.fromkeys(kc[g].tolist()):
                    h = np.flatnonzero(kc[g] == k)
                    for site, (s, pad) in enumerate(zip(sites[j], ks)):
                        pad[h, :k] = _random_kraus(np.stack([z[i][site] for i in g[h]]), s, s, k)
                ks = ks if local else ks[0]
            yield layouts[j], states.reshape(g.size, offsets.size, dim, dim), ks


# ---------------------------------------------------------------------------
# individual checks; each returns (worst_violation, samples, details)

def _check_metric_axioms(cfg: VerifyConfig, rng):
    count = int(cfg.counts["metric_axioms"])
    worst = -np.inf
    for lay in cfg.layouts:
        # sample i is the pair (state i, state i + 1)
        for _, ab, _ in _samples(rng, (lay,), count, (0, 1)):
            (s_a, s_b), (s_mid,) = (e.T for e in _ensemble_entropies([ab[:, 0], ab[:, 1]]))
            dab = s_mid - 0.5 * s_a - 0.5 * s_b
            dba = s_mid - 0.5 * s_b - 0.5 * s_a
            # a state is its own midpoint (a + a)/2 exactly
            daa = s_a - 0.5 * s_a - 0.5 * s_a
            worst = max(
                worst,
                np.max(np.abs(dab - dba)),
                np.max(-dab - 1e-10),       # nonnegativity slack
                np.max(dab - LN2 - 1e-10),  # upper bound slack
                np.max(np.abs(daa)),
            )
    return worst, count * len(cfg.layouts), {}


def _check_triangle(cfg: VerifyConfig, rng):
    worst = -np.inf
    for lay, count in zip(cfg.layouts, cfg.counts["triangle_inequality"]):
        # triple t is states t, t + 1, t + 2
        for _, states, _ in _samples(rng, (lay,), int(count), (0, 1, 2)):
            gram = _grams(states)
            dab, dbc, dac = (
                np.sqrt(np.maximum(gram[:, i, j], 0.0)) for i, j in ((0, 1), (1, 2), (0, 2))
            )
            worst = max(
                worst,
                np.max(dac - dab - dbc),
                np.max(dab - dac - dbc),
                np.max(dbc - dab - dac),
            )
    return worst, sum(cfg.counts["triangle_inequality"]), {}


def _check_data_processing(cfg: VerifyConfig, rng):
    count = int(cfg.counts["data_processing"])
    worst = -np.inf
    for _, states, kraus in _samples(rng, cfg.layouts, count, (0, 2), kraus=(4, False)):
        a, b = states[:, 0], states[:, 1]
        pre = _pair_divergences(a, b)
        post = _pair_divergences(
            _validate_stack(_apply_kraus(kraus, a)), _validate_stack(_apply_kraus(kraus, b))
        )
        worst = max(worst, np.max(post - pre))
    return worst, count, {}


def _check_local_mono(cfg: VerifyConfig, rng):
    count = int(cfg.counts["local_phi_monotonicity"])
    worst = -np.inf
    for lay, states, kraus in _samples(rng, cfg.layouts, count, kraus=(3, True)):
        rho = states[:, 0]
        after = _phis(_validate_stack(_apply_local(kraus, rho, lay)), lay)
        worst = max(worst, np.max(after - _phis(rho, lay)))
    return worst, count, {}


# the k-block and merge checks draw full-rank states on 3 qubits for even t, 4 for odd
_QUBITS = ((2,) * 3, (2,) * 4)


@lru_cache(maxsize=None)
def _merge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in enumerate_partitions(n) of (merge, partition) for every
    merge of two blocks of a partition of at least 3 blocks; every merge of
    a partition is itself a partition of range(n)."""
    parts = enumerate_partitions(n)
    pos = {p: k for k, p in enumerate(parts)}
    pairs = [
        (pos[merge_blocks(p, i, j)], pos[p])
        for p in parts if p.k >= 3
        for i in range(p.k) for j in range(i + 1, p.k)
    ]
    return tuple(np.array(c) for c in zip(*pairs))


def _check_merge(cfg: VerifyConfig, rng):
    count = int(cfg.counts["merge_inequality"])
    worst = -np.inf
    merges = 0
    for lay, states, _ in _samples(rng, _QUBITS, count, mixed=True):
        rho = states[:, 0]
        table = _partition_divergences(rho, lay, enumerate_partitions(len(lay)))
        merged, part = _merge_pairs(len(lay))
        worst = max(worst, np.max(table[:, merged] - table[:, part]))
        merges += len(rho) * merged.size
    return worst, count, {"merges_checked": merges}


def _check_kblock(cfg: VerifyConfig, rng):
    count = int(cfg.counts["kblock_bipartition_equivalence"])
    worst = -np.inf
    for lay, states, _ in _samples(rng, _QUBITS, count, mixed=True):
        rho = states[:, 0]
        bimin = _phis(rho, lay)
        kmin = _partition_divergences(rho, lay, enumerate_partitions(len(lay))).min(axis=1)
        worst = max(worst, np.max(np.abs(bimin - kmin)))
    return worst, count, {}


def _ensembles(cfg: VerifyConfig, rng):
    """The divergence matrix of each ensemble; ensemble e is states e..e+7 on
    layout e mod the number of layouts."""
    out = []
    for e in range(int(cfg.counts["negative_type_ensembles"])):
        lay = cfg.layouts[e % len(cfg.layouts)]
        [(_, states, _)] = _samples(rng, (lay,), 1, e + np.arange(8))
        out.append(_grams(states)[0])
    return out


def _check_negative_type(cfg: VerifyConfig, rng):
    trials = int(cfg.counts["negative_type"])
    worst = -np.inf
    min_eig = np.inf
    grams = _ensembles(cfg, rng)
    for dmat in grams:
        rep = _negative_type(dmat, trials, rng)
        worst = max(worst, rep.negative_type_max)
        min_eig = min(min_eig, rep.kernel_min_eigenvalue)
    return worst, len(grams) * trials, {"kernel_min_eigenvalue": _sampled(min_eig, len(grams))}


def _check_shifted_kernel(cfg: VerifyConfig, rng):
    # the eigenvalue only; the sampling part lives in negative_type
    grams = _ensembles(cfg, rng)
    min_eig = min((_kernel_min_eigenvalue(dmat) for dmat in grams), default=np.inf)
    return None, len(grams), {"kernel_min_eigenvalue": _sampled(min_eig, len(grams))}


def _markov_chains(rng, count: int) -> np.ndarray:
    """A (count, 8, 8) stack of diagonal 3-bit states whose bit chain is
    0 -> 1 -> 2: chain c draws, as one row of uniforms in [0.05, 0.95),
    P(x0 = 0), then P(x1 = 0 | x0) and P(x2 = 0 | x1) for each parent bit."""
    u = rng.uniform(0.05, 0.95, size=(count, 5))
    q = np.stack([u, 1 - u], axis=-1)  # the probabilities of bit values 0 and 1
    p0, t1, t2 = q[:, 0], q[:, 1:3], q[:, 3:5]  # [c, x0], then [c, parent, child]
    pr = p0[:, :, None, None] * t1[:, :, :, None] * t2[:, None, :, :]
    mats = np.zeros((count, 8, 8), dtype=complex)
    mats[:, np.arange(8), np.arange(8)] = pr.reshape(count, 8)
    return mats


def _check_petz(cfg: VerifyConfig, rng):
    count = int(cfg.counts["petz_product_exactness"])
    chains = int(cfg.counts["petz_markov_chains"])
    worst = -np.inf
    # sample t draws a cut of its layout, then the Ginibre factors of a
    # full-rank product state across it, as random_product draws them
    per = _stack_len(max(math.prod(lay) for lay in cfg.layouts)) // 2
    for ts in _chunks(count, per):
        groups: dict = {}
        for t in ts.tolist():
            lay = cfg.layouts[t % len(cfg.layouts)]
            cuts = enumerate_bipartitions(len(lay))
            c = int(rng.integers(0, len(cuts)))
            factors = []
            for side in cuts[c].as_lists():
                d = math.prod(lay[i] for i in side)
                factors.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            groups.setdefault((lay, c), []).append(factors)
        for (lay, c), group in groups.items():
            sides = enumerate_bipartitions(len(lay))[c].as_lists()
            rho = _assemble_raw([_ginibre_stack(np.stack(g)) for g in zip(*group)], sides, lay)
            marg = [_partial_trace_raw(rho, lay, side) for side in sides]
            # the blanket score of either side of the cut; zero on a product state
            worst = max(worst, np.max(_pair_divergences(rho, _assemble_raw(marg, sides, lay))))
    mats = _markov_chains(rng, chains)
    errors = np.abs(_petz_stack(mats, (2, 2, 2), [1], [2]) - mats)
    chain_worst = float(np.max(errors, initial=-np.inf))
    worst = max(worst, chain_worst)
    return worst, count + chains, {"markov_chain_worst_error": _sampled(chain_worst, chains)}


def _check_witness_algebra(cfg: VerifyConfig, rng):
    count = int(cfg.counts["witness_algebra"])
    worst = -np.inf
    for dims, states, _ in _samples(rng, cfg.layouts, count):
        lay = SubsystemLayout(dims)
        mats = states[:, 0]
        for mat, values in zip(mats, _cut_divergences(mats, lay.dims)):
            rho = DensityMatrix(lay, mat)
            res = _marginal_result(rho, values)
            w = build_witness(rho, res)
            tr = complex(np.trace(w.op))
            worst = max(worst, abs(tr.real), abs(tr.imag))
            worst = max(worst, float(np.max(np.abs(w.op - w.op.conj().T))))
            e = expectation(w, rho)
            indep = float(
                np.real(np.trace(np.asarray(res.sigma_star.mat) @ np.asarray(rho.mat)))
                - np.real(np.trace(np.asarray(rho.mat) @ np.asarray(rho.mat)))
            )
            worst = max(worst, abs(e - indep))
    return worst, count, {}


def _check_convexity(cfg: VerifyConfig, rng):
    details, total = {}, 0
    # pair t is two full-rank states on (2, 2); the marginal pairs are drawn first
    for key, mode, t_grid in (
        ("phi_convexity", "marginal", (0.1, 0.3, 0.5, 0.7, 0.9)),
        ("phi_convexity_optimized", "optimized", (0.25, 0.5, 0.75)),
    ):
        count = int(cfg.counts[key])
        worst = -np.inf
        for lay, states, _ in _samples(rng, ((2, 2),), count, (0, 1), mixed=True):
            viol = _convexity_violations(states[:, 0], states[:, 1], lay, t_grid, mode)
            worst = max(worst, np.max(viol))
        details[f"max_violation_{mode}"] = _sampled(worst, count)
        total += count
    return None, total, details


def _check_lipschitz(cfg: VerifyConfig, rng):
    details, total = {}, 0
    # pair t is states t and t + 1; the optimized pairs are full-rank states on (2, 2)
    for key, mode, layouts in (
        ("phi_lipschitz", "marginal", cfg.layouts),
        ("phi_lipschitz_optimized", "optimized", ((2, 2),)),
    ):
        count = int(cfg.counts[key])
        worst = -np.inf
        for lay, states, _ in _samples(rng, layouts, count, (0, 1), mixed=mode == "optimized"):
            lhs, rhs = _lipschitz_sides(states[:, 0], states[:, 1], lay, mode)
            worst = max(worst, np.max(lhs - rhs))
        details[f"max_violation_{mode}"] = _sampled(worst, count)
        total += count
    return None, total, details


def _check_general_channel(cfg: VerifyConfig, rng):
    count = int(cfg.counts["general_channel_phi_monotonicity"])
    worst = -np.inf
    increases = 0
    for lay, states, kraus in _samples(rng, cfg.layouts, count, kraus=(4, False)):
        rho = states[:, 0]
        before = _phis(rho, lay)
        after = _phis(_validate_stack(_apply_kraus(kraus, rho)), lay)
        increases += int(np.sum(after > before + 1e-9))
        worst = max(worst, np.max(after - before))
    return None, count, {"max_increase": _sampled(worst, count), "increase_count": increases}


def _check_blanket_agreement(cfg: VerifyConfig, rng):
    count = int(cfg.counts["blanket_cut_agreement"])
    matches = 0
    for lay, states, _ in _samples(rng, ((2, 2, 2),), count, mixed=True):
        mats = states[:, 0]
        for mat, values in zip(mats, _cut_divergences(mats, lay)):
            res = _marginal_result(DensityMatrix(lay, mat), values)
            matches += _scan(res, 1).matches_optimal_cut_side
    return None, count, {"agreement_rate": _sampled(matches / max(count, 1), count)}


_CHECKS: tuple[tuple[str, str, Callable], ...] = (
    ("metric_axioms", "assert", _check_metric_axioms),
    ("triangle_inequality", "assert", _check_triangle),
    ("data_processing", "assert", _check_data_processing),
    ("local_phi_monotonicity", "assert", _check_local_mono),
    ("merge_inequality", "assert", _check_merge),
    ("kblock_bipartition_equivalence", "assert", _check_kblock),
    ("negative_type", "assert", _check_negative_type),
    ("petz_product_exactness", "assert", _check_petz),
    ("witness_algebra", "assert", _check_witness_algebra),
    ("phi_convexity", "report", _check_convexity),
    ("phi_lipschitz", "report", _check_lipschitz),
    ("general_channel_phi_monotonicity", "report", _check_general_channel),
    ("shifted_kernel_psd", "report", _check_shifted_kernel),
    ("blanket_cut_agreement", "report", _check_blanket_agreement),
)


def run_suite(config: Optional[VerifyConfig] = None, threads: int = 1) -> VerificationReport:
    """Run every check sequentially; ``threads`` is accepted as a hint and has
    no effect on results (checks are pure and independently seeded)."""
    cfg = config or VerifyConfig()
    del threads
    results = []
    for name, kind, fn in sorted(_CHECKS, key=lambda c: c[0]):
        rng = substream(cfg.seed, f"verify-{name}")
        worst, samples, details = fn(cfg, rng)
        worst = _sampled(worst, samples) if worst is not None else None
        if kind == "assert":
            tol = cfg.tolerances[name]
            status = "pass" if worst is None or worst <= tol else "fail"
            details = dict(details, tolerance=tol)
        else:
            status = "report-only"
        results.append(
            CheckResult(
                name=name,
                kind=kind,
                status=status,
                worst_violation=worst,
                samples=int(samples),
                details=details,
            )
        )
    overall = "pass" if all(r.status != "fail" for r in results) else "fail"
    return VerificationReport(overall=overall, seed=cfg.seed, checks=tuple(results))
