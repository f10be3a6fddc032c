"""Batch verification suite: asserted inequality checks plus report-only probes.

Every check draws from its own named substream of the configured seed and runs
sequentially, so reports are byte-for-byte reproducible regardless of any
thread-count hint a caller passes along.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .blanket import blanket_scan, petz_recover
from .channels import apply_channel, apply_local, random_channel, random_local_channel
from .divergence import LN2, negative_type_check, qjsd, qjsd_gram
from .errors import ConfigInvalid
from .phi import (
    convexity_check,
    enumerate_partitions,
    lipschitz_check,
    merge_blocks,
    min_over_partitions,
    partition_divergences,
    phi,
)
from .states import (
    DensityMatrix,
    SubsystemLayout,
    enumerate_bipartitions,
    ginibre_mixed,
    haar_pure,
    product_of_marginals,
    random_product,
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

ASSERTED = tuple(sorted(DEFAULT_TOLERANCES))
REPORT_ONLY = (
    "blanket_cut_agreement",
    "general_channel_phi_monotonicity",
    "phi_convexity",
    "phi_lipschitz",
    "shifted_kernel_psd",
)


def _integer(what: str, v) -> int:
    """``v`` as an int; bools, floats and strings are rejected, not coerced."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ConfigInvalid(f"{what} must be an integer, got {v!r}")
    return int(v)


def _mapping(what: str, v) -> dict:
    if not isinstance(v, dict):
        raise ConfigInvalid(f"{what} must be a JSON object, got {v!r}")
    return v


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    layouts: tuple[tuple[int, ...], ...] = DEFAULT_LAYOUTS
    counts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        seed = _integer("seed", self.seed)
        if seed < 0:
            raise ConfigInvalid(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if not self.layouts:
            raise ConfigInvalid("at least one layout is required")
        try:
            layouts = tuple(
                tuple(_integer("layout dimension", d) for d in lay) for lay in self.layouts
            )
        except TypeError as exc:
            raise ConfigInvalid(f"malformed layouts: {exc}") from exc
        for lay in layouts:
            SubsystemLayout(lay)  # raises on bad dims
            if len(lay) < 2:
                raise ConfigInvalid("every layout needs at least two subsystems")
        object.__setattr__(self, "layouts", layouts)
        counts = dict(DEFAULT_COUNTS)
        for k, v in _mapping("counts", self.counts or {}).items():
            if k not in DEFAULT_COUNTS:
                raise ConfigInvalid(f"unknown count key {k!r}")
            counts[k] = v
        tri = counts["triangle_inequality"]
        if isinstance(tri, (list, tuple)):
            tri = tuple(_integer("triangle_inequality count", t) for t in tri)
        else:
            tri = tuple(_integer("triangle_inequality count", tri) for _ in layouts)
        if len(tri) != len(layouts):
            raise ConfigInvalid("triangle_inequality counts must match the layouts list")
        counts["triangle_inequality"] = tri
        for k, v in counts.items():
            if k == "triangle_inequality":
                if any(t < 0 for t in v):
                    raise ConfigInvalid("counts must be non-negative")
            elif _integer(f"count {k!r}", v) < 0:
                raise ConfigInvalid(f"count {k!r} must be non-negative")
        object.__setattr__(self, "counts", counts)
        tols = dict(DEFAULT_TOLERANCES)
        for k, v in _mapping("tolerances", self.tolerances or {}).items():
            if k not in DEFAULT_TOLERANCES:
                raise ConfigInvalid(f"unknown tolerance key {k!r}")
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ConfigInvalid(f"tolerance {k!r} must be a finite number, got {v!r}")
            tols[k] = float(v)
        object.__setattr__(self, "tolerances", tols)

    @classmethod
    def from_dict(cls, obj: dict) -> "VerifyConfig":
        if not isinstance(obj, dict):
            raise ConfigInvalid("config must be a JSON object")
        known = {"seed", "layouts", "counts", "tolerances"}
        extra = set(obj) - known
        if extra:
            raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
        return cls(
            seed=obj.get("seed", 0),
            layouts=obj.get("layouts", DEFAULT_LAYOUTS),
            counts=obj.get("counts", {}),
            tolerances=obj.get("tolerances", {}),
        )


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str  # "assert" | "report"
    status: str  # "pass" | "fail" | "report-only"
    worst_violation: Optional[float]
    samples: int
    details: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "worst_violation": self.worst_violation,
            "samples": self.samples,
            "details": self.details,
        }


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# individual checks; each returns (worst_violation, samples, details)

def _rand_state(layout, rng, idx: int) -> DensityMatrix:
    lay = SubsystemLayout(tuple(layout))
    if idx % 4 == 3:
        return haar_pure(lay, rng)
    return ginibre_mixed(lay, lay.dim, rng)


def _check_metric_axioms(cfg: VerifyConfig, rng):
    per = int(cfg.counts["metric_axioms"])
    worst = -np.inf
    total = 0
    for lay in cfg.layouts:
        for i in range(per):
            a = _rand_state(lay, rng, i)
            b = _rand_state(lay, rng, i + 1)
            dab = qjsd(a, b)
            dba = qjsd(b, a)
            worst = max(worst, abs(dab - dba))
            worst = max(worst, -dab - 1e-10)       # nonnegativity slack
            worst = max(worst, dab - LN2 - 1e-10)  # upper bound slack
            worst = max(worst, abs(qjsd(a, a)))
            total += 1
    return worst, total, {}


def _check_triangle(cfg: VerifyConfig, rng):
    worst = -np.inf
    total = 0
    for lay, count in zip(cfg.layouts, cfg.counts["triangle_inequality"]):
        for t in range(int(count)):
            states = [_rand_state(lay, rng, t + k) for k in range(3)]
            gram = qjsd_gram(states)
            dab = np.sqrt(max(gram[0, 1], 0.0))
            dbc = np.sqrt(max(gram[1, 2], 0.0))
            dac = np.sqrt(max(gram[0, 2], 0.0))
            worst = max(
                worst, dac - dab - dbc, dab - dac - dbc, dbc - dab - dac
            )
            total += 1
    return worst, total, {}


def _check_data_processing(cfg: VerifyConfig, rng):
    count = int(cfg.counts["data_processing"])
    worst = -np.inf
    for t in range(count):
        lay = cfg.layouts[t % len(cfg.layouts)]
        d = int(np.prod(lay))
        a = _rand_state(lay, rng, t)
        b = _rand_state(lay, rng, t + 2)
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        pre = qjsd(a, b)
        post = qjsd(apply_channel(ch, a), apply_channel(ch, b))
        worst = max(worst, post - pre)
    return worst, count, {}


def _check_local_mono(cfg: VerifyConfig, rng):
    count = int(cfg.counts["local_phi_monotonicity"])
    worst = -np.inf
    for t in range(count):
        lay = cfg.layouts[t % len(cfg.layouts)]
        rho = _rand_state(lay, rng, t)
        lc = random_local_channel(lay, int(rng.integers(1, 4)), rng)
        before = phi(rho).phi
        after = phi(apply_local(lc, rho)).phi
        worst = max(worst, after - before)
    return worst, count, {}


def _check_merge(cfg: VerifyConfig, rng):
    count = int(cfg.counts["merge_inequality"])
    worst = -np.inf
    merges = 0
    for t in range(count):
        n = 3 if t % 2 == 0 else 4
        rho = ginibre_mixed((2,) * n, 2**n, rng)
        parts = enumerate_partitions(n)
        # every merge of a partition is itself a partition of range(n)
        table = dict(zip(parts, partition_divergences(rho, parts)))
        for p in parts:
            if p.k < 3:
                continue
            for i in range(p.k):
                for j in range(i + 1, p.k):
                    worst = max(worst, table[merge_blocks(p, i, j)] - table[p])
                    merges += 1
    return worst, count, {"merges_checked": merges}


def _check_kblock(cfg: VerifyConfig, rng):
    count = int(cfg.counts["kblock_bipartition_equivalence"])
    worst = -np.inf
    for t in range(count):
        n = 3 if t % 2 == 0 else 4
        rho = ginibre_mixed((2,) * n, 2**n, rng)
        bimin = phi(rho).phi
        kmin = min_over_partitions(rho)[0]
        worst = max(worst, abs(bimin - kmin))
    return worst, count, {}


def _ensembles(cfg: VerifyConfig, rng):
    m = 8
    n_ens = int(cfg.counts["negative_type_ensembles"])
    out = []
    for e in range(n_ens):
        lay = cfg.layouts[e % len(cfg.layouts)]
        out.append([_rand_state(lay, rng, e + k) for k in range(m)])
    return out


def _check_negative_type(cfg: VerifyConfig, rng):
    trials = int(cfg.counts["negative_type"])
    worst = -np.inf
    min_eig = np.inf
    ensembles = _ensembles(cfg, rng)
    for states in ensembles:
        rep = negative_type_check(states, trials, rng)
        worst = max(worst, rep.negative_type_max)
        min_eig = min(min_eig, rep.kernel_min_eigenvalue)
    return worst, len(ensembles) * trials, {"kernel_min_eigenvalue": float(min_eig)}


def _check_shifted_kernel(cfg: VerifyConfig, rng):
    trials = 1  # eigenvalue only; the sampling part lives in negative_type
    min_eig = np.inf
    ensembles = _ensembles(cfg, rng)
    for states in ensembles:
        rep = negative_type_check(states, trials, rng)
        min_eig = min(min_eig, rep.kernel_min_eigenvalue)
    return None, len(ensembles), {"kernel_min_eigenvalue": float(min_eig)}


def _random_markov_chain(rng) -> DensityMatrix:
    p0 = rng.uniform(0.05, 0.95)
    t1 = rng.uniform(0.05, 0.95, size=2)
    t2 = rng.uniform(0.05, 0.95, size=2)
    diag = np.zeros(8)
    for x0 in (0, 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                pr = (p0 if x0 == 0 else 1 - p0)
                pr *= t1[x0] if x1 == 0 else 1 - t1[x0]
                pr *= t2[x1] if x2 == 0 else 1 - t2[x1]
                diag[(x0 << 2) | (x1 << 1) | x2] = pr
    return DensityMatrix(SubsystemLayout((2, 2, 2)), np.diag(diag).astype(complex))


def _check_petz(cfg: VerifyConfig, rng):
    count = int(cfg.counts["petz_product_exactness"])
    chains = int(cfg.counts["petz_markov_chains"])
    worst = -np.inf
    for t in range(count):
        lay = cfg.layouts[t % len(cfg.layouts)]
        n = len(lay)
        cuts = enumerate_bipartitions(n)
        cut = cuts[int(rng.integers(0, len(cuts)))]
        rho = random_product(lay, cut, rng)
        # the blanket score of either side of the cut; zero on a product state
        worst = max(worst, qjsd(rho, product_of_marginals(rho, cut)))
    chain_worst = -np.inf
    for _ in range(chains):
        mc = _random_markov_chain(rng)
        rec = petz_recover(mc, [1], [2])
        chain_worst = max(chain_worst, float(np.max(np.abs(rec.mat - mc.mat))))
    worst = max(worst, chain_worst)
    return worst, count + chains, {"markov_chain_worst_error": float(chain_worst)}


def _check_witness_algebra(cfg: VerifyConfig, rng):
    count = int(cfg.counts["witness_algebra"])
    worst = -np.inf
    for t in range(count):
        lay = cfg.layouts[t % len(cfg.layouts)]
        rho = _rand_state(lay, rng, t)
        res = phi(rho)
        w = build_witness(rho, res)
        worst = max(worst, abs(complex(np.trace(w.op)).real), abs(complex(np.trace(w.op)).imag))
        worst = max(worst, float(np.max(np.abs(w.op - w.op.conj().T))))
        e = expectation(w, rho)
        indep = float(
            np.real(np.trace(np.asarray(res.sigma_star.mat) @ np.asarray(rho.mat)))
            - np.real(np.trace(np.asarray(rho.mat) @ np.asarray(rho.mat)))
        )
        worst = max(worst, abs(e - indep))
    return worst, count, {}


def _check_convexity(cfg: VerifyConfig, rng):
    pairs = int(cfg.counts["phi_convexity"])
    pairs_opt = int(cfg.counts["phi_convexity_optimized"])
    worst_marg = -np.inf
    for _ in range(pairs):
        a = ginibre_mixed((2, 2), 4, rng)
        b = ginibre_mixed((2, 2), 4, rng)
        rep = convexity_check(a, b, t_grid=(0.1, 0.3, 0.5, 0.7, 0.9), mode="marginal")
        worst_marg = max(worst_marg, rep.max_violation)
    worst_opt = -np.inf
    for _ in range(pairs_opt):
        a = ginibre_mixed((2, 2), 4, rng)
        b = ginibre_mixed((2, 2), 4, rng)
        rep = convexity_check(a, b, t_grid=(0.25, 0.5, 0.75), mode="optimized")
        worst_opt = max(worst_opt, rep.max_violation)
    details = {
        "max_violation_marginal": float(worst_marg),
        "max_violation_optimized": float(worst_opt) if pairs_opt else None,
    }
    return None, pairs + pairs_opt, details


def _check_lipschitz(cfg: VerifyConfig, rng):
    pairs = int(cfg.counts["phi_lipschitz"])
    pairs_opt = int(cfg.counts["phi_lipschitz_optimized"])
    worst_marg = -np.inf
    for t in range(pairs):
        lay = cfg.layouts[t % len(cfg.layouts)]
        a = _rand_state(lay, rng, t)
        b = _rand_state(lay, rng, t + 1)
        worst_marg = max(worst_marg, lipschitz_check(a, b, mode="marginal").violation)
    worst_opt = -np.inf
    for _ in range(pairs_opt):
        a = ginibre_mixed((2, 2), 4, rng)
        b = ginibre_mixed((2, 2), 4, rng)
        worst_opt = max(worst_opt, lipschitz_check(a, b, mode="optimized").violation)
    details = {
        "max_violation_marginal": float(worst_marg),
        "max_violation_optimized": float(worst_opt) if pairs_opt else None,
    }
    return None, pairs + pairs_opt, details


def _check_general_channel(cfg: VerifyConfig, rng):
    count = int(cfg.counts["general_channel_phi_monotonicity"])
    worst = -np.inf
    increases = 0
    for t in range(count):
        lay = cfg.layouts[t % len(cfg.layouts)]
        d = int(np.prod(lay))
        rho = _rand_state(lay, rng, t)
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        before = phi(rho).phi
        after = phi(apply_channel(ch, rho, SubsystemLayout(tuple(lay)))).phi
        if after > before + 1e-9:
            increases += 1
        worst = max(worst, after - before)
    return None, count, {"max_increase": float(worst), "increase_count": increases}


def _check_blanket_agreement(cfg: VerifyConfig, rng):
    count = int(cfg.counts["blanket_cut_agreement"])
    matches = 0
    for _ in range(count):
        rho = ginibre_mixed((2, 2, 2), 8, rng)
        res = blanket_scan(rho, 1)
        if res.matches_optimal_cut_side:
            matches += 1
    rate = matches / count if count else 1.0
    return None, count, {"agreement_rate": float(rate)}


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
        if kind == "assert":
            tol = cfg.tolerances[name]
            status = "pass" if worst <= tol else "fail"
            details = dict(details, tolerance=tol)
        else:
            status = "report-only"
        results.append(
            CheckResult(
                name=name,
                kind=kind,
                status=status,
                worst_violation=None if worst is None else float(worst),
                samples=int(samples),
                details=details,
            )
        )
    overall = "pass" if all(r.status != "fail" for r in results) else "fail"
    return VerificationReport(overall=overall, seed=cfg.seed, checks=tuple(results))
