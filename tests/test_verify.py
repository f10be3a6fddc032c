import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qphi.blanket import blanket_scan, petz_recover
from qphi.divergence import _STACK_BYTES as STACK_BYTES, qjsd, qjsd_gram
from qphi.errors import ConfigInvalid
from qphi.channels import random_channel, random_local_channel
from qphi.states import (
    DensityMatrix,
    SubsystemLayout,
    enumerate_bipartitions,
    ginibre_mixed,
    haar_pure,
    product_of_marginals,
    random_product,
    substream,
)
from qphi.verify import DEFAULT_COUNTS, DEFAULT_LAYOUTS, VerifyConfig, run_suite

verify = importlib.import_module("qphi.verify")
divergence_module = importlib.import_module("qphi.divergence")

SMALL_COUNTS = {
    "metric_axioms": 40,
    "triangle_inequality": (400, 200),
    "data_processing": 60,
    "local_phi_monotonicity": 40,
    "merge_inequality": 20,
    "kblock_bipartition_equivalence": 20,
    "negative_type": 100,
    "negative_type_ensembles": 2,
    "petz_product_exactness": 20,
    "petz_markov_chains": 8,
    "witness_algebra": 20,
    "phi_convexity": 4,
    "phi_convexity_optimized": 1,
    "phi_lipschitz": 6,
    "phi_lipschitz_optimized": 1,
    "general_channel_phi_monotonicity": 20,
    "blanket_cut_agreement": 20,
}


@pytest.fixture(scope="module")
def small_report():
    return run_suite(VerifyConfig(seed=3, counts=SMALL_COUNTS))


def test_small_suite_passes(small_report):
    assert small_report.overall == "pass"
    assert small_report.seed == 3
    names = [c.name for c in small_report.checks]
    assert names == sorted(names)
    assert len(names) == 14
    for c in small_report.checks:
        if c.kind == "assert":
            assert c.status == "pass", f"{c.name}: worst={c.worst_violation}"
        else:
            assert c.status == "report-only"


def test_report_checks_never_gate(small_report):
    kinds = {c.name: c.kind for c in small_report.checks}
    assert kinds["general_channel_phi_monotonicity"] == "report"
    assert kinds["shifted_kernel_psd"] == "report"
    assert kinds["phi_convexity"] == "report"
    assert kinds["phi_lipschitz"] == "report"
    assert kinds["blanket_cut_agreement"] == "report"
    # general channels really do break monotonicity; the check records it
    mono = small_report.check("general_channel_phi_monotonicity")
    assert mono.details["increase_count"] >= 0
    assert mono.worst_violation is None


def test_byte_identical_across_runs_and_thread_hints(small_report):
    again = run_suite(VerifyConfig(seed=3, counts=SMALL_COUNTS), threads=8)
    assert again.to_json() == small_report.to_json()


def test_byte_identical_when_every_stack_is_split(small_report, monkeypatch):
    # 4 KiB holds four 8 x 8 matrices: every sampler run, every check's own
    # stacks and every kernel's eigensolves are split into short runs
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 4096)
    split = run_suite(VerifyConfig(seed=3, counts=SMALL_COUNTS))
    assert split.to_json() == small_report.to_json()


def test_seed_changes_the_stream(small_report):
    other = run_suite(VerifyConfig(seed=4, counts=SMALL_COUNTS))
    assert other.to_json() != small_report.to_json()
    # but every asserted check still passes
    assert other.overall == "pass"


def test_forced_failure_propagates():
    cfg = VerifyConfig(
        seed=3,
        counts=SMALL_COUNTS,
        tolerances={"triangle_inequality": -1.0},
    )
    report = run_suite(cfg)
    assert report.check("triangle_inequality").status == "fail"
    assert report.overall == "fail"
    # the other asserted checks are unaffected
    assert report.check("metric_axioms").status == "pass"


def test_json_shape(small_report):
    doc = json.loads(small_report.to_json())
    assert doc["overall"] == "pass"
    assert doc["seed"] == 3
    assert len(doc["checks"]) == 14
    for entry in doc["checks"]:
        assert set(entry) >= {"name", "kind", "status", "worst_violation", "samples"}


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        VerifyConfig(seed=-1)
    with pytest.raises(ConfigInvalid):
        VerifyConfig(counts={"metric_axioms": -1})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(counts={"no_such_check": 5})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(tolerances={"no_such_check": 1e-9})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(layouts=((2,),))
    # wrong types are refused up front rather than coerced or left to crash
    for bad in (True, 1.0, 2.7, "3", None):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(seed=bad)
    with pytest.raises(ConfigInvalid):
        VerifyConfig(counts={"metric_axioms": "x"})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(counts={"triangle_inequality": "ab"})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(tolerances={"metric_axioms": "x"})
    # json.load reads a bare NaN; a non-finite tolerance would fail every comparison
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(tolerances={"metric_axioms": bad})
    with pytest.raises(ConfigInvalid):
        VerifyConfig(layouts=5)
    with pytest.raises(ConfigInvalid):
        VerifyConfig(layouts=((2, 2.7), (2, 2, 2)))


def test_from_dict_round_trip_and_unknown_keys():
    cfg = VerifyConfig.from_dict(
        {"seed": 7, "counts": {"metric_axioms": 10}, "tolerances": {}}
    )
    assert cfg.seed == 7
    assert cfg.counts["metric_axioms"] == 10
    # unspecified counts keep their defaults
    assert cfg.counts["data_processing"] == DEFAULT_COUNTS["data_processing"]
    with pytest.raises(ConfigInvalid):
        VerifyConfig.from_dict({"seed": 1, "bogus": True})
    for bad in (
        {"seed": "abc"},
        {"seed": True},
        {"seed": 2.5},
        {"counts": {"metric_axioms": "x"}},
        {"counts": {"triangle_inequality": "ab"}},
        {"counts": 5},
        {"tolerances": {"metric_axioms": "x"}},
        {"layouts": 5},
    ):
        with pytest.raises(ConfigInvalid):
            VerifyConfig.from_dict(bad)
    # JSON lists are accepted wherever tuples are
    cfg = VerifyConfig.from_dict(
        {"layouts": [[2, 2], [2, 3]], "counts": {"triangle_inequality": [3, 4]}}
    )
    assert cfg.layouts == ((2, 2), (2, 3))
    assert cfg.counts["triangle_inequality"] == (3, 4)


def test_unset_triangle_counts_follow_each_layout():
    # a layouts list of other than the two defaults once stopped on the
    # triangle key it never set, and two custom layouts took the default
    # counts by position
    assert VerifyConfig(layouts=[[2, 2]]).counts["triangle_inequality"] == (10000,)
    cfg = VerifyConfig.from_dict({"seed": 1, "layouts": [[2, 2]]})
    assert (cfg.seed, cfg.layouts, cfg.counts["triangle_inequality"]) == (1, ((2, 2),), (10000,))
    cfg = VerifyConfig(layouts=[[2, 2, 2], [2, 2]])
    assert cfg.counts["triangle_inequality"] == (2000, 10000)
    cfg = VerifyConfig(layouts=[[2, 3], [2, 2], [3, 2, 2]])
    assert cfg.counts["triangle_inequality"] == (2000, 10000, 2000)
    assert VerifyConfig().counts["triangle_inequality"] == DEFAULT_COUNTS["triangle_inequality"]
    # the error that is there is the one reported
    with pytest.raises(ConfigInvalid, match="tolerance"):
        VerifyConfig(layouts=[[2, 2]], tolerances={"metric_axioms": float("nan")})
    with pytest.raises(ConfigInvalid, match="triangle_inequality counts must match"):
        VerifyConfig(layouts=[[2, 2]], counts={"triangle_inequality": [5, 6]})


# run_suite(VerifyConfig(seed=3, counts=SMALL_COUNTS)).to_dict() from the
# per-state verify code, before checks drew and scored their states in stacks
PINNED = Path(__file__).with_name("verify_seed3_small.json")
INTEGER_DETAILS = ("merges_checked", "increase_count")


def test_report_agrees_with_the_pinned_per_state_report(small_report):
    want = json.loads(PINNED.read_text())
    got = small_report.to_dict()
    assert (got["overall"], got["seed"]) == (want["overall"], want["seed"])
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        assert (g["kind"], g["status"], g["samples"]) == (w["kind"], w["status"], w["samples"])
        assert sorted(g["details"]) == sorted(w["details"]), g["name"]
        pairs = [("worst_violation", g["worst_violation"], w["worst_violation"])]
        pairs += [(k, g["details"][k], w["details"][k]) for k in sorted(w["details"])]
        for key, a, b in pairs:
            if key in INTEGER_DETAILS or b is None:
                assert a == b, (g["name"], key)
            else:
                assert abs(a - b) <= 1e-12, (g["name"], key, a, b)


ZERO_COUNTS = {k: ((0, 0) if k == "triangle_inequality" else 0) for k in DEFAULT_COUNTS}


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_zero_counts_give_strict_json_with_nulls():
    report = run_suite(VerifyConfig(counts=ZERO_COUNTS))
    assert report.overall == "pass"
    doc = _strict_json(report.to_json())
    for entry in doc["checks"]:
        assert entry["samples"] == 0, entry["name"]
        assert entry["worst_violation"] is None, entry["name"]
    checks = {c["name"]: c["details"] for c in doc["checks"]}
    assert checks["general_channel_phi_monotonicity"]["max_increase"] is None
    assert checks["phi_convexity"]["max_violation_marginal"] is None
    assert checks["phi_lipschitz"]["max_violation_marginal"] is None
    assert checks["petz_product_exactness"]["markov_chain_worst_error"] is None
    assert checks["negative_type"]["kernel_min_eigenvalue"] is None
    assert checks["shifted_kernel_psd"]["kernel_min_eigenvalue"] is None
    assert checks["blanket_cut_agreement"]["agreement_rate"] is None


@pytest.mark.parametrize("key", ["petz_markov_chains", "negative_type_ensembles"])
def test_a_single_zero_count_gives_strict_json(key):
    counts = dict(SMALL_COUNTS, **{key: 0})
    report = run_suite(VerifyConfig(seed=3, counts=counts))
    assert report.overall == "pass"
    _strict_json(report.to_json())


def test_default_json_layout_is_unchanged(small_report):
    assert small_report.to_json() == json.dumps(small_report.to_dict(), indent=2, sort_keys=True)


def _sample_width(layouts, offsets, kraus):
    """Complex numbers a run of the sampler holds per sample: its states
    twice (normals and matrices), and per site of dimension s (or the whole
    space) the s kc x s columns of normals its channel's QR reads, at most
    kmax s^2, and its Kraus operators padded to kmax, kmax s^2."""
    kmax, local = kraus or (0, False)
    return max(
        2 * len(offsets) * math.prod(lay) ** 2
        + sum(2 * kmax * d * d for d in (lay if local else (math.prod(lay),)))
        for lay in layouts
    )


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2)])
@pytest.mark.parametrize("first", [0, 1, 2, 3])
def test_stacked_draws_match_per_state_generators(dims, first, monkeypatch):
    # the sampler: sample t on layout t mod 2 draws states t + o, then any
    # Kraus count and channel; the per-state reference is a Haar-pure state
    # where idx % 4 == 3 (unless mixed), a Ginibre one elsewhere. Offsets
    # (0, first) over 9 samples cover every idx % 4 pattern. The cap is set
    # for runs of 4, grouped by layout.
    layouts, count, per, offsets = (dims, (2, 2)), 9, 4, (0, first)
    for mixed, kraus in ((False, None), (True, None), (False, (4, False)), (False, (3, True))):
        width = _sample_width(layouts, offsets, kraus)
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", 16 * width * per)
        rng = substream(2, "draws")
        want = []
        for t in range(count):
            lay = SubsystemLayout(layouts[t % 2])
            pure = [not mixed and (t + o) % 4 == 3 for o in offsets]
            states = [haar_pure(lay, rng) if p else ginibre_mixed(lay, lay.dim, rng) for p in pure]
            kc, channels = 0, []
            if kraus:
                kc = int(rng.integers(1, kraus[0] + 1))
                channels = (
                    random_local_channel(lay, kc, rng).channels if kraus[1]
                    else [random_channel(lay.dim, lay.dim, kc, rng)]
                )
            want.append((lay.dims, [w.mat for w in states], [ch.kraus for ch in channels], kc))
        order = []
        for lo in range(0, count, per):
            run = range(lo, min(lo + per, count))
            order += sorted(run, key=lambda t: t % 2 != lo % 2)
        got = []
        sampler = substream(2, "draws")
        for lay_dims, states, ks in verify._samples(sampler, layouts, count, offsets, mixed, kraus):
            assert (ks is None) == (kraus is None)
            sites = [] if ks is None else ks if kraus[1] else [ks]
            got += [(lay_dims, list(states[j]), [k[j] for k in sites]) for j in range(len(states))]
        assert len(got) == count
        for t, (lay_dims, mats, ops) in zip(order, got):
            dims_t, states_t, kraus_t, kc = want[t]
            assert lay_dims == dims_t and len(mats) == len(states_t) and len(ops) == len(kraus_t)
            for mat, w in zip(mats, states_t):
                assert np.max(np.abs(mat - np.asarray(w))) <= 1e-15
            # a family of kc operators, padded with exact zeros to kmax
            for op, w in zip(ops, kraus_t):
                assert len(op) == kraus[0]
                assert np.max(np.abs(op[:kc] - np.asarray(w))) <= 1e-15
                assert not op[kc:].any()
        # the stream is left where the per-state draws leave it
        assert sampler.standard_normal() == rng.standard_normal()


def test_ensembles_match_per_state_generators():
    # ensemble e is states e..e+7 on layout e mod 2, drawn ensemble by ensemble
    cfg = VerifyConfig(layouts=((2, 2), (3, 2)), counts={"negative_type_ensembles": 3})
    got = verify._ensembles(cfg, substream(4, "ens"))
    rng = substream(4, "ens")
    for e, dmat in enumerate(got):
        lay = SubsystemLayout(cfg.layouts[e % 2])
        states = [
            haar_pure(lay, rng) if i % 4 == 3 else ginibre_mixed(lay, lay.dim, rng)
            for i in range(e, e + 8)
        ]
        assert np.max(np.abs(dmat - qjsd_gram(states))) <= 1e-15
    assert len(got) == 3


def _markov_chain(rng) -> np.ndarray:
    """A diagonal 3-bit chain 0 -> 1 -> 2, drawn as one chain at a time."""
    p0 = rng.uniform(0.05, 0.95)
    t1 = rng.uniform(0.05, 0.95, size=2)
    t2 = rng.uniform(0.05, 0.95, size=2)
    diag = np.zeros(8)
    for x0 in (0, 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                pr = p0 if x0 == 0 else 1 - p0
                pr *= t1[x0] if x1 == 0 else 1 - t1[x0]
                pr *= t2[x1] if x2 == 0 else 1 - t2[x1]
                diag[(x0 << 2) | (x1 << 1) | x2] = pr
    return np.diag(diag).astype(complex)


def test_stacked_petz_check_matches_sample_by_sample():
    cfg = VerifyConfig(
        seed=6, layouts=((2, 2), (2, 3, 2)),
        counts={"petz_product_exactness": 40, "petz_markov_chains": 12},
    )
    worst, samples, details = verify._check_petz(cfg, substream(6, "petz"))
    # each sample as one DensityMatrix, recovered and scored on its own
    rng = substream(6, "petz")
    want = -np.inf
    for t in range(40):
        lay = cfg.layouts[t % 2]
        cuts = enumerate_bipartitions(len(lay))
        cut = cuts[int(rng.integers(0, len(cuts)))]
        rho = random_product(lay, cut, rng)
        want = max(want, qjsd(rho, product_of_marginals(rho, cut)))
    chain_want = -np.inf
    for _ in range(12):
        mc = DensityMatrix((2, 2, 2), _markov_chain(rng))
        chain_want = max(chain_want, float(np.max(np.abs(petz_recover(mc, [1], [2]).mat - mc.mat))))
    assert samples == 52
    assert details["markov_chain_worst_error"] == chain_want
    assert worst == max(want, chain_want)


def test_stacked_blanket_agreement_matches_blanket_scan_state_by_state(monkeypatch):
    scan, scans = verify._scan, []

    def record(res, size):
        scans.append(scan(res, size))
        return scans[-1]

    monkeypatch.setattr(verify, "_scan", record)
    count = 24
    cfg = VerifyConfig(seed=5, counts={"blanket_cut_agreement": count})
    _, samples, details = verify._check_blanket_agreement(cfg, substream(5, "blanket"))
    # the check draws a full-rank Ginibre state on (2, 2, 2) per sample
    rng = substream(5, "blanket")
    want = [blanket_scan(ginibre_mixed((2, 2, 2), 8, rng), 1) for _ in range(count)]
    assert samples == count and len(scans) == count
    for got, ref in zip(scans, want):
        assert got.matches_optimal_cut_side == ref.matches_optimal_cut_side
        assert (got.argmin, got.optimal_cut_side) == (ref.argmin, ref.optimal_cut_side)
        assert [z for z, _ in got.scores] == [z for z, _ in ref.scores]
        assert max(abs(g - r) for (_, g), (_, r) in zip(got.scores, ref.scores)) <= 1e-12
    rate = sum(r.matches_optimal_cut_side for r in want) / count
    assert details["agreement_rate"] == rate


@pytest.mark.parametrize("stack_bytes", [STACK_BYTES, 1 << 16], ids=["cap", "64KiB"])
@pytest.mark.parametrize(
    "offsets, kraus",
    [((0, 1, 2), None), ((0, 2), (4, False)), ((0,), (3, True))],
    ids=["block", "channel", "local-channels"],
)
def test_sampler_runs_cover_every_sample_and_fit_the_cap(offsets, kraus, stack_bytes, monkeypatch):
    # whole-space and local Kraus widths, and a block draw without Kraus
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
    chunks, runs = verify._chunks, []

    def record(count, per):
        runs[:] = chunks(count, per)
        return list(runs)

    monkeypatch.setattr(verify, "_chunks", record)
    width = 16 * _sample_width(DEFAULT_LAYOUTS, offsets, kraus)
    per = stack_bytes // width
    for count in sorted({0, 1, per, per + 1, 150}):
        rng = substream(0, "runs")
        groups = list(verify._samples(rng, DEFAULT_LAYOUTS, count, offsets, False, kraus))
        assert [int(t) for run in runs for t in run] == list(range(count))
        # every run but the last is as long as the cap allows
        assert all(len(run) * width <= stack_bytes < (len(run) + 1) * width for run in runs[:-1])
        # a run's groups come out together, one per layout in order of first
        # sample; its states twice, and per site the kept Kraus columns (s kc
        # x s normals per sample) and the operators padded to kmax, fit the cap
        g = 0
        for run in runs:
            left, used, lays = len(run), 0, []
            while left > 0:
                lay, states, ks = groups[g]
                g += 1
                lays.append(lay)
                left -= len(states)
                used += 2 * states.nbytes
                for k in [] if ks is None else ks if kraus[1] else [ks]:
                    kept = int(np.any(k != 0, axis=(-2, -1)).sum())
                    used += k.nbytes + 16 * kept * k.shape[-1] ** 2
            assert lays == list(dict.fromkeys(DEFAULT_LAYOUTS[t % 2] for t in run))
            assert left == 0 and used <= stack_bytes
        assert g == len(groups)
