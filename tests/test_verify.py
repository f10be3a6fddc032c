import json

import pytest

from qphi.errors import ConfigInvalid
from qphi.verify import DEFAULT_COUNTS, VerifyConfig, run_suite

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
