import json
import subprocess
import sys

import numpy as np
import pytest

from qphi.channels import random_channel
from qphi.errors import BadParameter, NotPSD, ValidationError
from qphi.qstate_io import (
    channel_from_json,
    channel_to_json,
    state_from_dict,
    state_from_json,
    state_to_dict,
    state_to_json,
)
from qphi.states import bell, ghz, ginibre_mixed, substream

BELL_PHI = 0.3803956658485781


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "qphi.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc


def test_state_json_round_trip_is_bit_exact():
    for rho in (bell(), ghz(3), ginibre_mixed((2, 3), 6, substream(0, "io"))):
        text = state_to_json(rho)
        back = state_from_json(text)
        assert back.dims == rho.dims
        assert np.array_equal(np.asarray(back.mat), np.asarray(rho.mat))
        assert state_to_json(back) == text


def test_channel_json_round_trip():
    ch = random_channel(4, 2, 3, substream(1, "io-ch"))
    back = channel_from_json(channel_to_json(ch))
    assert back.in_dim == 4 and back.out_dim == 2
    assert all(np.array_equal(a, b) for a, b in zip(ch.kraus, back.kraus))


def test_malformed_documents_are_rejected():
    with pytest.raises(BadParameter):
        state_from_json("not json at all")
    with pytest.raises(BadParameter):
        state_from_json('{"version": 99, "dims": [2], "matrix": []}')
    with pytest.raises(BadParameter):
        state_from_json('{"version": 1, "dims": [2]}')
    doc = state_to_dict(bell())
    doc["matrix"][0][0] = [7.0, 0.0]
    with pytest.raises(ValidationError):
        state_from_dict(doc)


@pytest.mark.parametrize(
    "key, value",
    [("inDim", "x"), ("inDim", 2.7), ("outDim", True), ("inDim", None), ("kraus", 5), ("kraus", "ab")],
)
def test_malformed_channel_documents_are_rejected(key, value):
    doc = json.loads(channel_to_json(random_channel(2, 2, 2, substream(1, "io-ch"))))
    doc[key] = value
    with pytest.raises(BadParameter):
        channel_from_json(json.dumps(doc))


@pytest.mark.parametrize("dims", ["ab", 5, None, [2.7, 2], [2.0, 2], [True, 2], ["2", 2], [[2], 2]])
def test_malformed_dims_are_rejected(dims):
    doc = state_to_dict(bell())
    doc["dims"] = dims
    with pytest.raises(BadParameter):
        state_from_dict(doc)


@pytest.mark.parametrize("cell", [[0.5, 0, 7], [True, False], [10**400, 0]])
def test_matrix_cells_must_be_two_numbers(cell):
    # these once loaded as 0.5 and as 1, and an integer beyond float range
    # escaped as an OverflowError
    doc = state_to_dict(bell())
    doc["matrix"][0][0] = cell
    with pytest.raises(BadParameter):
        state_from_json(json.dumps(doc))
    ch = json.loads(channel_to_json(random_channel(2, 2, 2, substream(1, "io-ch"))))
    ch["kraus"][0][0][0] = cell
    with pytest.raises(BadParameter):
        channel_from_json(json.dumps(ch))


def test_malformed_non_finite_matrix_is_rejected():
    # json.loads reads a bare NaN, and NaN passes every "x > tol" test
    doc = state_to_dict(bell())
    doc["matrix"][0][0] = [float("nan"), 0.0]
    with pytest.raises(BadParameter):
        state_from_dict(doc)
    with pytest.raises(BadParameter):
        state_from_json('{"version": 1, "dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}')


def test_reading_revalidates_psd():
    doc = {
        "version": 1,
        "dims": [2],
        "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    }
    with pytest.raises(NotPSD):
        state_from_dict(doc)


# ---------------------------------------------------------------------------
# CLI end-to-end

def test_gen_bell_pipe_phi():
    gen = run_cli(["gen", "bell"])
    assert gen.returncode == 0
    res = run_cli(["phi", "-"], stdin_text=gen.stdout)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["phi_nats"] == pytest.approx(BELL_PHI, abs=1e-9)
    assert out["cut"] == [[0], [1]]
    assert out["tie_count"] == 1


def test_phi_optimized_output_keys():
    state = run_cli(["gen", "ghz", "3"]).stdout
    res = run_cli(["phi", "-", "--mode", "optimized"], stdin_text=state)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert set(out) == {
        "mode", "units", "phi_nats", "phi_bits", "cut", "ties", "tie_count",
        "phi_marginal_nats", "refinement_spread",
    }
    assert out["mode"] == "optimized"
    assert out["refinement_spread"] is None
    assert out["phi_nats"] <= out["phi_marginal_nats"]


def test_units_flag_rescales_but_keeps_the_cut():
    state = run_cli(["gen", "ghz", "3"]).stdout
    nats = json.loads(run_cli(["phi", "-", "--per-cut"], stdin_text=state).stdout)
    bits = json.loads(
        run_cli(["phi", "-", "--per-cut", "--units", "bits"], stdin_text=state).stdout
    )
    assert nats["cut"] == bits["cut"]
    assert nats["ties"] == bits["ties"]
    for a, b in zip(nats["per_cut"], bits["per_cut"]):
        assert a["cut"] == b["cut"]
        assert b["divergence"] == pytest.approx(a["divergence"] / np.log(2), abs=1e-12)
    assert bits["phi_bits"] == pytest.approx(nats["phi_nats"] / np.log(2), abs=1e-12)


def test_phi_sigma_output_is_valid_qstate(tmp_path):
    state = run_cli(["gen", "bell"]).stdout
    sigma_path = tmp_path / "sigma.json"
    res = run_cli(["phi", "-", "--sigma", str(sigma_path)], stdin_text=state)
    assert res.returncode == 0
    sigma = state_from_json(sigma_path.read_text())
    assert np.allclose(np.asarray(sigma.mat), np.eye(4) / 4, atol=1e-9)
    # and it pipes straight back into phi
    res2 = run_cli(["phi", str(sigma_path)])
    assert res2.returncode == 0
    assert abs(json.loads(res2.stdout)["phi_nats"]) < 1e-10


def test_gen_product_respects_cut():
    out = run_cli(["gen", "product", "--dims", "2,2,2", "--cut", "0,2", "--seed", "5"])
    assert out.returncode == 0
    res = json.loads(run_cli(["phi", "-"], stdin_text=out.stdout).stdout)
    assert abs(res["phi_nats"]) < 1e-10
    assert [[0, 2], [1]] in res["ties"]


def test_dendrogram_newick_output():
    state = run_cli(["gen", "ghz", "3"]).stdout
    res = run_cli(["dendrogram", "-", "--format", "newick"], stdin_text=state)
    assert res.returncode == 0
    assert res.stdout.strip() == "(0,(1,2)[&phi=0.215762])[&phi=0.380396];"


def test_blanket_command():
    state = run_cli(["gen", "ghz", "3"]).stdout
    res = run_cli(["blanket", "-", "--size", "1"], stdin_text=state)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["argmin"] == [0]
    assert len(out["scores"]) == 3


def test_exit_code_validation():
    res = run_cli(["phi", "-"], stdin_text='{"version":1,"dims":[2],"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}')
    assert res.returncode == 2
    assert "subsystem" in res.stderr
    res2 = run_cli(["phi", "-"], stdin_text="garbage")
    assert res2.returncode == 2


def test_malformed_state_documents_exit_2():
    for doc in (
        '{"version":1,"dims":[2,2],"matrix":[[[NaN,0],[0,0],[0,0],[0,0]],'
        '[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[0,0]],[[0,0],[0,0],[0,0],[1,0]]]}',
        '{"version":1,"dims":"ab","matrix":[[[1,0]]]}',
        '{"version":1,"dims":5,"matrix":[[[1,0]]]}',
        '{"version":1,"dims":[2.7,2],"matrix":[[[1,0]]]}',
    ):
        res = run_cli(["phi", "-"], stdin_text=doc)
        assert res.returncode == 2, doc
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:")


@pytest.mark.parametrize("fixed", ["9=0.5", "-1=0.5"])
def test_observe_fixed_parameter_out_of_range_exits_2(fixed):
    state = run_cli(["gen", "bell"]).stdout
    res = run_cli(
        ["observe", "-", "--family", "dephasing", "--grid", "0:3", f"--fixed={fixed}"],
        stdin_text=state,
    )
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize(
    "grid",
    [
        ["--grid", "0:3,0:2"],  # one parameter twice
        ["--grid", "0:3", "--fixed", "0=0.5"],  # a pinned axis
        ["--grid", "0:3", "--fixed", "1=nan"],
    ],
)
def test_observe_grid_of_repeated_pinned_or_non_finite_parameters_exits_2(grid):
    res = run_cli(["observe", "-", "--family", "dephasing", *grid], stdin_text=state_to_json(bell()))
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "haar", "--dims", "2,x"],
        ["gen", "haar", "--dims", ","],
        ["gen", "product", "--dims", "2,2", "--cut", ","],
        ["observe", "-", "--family", "dephasing", "--grid", "3"],
        ["observe", "-", "--family", "dephasing", "--grid", "0:3:4"],
        ["observe", "-", "--family", "dephasing", "--grid", "0:3", "--fixed", "1"],
        ["observe", "-", "--family", "dephasing", "--grid", "0:3", "--fixed", "1=x"],
    ],
)
def test_malformed_comma_lists_exit_2(args):
    res = run_cli(args, stdin_text=state_to_json(bell()))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error:")


def test_observe_fixed_without_grid_exits_2():
    # the search cannot pin a parameter, so --fixed must not be dropped silently
    state = run_cli(["gen", "bell"]).stdout
    res = run_cli(
        ["observe", "-", "--family", "dephasing", "--fixed", "0=3.0", "--budget", "20", "--restarts", "1"],
        stdin_text=state,
    )
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("error:")


def test_phi_probe_starts_reports_a_refinement_spread():
    state = run_cli(["gen", "ginibre", "--dims", "2,2", "--seed", "3"]).stdout
    res = run_cli(["phi", "-", "--mode", "optimized", "--probe-starts", "2"], stdin_text=state)
    assert res.returncode == 0, res.stderr
    spread = json.loads(res.stdout)["refinement_spread"]
    assert isinstance(spread, float) and np.isfinite(spread) and spread >= 0.0
    for args in (["--mode", "optimized", "--probe-starts", "-1"], ["--probe-starts", "1"]):
        bad = run_cli(["phi", "-", *args], stdin_text=state)
        assert bad.returncode == 2, args
        assert bad.stderr.startswith("error:")


def test_malformed_verify_config_exits_2(tmp_path):
    # the config is refused before any check runs, so each case is fast
    for doc, extra in (
        ('{"seed": "abc"}', []),
        ('{"layouts": 5}', []),
        ("[1]", ["--seed", "1"]),
        ('{"tolerances": {"metric_axioms": NaN}}', []),
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        res = run_cli(["verify", "--config", str(cfg), *extra])
        assert res.returncode == 2, doc
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:")


def test_exit_code_budget():
    state = run_cli(["gen", "ghz", "3"]).stdout
    res = run_cli(["phi", "-", "--n-cap", "2"], stdin_text=state)
    assert res.returncode == 4
    res2 = run_cli(
        ["observe", "-", "--family", "dephasing", "--grid", "0:300,1:300"],
        stdin_text=run_cli(["gen", "bell"]).stdout,
    )
    assert res2.returncode == 4


def test_exit_code_numerical_breakdown(monkeypatch):
    import qphi.cli as cli
    from qphi.errors import NumericalBreakdown

    def boom(*a, **k):
        raise NumericalBreakdown("synthetic")

    monkeypatch.setattr(cli, "phi", boom)
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(state_to_json(bell()))
        path = fh.name
    try:
        assert cli.main(["phi", path]) == 3
    finally:
        os.unlink(path)


def test_observe_command_runs():
    state = run_cli(["gen", "bell"]).stdout
    res = run_cli(
        ["observe", "-", "--family", "depolarizing", "--budget", "80", "--restarts", "2"],
        stdin_text=state,
    )
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["best_params"] == [0.0, 0.0]
    assert out["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_witness_command_reports_gap():
    state = run_cli(["gen", "bell"]).stdout
    res = run_cli(["witness", "-", "--samples", "16", "--seed", "2"], stdin_text=state)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["comparison"]["expectation_on_state"] == pytest.approx(-0.75, abs=1e-9)
    assert out["comparison"]["minus_phi"] == pytest.approx(-BELL_PHI, abs=1e-9)
    assert sorted(out["eigenvalues"]) == pytest.approx([-0.75, 0.25, 0.25, 0.25], abs=1e-9)
    # the scan's argmin state is itself a QSTATE document
    argmin = state_from_dict(out["scan"]["argmin_state"])
    assert argmin.dims == (2, 2)
