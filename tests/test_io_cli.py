import contextlib
import io
import json
import numbers
import os
import subprocess
import sys
import tracemalloc
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

import qphi.cli as cli
import qphi.qstate_io as qstate_io
from qphi.channels import KrausChannel, random_channel
from qphi.dendrogram import build_dendrogram, to_dot, to_json
from qphi.errors import BadParameter, DimensionMismatch, NotPSD, ValidationError
from qphi.phi import phi
from qphi.qstate_io import (
    _decode_matrix,
    _encode_matrix,
    channel_from_json,
    channel_to_json,
    read_state,
    state_from_json,
    state_to_dict,
    state_to_json,
    write_state,
)
from qphi.states import (
    SubsystemLayout,
    bell,
    ghz,
    ginibre_mixed,
    haar_pure,
    substream,
    validate_state,
)
from qphi.verify import DEFAULT_COUNTS
from qphi.witness import build_witness

BELL_PHI = 0.3803956658485781


def run_cli(args, stdin_text=None):
    """``python -m qphi.cli *args`` run in this process by :func:`cli.main`,
    stdin the UTF-8 bytes of ``stdin_text``: its returncode, stdout and
    stderr, the exit code of an argparse error included."""
    stdin = io.TextIOWrapper(io.BytesIO((stdin_text or "").encode()), encoding="utf-8")
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = saved
        stdin.close()
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


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
        state_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value",
    [("inDim", "x"), ("inDim", 2.7), ("outDim", True), ("inDim", None), ("kraus", 5), ("kraus", "ab")],
)
def test_malformed_channel_documents_are_rejected(key, value):
    doc = json.loads(channel_to_json(random_channel(2, 2, 2, substream(1, "io-ch"))))
    doc[key] = value
    with pytest.raises(BadParameter):
        channel_from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "dims", ["ab", 5, None, [2.7, 2], [2.0, 2], [True, 2], ["2", 2], [[2], 2], {}, {"2": 2}]
)
def test_malformed_dims_are_rejected(dims):
    doc = state_to_dict(bell())
    doc["dims"] = dims
    with pytest.raises(BadParameter):
        state_from_json(json.dumps(doc))


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
        state_from_json(json.dumps(doc))
    with pytest.raises(BadParameter):
        state_from_json('{"version": 1, "dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}')


def test_reading_revalidates_psd():
    doc = {
        "version": 1,
        "dims": [2],
        "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    }
    with pytest.raises(NotPSD):
        state_from_json(json.dumps(doc))


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


def test_sigma_to_stdout_needs_an_out_file(tmp_path):
    state = state_to_json(bell())
    # sigma and the result on one stdout would be two JSON documents, which
    # the next command of a pipe refuses
    for out in ([], ["--out", "-"]):
        res = run_cli(["phi", "-", "--sigma", "-", *out], stdin_text=state)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: --sigma - needs --out FILE")
        assert res.stderr.count("\n") == 1
    out = tmp_path / "phi.json"
    res = run_cli(["phi", "-", "--sigma", "-", "--out", str(out)], stdin_text=state)
    assert res.returncode == 0, res.stderr
    assert np.allclose(state_from_json(res.stdout).mat, np.eye(4) / 4, atol=1e-9)
    assert json.loads(out.read_text())["cut"] == [[0], [1]]
    sigma = tmp_path / "sigma.json"
    res = run_cli(["phi", "-", "--sigma", str(sigma)], stdin_text=state)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["phi_nats"] > 0
    assert np.allclose(state_from_json(sigma.read_text()).mat, np.eye(4) / 4, atol=1e-9)


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


NOT_UTF8 = b'{"version": 1, "dims": [2, 2], "matrix": [[["\xff'
TOO_DEEP = b"[" * 100000 + b"]" * 100000


@pytest.mark.parametrize(
    "args, doc, encoding",
    [
        (["phi", "FILE"], NOT_UTF8, None),
        (["dendrogram", "FILE"], NOT_UTF8, None),
        (["verify", "--config", "FILE"], NOT_UTF8, None),
        # stdin is read as bytes, so its text encoding does not matter
        (["phi", "-"], NOT_UTF8, "utf-8:strict"),
        (["phi", "FILE"], TOO_DEEP, None),
        (["phi", "-"], TOO_DEEP, None),
        (["verify", "--config", "FILE"], TOO_DEEP, None),
    ],
    ids=[
        "phi-file-bytes", "dendrogram-file-bytes", "verify-config-bytes", "phi-stdin-bytes",
        "phi-file-deep", "phi-stdin-deep", "verify-config-deep",
    ],
)
def test_undecodable_or_too_deep_json_exits_2(args, doc, encoding, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(doc)
    env = dict(os.environ, **({"PYTHONIOENCODING": encoding} if encoding else {}))
    res = subprocess.run(
        [sys.executable, "-m", "qphi.cli", *(str(path) if a == "FILE" else a for a in args)],
        input=doc, capture_output=True, env=env,
    )
    assert res.returncode == 2, res.stderr
    assert res.stdout == b""
    assert b"Traceback" not in res.stderr
    assert res.stderr.startswith(b"error: invalid JSON") and res.stderr.count(b"\n") == 1


def test_read_state_refuses_text_that_does_not_decode(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(NOT_UTF8)
    with open(path, encoding="utf-8") as stream, pytest.raises(BadParameter, match="^invalid JSON"):
        read_state(stream)


def test_read_state_round_trips_a_stream():
    rho = ginibre_mixed((2, 3), 6, substream(0, "read-stream"))
    back = read_state(io.StringIO(state_to_json(rho)))
    assert back.dims == rho.dims
    assert np.array_equal(np.asarray(back.mat), np.asarray(rho.mat))


# D = 3**8 = 6561 is above the size cap, but n = 8 is not
OVERSIZED_QUDITS = '{"version": 1, "dims": [3, 3, 3, 3, 3, 3, 3, 3], "matrix": []}'


def test_oversized_verify_config_exits_4_before_any_check(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layouts": [[2] * 13]}))
    res = run_cli(["verify", "--config", str(cfg)])
    assert res.returncode == 4, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("budget exceeded: ")


def test_exit_code_budget():
    # the reader builds the layout, and so refuses the state, before it
    # decodes the matrix
    res = run_cli(["phi", "-"], stdin_text=OVERSIZED_QUDITS)
    assert res.returncode == 4
    assert res.stdout == ""
    assert res.stderr.startswith("budget exceeded: ")
    res2 = run_cli(
        ["observe", "-", "--family", "dephasing", "--grid", "0:300,1:300"],
        stdin_text=run_cli(["gen", "bell"]).stdout,
    )
    assert res2.returncode == 4


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "bell", "--seed", "-1"],
        ["gen", "haar", "--dims", "2,2", "--seed", "-1"],
        ["gen", "ginibre", "--dims", "2,2", "--seed", "-1"],
        ["observe", "-", "--family", "dephasing", "--budget", "20", "--seed", "-1"],
        ["witness", "-", "--samples", "5", "--seed", "-1"],
    ],
)
def test_negative_seeds_exit_2(args):
    res = run_cli(args, stdin_text=state_to_json(bell()))
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("error: seed must be a non-negative integer")


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "ghz", "30"],
        ["gen", "w", "30"],
        ["gen", "haar", "--dims", "1000,1000"],
        ["gen", "ginibre", "--dims", "2,2", "--rank", "1000000000000"],
    ],
)
def test_gen_refuses_oversized_states_before_allocating(args):
    # a 2**30 or 10**6 dimensional matrix, or a 4 x 10**12 Ginibre draw,
    # would take 16 GiB or more
    res = subprocess.run(
        [sys.executable, "-m", "qphi.cli", *args], capture_output=True, text=True, timeout=60
    )
    assert res.returncode == 4, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith("budget exceeded: ")


@pytest.mark.parametrize(
    "args, flag",
    [
        (["bell", "--dims", "3,3", "--rank", "2", "--cut", "0"], "--dims"),
        (["bell", "--rank", "2"], "--rank"),
        (["ghz", "3", "--dims", "5,5"], "--dims"),
        (["w", "3", "--cut", "0"], "--cut"),
        (["haar", "--rank", "5"], "--rank"),
        (["haar", "4"], "n"),
        (["ginibre", "--cut", "0"], "--cut"),
        (["product", "--rank", "2"], "--rank"),
    ],
)
def test_gen_refuses_flags_that_do_not_apply_to_the_kind(args, flag):
    res = run_cli(["gen", *args])
    assert res.returncode == 2, res.stderr
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {flag} does not apply to gen {args[0]}")
    assert len(res.stderr.splitlines()) == 1


def test_exit_code_numerical_breakdown(monkeypatch):
    import importlib

    import qphi.cli as cli
    from qphi.errors import NumericalBreakdown

    def boom(*a, **k):
        raise NumericalBreakdown("synthetic")

    # the command imports phi from its module when it runs; `import qphi.phi`
    # would name the function, which the package exports as `phi`
    monkeypatch.setattr(importlib.import_module("qphi.phi"), "phi", boom)
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
    argmin = state_from_json(json.dumps(out["scan"]["argmin_state"]))
    assert argmin.dims == (2, 2)


# ---------------------------------------------------------------------------
# streamed writer and one-call reader against the nested-list reference


def _nested(mat) -> list:
    """The nested [re, im] lists json.dumps once encoded cell by cell."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def _reference_text(rho) -> str:
    return json.dumps({"version": 1, "dims": list(rho.dims), "matrix": _nested(rho.mat)})


AWKWARD = [0.0, -0.0, 1.0, 2.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
           1.7976931348623157e308, 123456789.0, 0.1]
AWKWARD = AWKWARD + [-x for x in AWKWARD]


def _random_matrix(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-30, 30, size=(2, d, d))
    mat = rng.standard_normal((d, d)) * scale[0] + 1j * rng.standard_normal((d, d)) * scale[1]
    # the awkward floats in the first cells, as real and as imaginary parts
    flat = mat.reshape(-1)
    k = min(flat.size, len(AWKWARD))
    flat[:k] = np.array(AWKWARD[:k]) + 1j * np.array(AWKWARD[::-1][:k])
    return mat


def _state(mat, dims=None):
    """A stand-in state: the writer reads only ``dims`` and ``mat``, so this
    also reaches it with a matrix that is not C-contiguous."""
    return SimpleNamespace(dims=tuple(dims or (mat.shape[0],)), mat=mat)


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _written(rho) -> str:
    rec = _Recorder()
    write_state(rho, rec)
    return "".join(rec.writes)


@pytest.mark.parametrize("d", [1, 2, 6, 64, 512])
def test_written_bytes_equal_the_nested_list_encoding(d):
    mat = _random_matrix(d, d)
    # a transposed view is not C-contiguous; at d = 512 it adds seconds and no new case
    for m in (mat, mat.T) if d <= 64 else (mat,):
        rho = _state(m)
        want = _reference_text(rho)
        assert state_to_json(rho) == want
        assert _written(rho) == want + "\n"
    if d >= 6:
        strided = _state(mat[::2, ::3][:2, :2], dims=(2,))
        assert state_to_json(strided) == _reference_text(strided)


def test_every_awkward_float_keeps_its_repr():
    vals = np.array(AWKWARD)
    mat = np.diag(vals.astype(complex)) + 1j * np.diag(vals[::-1])
    rho = _state(mat)
    text = state_to_json(rho)
    assert text == _reference_text(rho)
    for x in ("-0.0", "5e-324", "2.2250738585072014e-308", "1e-05", "1e+16",
              "1.7976931348623157e+308", "-1.7976931348623157e+308"):
        assert x in text


def test_channel_and_witness_matrices_keep_their_bytes():
    ch = random_channel(4, 2, 3, substream(2, "io-bytes"))
    want = json.dumps({"inDim": 4, "outDim": 2, "kraus": [_nested(k) for k in ch.kraus]})
    assert channel_to_json(ch) == want
    mat = _random_matrix(6, 7)
    for m in (mat, mat.T, mat[::2, ::2], mat.real):
        assert json.dumps(_encode_matrix(m)) == json.dumps(_nested(m))
    state = run_cli(["gen", "bell"]).stdout
    res = run_cli(["witness", "-", "--samples", "4"], stdin_text=state)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    rho = state_from_json(state)
    w = build_witness(rho, phi(rho, "marginal"))
    assert json.dumps(out["matrix"]) == json.dumps(_nested(w.op))


def test_cli_state_output_equals_the_nested_list_encoding(tmp_path):
    dims = (2, 3, 2)
    rho = haar_pure(dims, substream(4, "gen-haar"))
    want = _reference_text(rho) + "\n"
    res = run_cli(["gen", "haar", "--dims", "2,3,2", "--seed", "4"])
    assert res.returncode == 0 and res.stdout == want
    path = tmp_path / "haar.json"
    assert run_cli(["gen", "haar", "--dims", "2,3,2", "--seed", "4", "--out", str(path)]).returncode == 0
    assert path.read_text() == want
    sigma = tmp_path / "sigma.json"
    assert run_cli(["phi", str(path), "--sigma", str(sigma)]).returncode == 0
    assert sigma.read_text() == _reference_text(phi(rho, "marginal").sigma_star) + "\n"


def test_write_state_streams_one_row_per_write():
    rho = ginibre_mixed((2, 2, 2, 2, 2, 2), 64, substream(0, "io-stream"))
    rec = _Recorder()
    write_state(rho, rec)
    doc = _reference_text(rho)
    header = doc[: doc.index("[[[")]
    longest_row = max(len(json.dumps(row)) for row in _nested(rho.mat)) + len(", ")
    assert len(rec.writes) >= 64
    assert max(map(len, rec.writes)) <= len(header) + longest_row
    assert "".join(rec.writes) == doc + "\n"


def _hermitian(mat) -> np.ndarray:
    """``mat`` with each lower cell replaced by the exact conjugate of its
    upper mirror, bit for bit."""
    h = np.array(mat, dtype=complex)
    lower = np.tril_indices(len(h), -1)
    h[lower] = h.T[lower].conj()
    return h


def _complex(re, im) -> np.ndarray:
    """re + i·im with the signs of zeros kept (``1j * -0.0`` is ``+0.0``)."""
    mat = np.empty(np.shape(re), dtype=complex)
    mat.real, mat.imag = re, im
    return mat


def _zero_imaginary_pairs(upper_sign: float, lower_sign: float) -> np.ndarray:
    """A real symmetric matrix whose off-diagonal imaginary parts are zeros of
    the given signs above and below the diagonal."""
    re = _random_matrix(5, 11).real
    im = np.where(np.tri(5, dtype=bool), lower_sign, upper_sign)
    return _complex(np.triu(re) + np.triu(re, 1).T, im)


def _nudged(row: int, col: int, part: str) -> np.ndarray:
    """A hermitian matrix with lower cell (row, col) one ulp off its mirror's
    conjugate, so the mirror breaks in the middle of row ``col``."""
    h = _hermitian(_random_matrix(8, 3))
    cell = h[row, col]
    if part == "re":
        h[row, col] = complex(np.nextafter(cell.real, np.inf), cell.imag)
    else:
        h[row, col] = complex(cell.real, np.nextafter(cell.imag, -np.inf))
    return h


def _zero_signs_per_cell() -> np.ndarray:
    """Zero imaginary parts with all four sign pairs, mixed within rows."""
    signs = np.random.default_rng(5).integers(0, 2, size=(5, 5)).astype(bool)
    return _complex(_zero_imaginary_pairs(0.0, 0.0).real, np.where(signs, -0.0, 0.0))


def _non_finite() -> np.ndarray:
    """Exact conjugate pairs holding NaN and infinities: json writes NaN for
    either sign, and -Infinity for a flipped infinity."""
    h = _random_matrix(4, 8)
    h[0, 1], h[0, 2], h[1, 3] = complex(1.0, np.nan), complex(np.inf, -np.inf), complex(np.nan, 2.0)
    return _hermitian(h)


HERMITIAN_CASES = {
    # the awkward floats in row 0 and their exact conjugates in column 0
    "awkward-d6": lambda: _hermitian(_random_matrix(6, 6)),
    "awkward-d23": lambda: _hermitian(_random_matrix(23, 23)),
    "awkward-d64": lambda: _hermitian(_random_matrix(64, 64)),
    "d1": lambda: _complex([[0.25]], [[-0.0]]),
    "d2": lambda: _hermitian(_random_matrix(2, 2)),
    "zeros+above+below": lambda: _zero_imaginary_pairs(0.0, 0.0),
    "zeros+above-below": lambda: _zero_imaginary_pairs(0.0, -0.0),
    "zeros-above+below": lambda: _zero_imaginary_pairs(-0.0, 0.0),
    "zeros-above-below": lambda: _zero_imaginary_pairs(-0.0, -0.0),
    "zero-signs-per-cell": _zero_signs_per_cell,
    "nudged-real": lambda: _nudged(5, 2, "re"),
    "nudged-imag": lambda: _nudged(6, 3, "im"),
    "nudged-last-row": lambda: _nudged(7, 0, "im"),
    "non-finite": _non_finite,
    "ghz3": lambda: np.asarray(ghz(3).mat),
    "ginibre": lambda: np.asarray(ginibre_mixed((2, 3), 6, substream(1, "io-mirror")).mat),
}


@pytest.mark.parametrize("case", sorted(HERMITIAN_CASES))
def test_mirrored_cells_keep_the_nested_list_bytes(case):
    mat = HERMITIAN_CASES[case]()
    # a transposed hermitian matrix is hermitian and not C-contiguous, and so
    # is every other row and column of one
    for m in (mat, mat.T, mat[::2, ::2]):
        rho = _state(m)
        want = _reference_text(rho)
        assert state_to_json(rho) == want
        assert _written(rho) == want + "\n"


@pytest.mark.parametrize("case", ["haar", "ghz", "nudged"])
def test_each_mirrored_pair_is_formatted_once(case, monkeypatch):
    mat = {"haar": lambda: np.asarray(haar_pure((2,) * 4, substream(2, "io-once")).mat),
           "ghz": lambda: np.asarray(ghz(4).mat),
           "nudged": lambda: _nudged(6, 3, "im")}[case]()
    formatted = []

    def dumps(obj):
        if obj and isinstance(obj[0], list):
            formatted.append(len(obj))
        return json.dumps(obj)

    monkeypatch.setattr(qstate_io, "json", SimpleNamespace(dumps=dumps))
    rho = _state(mat)
    assert state_to_json(rho) == _reference_text(rho)
    d = len(mat)
    # the upper triangle, and the one row whose mirror breaks formats its column
    assert sum(formatted) == d * (d + 1) // 2 + (d - 4 if case == "nudged" else 0)


def test_the_writer_holds_less_than_the_matrix():
    rho = haar_pure((2,) * 8, substream(0, "io-memory"))
    tracemalloc.start()
    try:
        write_state(rho, SimpleNamespace(write=len))  # keeps nothing it is given
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rho.mat.nbytes


def _reference_decode(rows) -> np.ndarray:
    """The cell-by-cell decoder the one-call reader replaced: the oracle for
    its exception classes and its bits."""
    try:
        arr = np.asarray([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(rows))))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"malformed matrix entries: {exc}") from exc
    if any(k is bool or not issubclass(k, numbers.Real) for k in kinds):
        raise BadParameter("matrix entries must be pairs of real numbers")
    if arr.ndim != 2:
        raise DimensionMismatch("matrix must be two-dimensional")
    return arr


def _outcome(fn, *args):
    """(exception class, None) or (None, result)."""
    try:
        return None, fn(*args)
    except ValidationError as exc:
        return type(exc), None


_Z = [0, 0]
MATRICES = [
    # ragged rows, and cells of length 1 and 3
    [[[1, 0], [0, 0]], [[0, 0]]],
    [[[1], [0]], [[0], [1]]],
    [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],
    [[[1, 0], [0]], [_Z, [1, 0]]],
    [[[1, 0], [0, 0, 0]], [_Z, [1, 0]]],
    # bools, numeric strings, null and an integer beyond float range
    [[[True, 0], _Z], [_Z, [1, 0]]],
    [[["1", 0], _Z], [_Z, [1, 0]]],
    [[[1, "0"], _Z], [_Z, [1, 0]]],
    [[[None, 0], _Z], [_Z, [1, 0]]],
    [[[10**400, 0], _Z], [_Z, [1, 0]]],
    # over-nested cells and rows, flat rows, empty and scalar matrices
    [[[[1, 0]], [_Z]], [[_Z], [[1, 0]]]],
    [[[[1, 0], [0, 0]], _Z], [_Z, [1, 0]]],
    [[[[1, 0], _Z], [_Z, [1, 0]]]],
    [[1, 0], [0, 1]],
    [1, 0],
    [], [[]], [[], []], [[[]]], [[[], []], [[], []]], 5, "ab", "", {}, [{}], [""], [[{}]], [[""]],
    {"a": 1}, [[{"a": 1, "b": 2}]], [["ab"]],
    # valid: exact integers, -0.0, large and subnormal values
    [[[1, 0], _Z], [_Z, [0, 0]]],
    [[[0.5, -0.0], [-0.0, 0.5]], [[-0.0, -0.5], [0.5, 0]]],
    [[[2**53 + 1, 2**70 + 1], [-(2**63), 5e-324]],
     [[int(1.7976931348623157e308), 0], [1.7976931348623157e308, -1e-05]]],
    [[[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]],
     [[0.0, 0.0]] * 4, [[0.0, 0.0]] * 4,
     [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]],
]


@pytest.mark.parametrize("rows", MATRICES, ids=range(len(MATRICES)))
def test_reader_matches_the_cell_by_cell_decoder(rows, tmp_path):
    want_exc, want = _outcome(_reference_decode, rows)
    got_exc, got = _outcome(_decode_matrix, rows)
    assert got_exc is want_exc
    if want is not None:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    # the whole state document, through the library and through the CLI;
    # a valid 2 x 2 matrix is one qubit, anything else is laid out as two
    dims = [2] if np.shape(want)[:1] == (2,) else [2, 2]
    doc = json.dumps({"version": 1, "dims": dims, "matrix": rows})
    want_exc, want = _outcome(lambda: validate_state(_reference_decode(rows), SubsystemLayout(tuple(dims))))
    got_exc, _ = _outcome(state_from_json, doc)
    assert got_exc is want_exc
    path = tmp_path / "state.json"
    path.write_text(doc)
    phi_exc, _ = _outcome(phi, want, "marginal") if want is not None else (want_exc, None)
    assert cli.main(["phi", str(path)]) == (0 if phi_exc is None else 2)

    # the same matrix as the Kraus operator of a channel
    ch = json.dumps({"inDim": 2, "outDim": 2, "kraus": [rows]})
    want_exc, _ = _outcome(lambda: KrausChannel(2, 2, (_reference_decode(rows),)))
    got_exc, _ = _outcome(channel_from_json, ch)
    assert got_exc is want_exc


# ---------------------------------------------------------------------------
# a reader that stops reading


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["gen", "ghz", "8"], None),
        (["observe", "-", "--family", "depolarizing", "--grid", "0:64,1:64"], "bell"),
    ],
)
def test_closed_stdout_exits_141_without_an_error(args, stdin):
    proc = subprocess.Popen(
        [sys.executable, "-m", "qphi.cli", *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        if stdin:
            proc.stdin.write(state_to_json(bell()).encode())
        proc.stdin.close()
        head = os.read(proc.stdout.fileno(), 10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert len(head) == 10
    assert err == ""


# ---------------------------------------------------------------------------
# in-process runs of cli.main, on state files


@pytest.fixture
def ghz3_path(tmp_path):
    path = tmp_path / "ghz3.json"
    assert cli.main(["gen", "ghz", "3", "--out", str(path)]) == 0
    return str(path)


def test_gen_product_without_a_cut_splits_off_subsystem_0(tmp_path, capsys):
    args = ["gen", "product", "--dims", "2,3,2", "--seed", "4"]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    assert cli.main([*args, "--cut", "0"]) == 0
    assert plain == capsys.readouterr().out
    path = tmp_path / "product.json"
    path.write_text(plain)
    assert cli.main(["phi", str(path)]) == 0
    res = json.loads(capsys.readouterr().out)
    assert abs(res["phi_nats"]) < 1e-10
    assert [[0], [1, 2]] in res["ties"]


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_dendrogram_json_and_dot_outputs(fmt, ghz3_path, capsys):
    assert cli.main(["dendrogram", ghz3_path, "--format", fmt]) == 0
    want = build_dendrogram(ghz(3))
    assert capsys.readouterr().out == (to_json if fmt == "json" else to_dot)(want) + "\n"


def test_observe_ptrace_family_search_and_grid(ghz3_path, capsys):
    args = ["observe", ghz3_path, "--family", "ptrace"]
    assert cli.main([*args, "--budget", "30", "--restarts", "3"]) == 0
    search = json.loads(capsys.readouterr().out)
    assert search["family"] == "ptrace" and search["evaluations"] <= 30
    assert cli.main([*args, "--grid", "0:9"]) == 0
    grid = json.loads(capsys.readouterr().out)
    assert len(grid["values"]) == 9
    assert grid["max_value"] == max(grid["values"])


def test_verify_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    counts = {k: ([0, 0] if k == "triangle_inequality" else 0) for k in DEFAULT_COUNTS}
    cfg.write_text(json.dumps({"seed": 1, "counts": counts}))
    for extra, seed in (([], 1), (["--seed", "5"], 5)):
        assert cli.main(["verify", "--config", str(cfg), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_missing_state_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert cli.main(["phi", missing]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "absent.json" in out.err
