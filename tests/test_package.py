import importlib.util
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import qphi

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "qphi").glob("*.py") if p.stem != "__init__")

# every name the package has exported, which it keeps exporting
EXPORTED = """
BadBudget BadParameter BadSize Bipartition BlanketResult BudgetExceeded ChannelFamily
CheckResult ConfigInvalid ConvexityReport Dendrogram DendrogramNode DensityMatrix
DimensionMismatch DisjointnessViolation EmptyKeepSet GramReport GridTooLarge
IndexOutOfRange InvalidCut InvalidPartition KrausChannel LN2 LayoutMismatch
LipschitzReport LocalChannel NotHermitian NotPSD NumericalBreakdown ObserverResult
PartitionKBlocks PhiResult ProductScanReport QphiError SearchBudgetExceeded
SingleSubsystem SpectrumResult SubsystemLayout SupportBreakdown TooFewStates TraceNotOne
ValidationError VerificationReport VerifyConfig Witness apply_channel apply_local
as_partition bell blanket_scan build_dendrogram build_witness channel_from_json
channel_to_json convexity_check custom_family delta dendrogram_from_json
dendrogram_to_json dephasing depolarizing divergence_for_partition enumerate_bipartitions
enumerate_partitions expectation ghz ginibre_mixed haar_pure identity_channel
lipschitz_check local_dephasing local_dephasing_family local_depolarizing
local_depolarizing_family maximally_mixed maximize_phi merge_blocks
merge_inequality_check min_over_partitions negative_type_check observer_spectrum
partial_trace partial_trace_channel partial_trace_family partition_divergences
petz_recover phi phi_comparison product_of_block_marginals product_of_marginals
product_state_scan pure_state qjsd random_channel random_local_channel random_product
read_state run_suite stability_probe state_from_json state_to_json substream tensor
to_dot to_newick validate_state von_neumann_entropy w_state write_state
""".split()


def test_every_export_resolves_once():
    names = qphi.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(qphi, n)]
    assert missing == []


def test_dir_and_star_import_cover_every_export():
    assert set(EXPORTED) <= set(qphi.__all__)
    assert set(qphi.__all__) <= set(dir(qphi))
    code = "from qphi import *; import qphi; print(all(n in globals() for n in qphi.__all__))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def _modules_loaded(args, stdin=""):
    """The modules a fresh ``python <args>`` process imports, as listed by
    the interpreter's own ``-X importtime`` report."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        input=stdin, capture_output=True, text=True, check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _modules_loaded(["-c", "import qphi"])
    assert "qphi" in loaded
    assert {m for m in loaded if m.startswith("qphi.") or m.split(".")[0] == "numpy"} == set()


def test_gen_bell_loads_only_its_own_modules():
    loaded = _modules_loaded(["-m", "qphi.cli", "gen", "bell"])
    assert {"qphi.states", "qphi.qstate_io"} <= loaded
    unneeded = {f"qphi.{m}" for m in (
        "phi", "divergence", "observer", "channels", "search", "blanket", "dendrogram",
        "witness", "verify",
    )}
    # numpy.random and hashlib count only where numpy itself leaves them
    # unloaded, as numpy 2 does
    unneeded |= {"numpy.random", "hashlib"} - _modules_loaded(["-c", "import numpy"])
    assert loaded & unneeded == set()


def test_phi_command_loads_only_its_own_modules():
    state = subprocess.run(
        [sys.executable, "-m", "qphi.cli", "gen", "bell"],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = _modules_loaded(["-m", "qphi.cli", "phi", "-"], stdin=state)
    assert "qphi.phi" in loaded
    unneeded = {f"qphi.{m}" for m in
                ("observer", "channels", "blanket", "dendrogram", "witness", "verify")}
    assert loaded & unneeded == set()


def test_python_dash_m_qphi_runs_the_cli():
    def run(module, *args):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True)

    package, cli = run("qphi", "gen", "bell"), run("qphi.cli", "gen", "bell")
    assert package.returncode == cli.returncode == 0
    assert package.stdout == cli.stdout and package.stdout
    oversized = run("qphi", "gen", "ghz", "30")
    assert oversized.returncode == 4
    assert oversized.stderr.startswith(b"budget exceeded: ")


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_phi_stays_the_function_whichever_submodule_loads_first(submodule):
    # the import system binds each submodule it loads as an attribute of the
    # package, and the package drops that binding for qphi.phi
    code = (
        f"import qphi.{submodule}, sys, qphi; "
        "print(qphi.phi is sys.modules['qphi.phi'].phi and callable(qphi.phi))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def test_import_qphi_phi_as_names_the_function():
    code = "import sys; import qphi.phi as m; print(m is sys.modules['qphi.phi'].phi)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "True"


def test_patching_phi_through_the_package_restores_the_function():
    home = importlib.import_module("qphi.phi")
    with mock.patch("qphi.phi", lambda *args, **kwargs: None) as fake:
        assert qphi.phi is fake
        assert home.phi is not fake
    assert qphi.phi is home.phi and callable(qphi.phi)
    # the package still binds other submodules
    assert qphi.divergence is importlib.import_module("qphi.divergence")


def test_import_and_search_load_no_scipy():
    # numpy is the only runtime dependency; the observer draws its own Sobol points
    code = (
        "import sys, qphi, qphi.cli; "
        "qphi.maximize_phi(qphi.bell(), qphi.local_dephasing_family((2, 2)), budget=12, restarts=2); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_the_verify_suite_only_on_use():
    code = (
        "import sys, qphi, qphi.cli; print('qphi.verify' in sys.modules); "
        "qphi.VerifyConfig; print('qphi.verify' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps functions by name; a renamed or deleted one
    # would otherwise surface only as an AttributeError in a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"qphi.{layer}.{name}"
        for layer, funcs in tracer.TRACED.items()
        for name in funcs
        if not callable(getattr(importlib.import_module(f"qphi.{layer}"), name, None))
    ]
    assert tracer.TRACED and missing == []
