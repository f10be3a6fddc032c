import importlib.util
import subprocess
import sys
from pathlib import Path

import qphi


def test_every_export_resolves_once():
    names = qphi.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(qphi, n)]
    assert missing == []


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
