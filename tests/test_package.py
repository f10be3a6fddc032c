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


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes over a second to import; only the observer search uses it
    code = "import sys, qphi, qphi.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
