import subprocess
import sys

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
