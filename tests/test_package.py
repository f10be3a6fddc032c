import qphi


def test_every_export_resolves_once():
    names = qphi.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(qphi, n)]
    assert missing == []
