import numpy as np
import pytest

from qphi.errors import BadParameter, DimensionMismatch
from qphi.phi import phi
from qphi.states import (
    bell,
    ghz,
    ginibre_mixed,
    pure_state,
    substream,
    tensor,
)
from qphi.witness import (
    Witness,
    build_witness,
    expectation,
    phi_comparison,
    product_state_scan,
)

BELL_PHI = 0.3803956658485781


@pytest.fixture(scope="module")
def bell_witness():
    rho = bell()
    return build_witness(rho, phi(rho)), rho


def test_witness_is_traceless_and_hermitian(bell_witness):
    w, _ = bell_witness
    op = np.asarray(w.op)
    assert abs(np.trace(op)) < 1e-10
    assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_bell_witness_spectrum(bell_witness):
    w, _ = bell_witness
    eigs = np.sort(w.eigenvalues())
    assert np.allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-9)


def test_bell_witness_expectation_on_own_state(bell_witness):
    w, rho = bell_witness
    assert expectation(w, rho) == pytest.approx(-0.75, abs=1e-9)


def test_comparison_record_documents_the_gap(bell_witness):
    w, rho = bell_witness
    rec = phi_comparison(w, rho)
    assert set(rec) == {"expectation_on_state", "minus_phi", "gap"}
    assert rec["expectation_on_state"] == pytest.approx(-0.75, abs=1e-9)
    assert rec["minus_phi"] == pytest.approx(-BELL_PHI, abs=1e-9)
    # the two quantities genuinely differ; the record keeps both
    assert rec["gap"] == pytest.approx(rec["expectation_on_state"] - rec["minus_phi"], abs=1e-12)
    assert abs(rec["gap"]) > 0.1


@pytest.mark.parametrize(
    "op, error",
    [
        (np.full(4, 0.25), DimensionMismatch),
        (np.eye(2) / 2, DimensionMismatch),
        (np.eye(4, dtype=bool), BadParameter),
        ("w", BadParameter),
    ],
    ids=["vector", "2x2", "bool", "string"],
)
def test_witness_operator_must_be_a_numeric_matrix_of_the_layout(bell_witness, op, error):
    w, _ = bell_witness
    with pytest.raises(error, match="witness operator"):
        Witness(op=op, cut=w.cut, layout=w.layout, phi_at_construction=w.phi_at_construction)


def test_product_scan_finds_negative_expectations(bell_witness):
    w, _ = bell_witness
    rep = product_state_scan(w, 64, substream(0, "wit-scan"))
    assert rep.samples == 64
    # |00><00| already gives -1/4, so the sampled minimum must be at least that negative ballpark
    assert rep.min_expectation < -0.1
    assert 0.0 < rep.fraction_negative <= 1.0
    assert rep.argmin_state.dims == (2, 2)
    # deterministic under the same stream
    rep2 = product_state_scan(w, 64, substream(0, "wit-scan"))
    assert rep2.min_expectation == rep.min_expectation


def test_product_scan_sample_count_must_be_an_integer(bell_witness):
    # 2.5 would draw 2 samples and divide the negative count by 2.5
    w, _ = bell_witness
    for samples in (2.5, "4", True):
        with pytest.raises(BadParameter, match="samples"):
            product_state_scan(w, samples, 0)
    assert product_state_scan(w, np.int64(2), 0).samples == 2


def test_known_product_state_expectation(bell_witness):
    w, _ = bell_witness
    zz = tensor(
        pure_state(np.array([1.0, 0.0]), (2,)),
        pure_state(np.array([1.0, 0.0]), (2,)),
    )
    assert expectation(w, zz) == pytest.approx(-0.25, abs=1e-12)


def test_witness_on_mixed_three_qubit_state():
    rho = ginibre_mixed((2, 2, 2), 8, substream(4, "wit3"))
    res = phi(rho)
    w = build_witness(rho, res)
    assert abs(np.trace(np.asarray(w.op))) < 1e-10
    assert w.phi_at_construction == pytest.approx(res.phi, abs=1e-15)
    assert w.cut == res.optimal_cut
    # Tr[W rho] = Tr[sigma* rho] - purity
    indep = float(
        np.real(np.trace(np.asarray(res.sigma_star.mat) @ np.asarray(rho.mat)))
    ) - rho.purity()
    assert expectation(w, rho) == pytest.approx(indep, abs=1e-12)


def test_ghz_witness_scan_mostly_nonnegative_is_not_assumed():
    rho = ghz(3)
    w = build_witness(rho, phi(rho))
    rep = product_state_scan(w, 32, substream(1, "wit-ghz"))
    assert np.isfinite(rep.min_expectation)
    assert 0.0 <= rep.fraction_negative <= 1.0
