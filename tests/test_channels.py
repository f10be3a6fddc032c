import numpy as np
import pytest

from qphi.channels import (
    KrausChannel,
    apply_channel,
    apply_local,
    dephasing,
    depolarizing,
    haar_unitary,
    identity_channel,
    local_dephasing,
    local_depolarizing,
    partial_trace_channel,
    random_channel,
    random_local_channel,
    tensored,
)
from qphi.errors import BadParameter, LayoutMismatch
from qphi.states import (
    bell,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
    partial_trace,
    pure_state,
    substream,
    tensor,
)


def _completeness_defect(ch):
    acc = np.zeros((ch.in_dim, ch.in_dim), dtype=complex)
    for k in ch.kraus:
        acc += k.conj().T @ k
    return np.max(np.abs(acc - np.eye(ch.in_dim)))


def test_kraus_completeness_enforced():
    with pytest.raises(BadParameter):
        KrausChannel(2, 2, (np.eye(2) * 0.5,))
    ok = identity_channel(3)
    assert _completeness_defect(ok) == 0.0


def test_haar_unitary_is_unitary():
    u = haar_unitary(6, substream(0, "u"))
    assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    # deterministic given the seed
    v = haar_unitary(6, substream(0, "u"))
    assert np.array_equal(u, v)


def test_random_channel_preserves_trace_and_positivity():
    for k, (din, dout) in enumerate([(4, 4), (4, 2), (2, 6)]):
        ch = random_channel(din, dout, 3, substream(k, "rc"))
        assert _completeness_defect(ch) < 1e-12
        rho = ginibre_mixed((din,), din, substream(k, "rc-state"))
        out = apply_channel(ch, rho, (dout,))
        assert abs(np.trace(np.asarray(out.mat)).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(np.asarray(out.mat))[0] > -1e-12
    with pytest.raises(BadParameter):
        random_channel(4, 2, 1, substream(0, "bad"))  # isometry cannot fit


def test_dephasing_kills_off_diagonals_in_its_basis():
    plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
    z_deph = dephasing(0.0, 0.0)
    out = apply_channel(z_deph, plus)
    assert np.allclose(np.asarray(out.mat), np.eye(2) / 2, atol=1e-12)
    # dephasing along x leaves |+> alone
    x_deph = dephasing(np.pi / 2, 0.0)
    out2 = apply_channel(x_deph, plus)
    assert np.allclose(np.asarray(out2.mat), np.asarray(plus.mat), atol=1e-12)


def test_depolarizing_limits():
    rho = ginibre_mixed((2,), 2, substream(1, "dep"))
    keep = apply_channel(depolarizing(0.0), rho)
    assert np.allclose(np.asarray(keep.mat), np.asarray(rho.mat), atol=1e-12)
    lose = apply_channel(depolarizing(1.0), rho)
    assert np.allclose(np.asarray(lose.mat), np.eye(2) / 2, atol=1e-12)
    # general qudit dimension
    rho3 = ginibre_mixed((3,), 3, substream(1, "dep3"))
    out = apply_channel(depolarizing(0.7, 3), rho3)
    expect = 0.3 * np.asarray(rho3.mat) + 0.7 * np.eye(3) / 3
    assert np.allclose(np.asarray(out.mat), expect, atol=1e-12)
    with pytest.raises(BadParameter):
        depolarizing(1.5)


def test_partial_trace_channel_matches_partial_trace():
    rho = ginibre_mixed((2, 3, 2), 12, substream(2, "ptc"))
    ch = partial_trace_channel(rho.layout, drop=[1])
    out = apply_channel(ch, rho, (2, 2))
    direct = partial_trace(rho, keep=[0, 2])
    assert np.allclose(np.asarray(out.mat), np.asarray(direct.mat), atol=1e-12)


def test_local_channel_factorizes_over_products():
    a = ginibre_mixed((2,), 2, substream(3, "la"))
    b = ginibre_mixed((2,), 2, substream(3, "lb"))
    lc = local_dephasing([(0.3, 1.1), (1.2, 0.4)])
    joint_out = apply_local(lc, tensor(a, b))
    separate = tensor(
        apply_channel(lc.channels[0], a),
        apply_channel(lc.channels[1], b),
    )
    assert np.allclose(np.asarray(joint_out.mat), np.asarray(separate.mat), atol=1e-12)


def test_tensored_equals_apply_local():
    rho = ginibre_mixed((2, 2), 4, substream(4, "tl"))
    lc = local_depolarizing([0.2, 0.6], dims=[2, 2])
    via_local = apply_local(lc, rho)
    via_kron = apply_channel(tensored(lc), rho, rho.layout)
    assert np.allclose(np.asarray(via_local.mat), np.asarray(via_kron.mat), atol=1e-12)


def _local_cases():
    seed = substream(6, "local-oracle")
    return {
        "depolarizing-222": (
            local_depolarizing([0.1, 0.5, 0.9], dims=[2, 2, 2]),
            ginibre_mixed((2, 2, 2), 8, seed),
        ),
        "depolarizing-23": (local_depolarizing([0.3, 0.7], dims=[2, 3]), haar_pure((2, 3), seed)),
        "dephasing-222": (
            local_dephasing([(0.3, 1.1), (1.2, 0.4), (2.0, 2.5)]),
            ginibre_mixed((2, 2, 2), 2, seed),
        ),
        "random-232": (random_local_channel((2, 3, 2), 3, seed), ginibre_mixed((2, 3, 2), 12, seed)),
        "random-2222": (random_local_channel((2,) * 4, 2, seed), haar_pure((2,) * 4, seed)),
    }


@pytest.mark.parametrize("label", sorted(_local_cases()))
def test_apply_local_matches_the_tensored_channel(label):
    lc, rho = _local_cases()[label]
    via_local = np.asarray(apply_local(lc, rho).mat)
    via_kron = np.asarray(apply_channel(tensored(lc), rho, rho.layout).mat)
    assert np.max(np.abs(via_local - via_kron)) <= 1e-13


def test_kraus_operators_must_be_finite():
    for bad in (np.nan, np.inf):
        k = np.eye(2, dtype=complex)
        k[1, 0] = bad
        with pytest.raises(BadParameter):
            KrausChannel(2, 2, (k,))


def test_random_local_channel_shapes():
    lc = random_local_channel((2, 3), 2, substream(5, "rl"))
    assert len(lc.channels) == 2
    assert lc.channels[0].in_dim == 2 and lc.channels[1].in_dim == 3
    out = apply_local(lc, ginibre_mixed((2, 3), 6, substream(5, "rl-state")))
    assert abs(np.trace(np.asarray(out.mat)).real - 1.0) < 1e-12


def test_apply_channel_dimension_checks():
    ch = identity_channel(2)
    with pytest.raises(LayoutMismatch):
        apply_channel(ch, bell())
    with pytest.raises(LayoutMismatch):
        apply_channel(identity_channel(4), bell(), (2, 3))
