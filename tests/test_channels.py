import importlib

import numpy as np
import pytest

from qphi.channels import (
    KrausChannel,
    LocalChannel,
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
)
from qphi.errors import BadParameter, IndexOutOfRange, LayoutMismatch, NotPSD, TraceNotOne
from qphi.states import _validate_stack as validate_stack
from qphi.states import (
    bell,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
    partial_trace,
    pure_state,
    substream,
    tensor,
    validate_state,
)

channels_module = importlib.import_module("qphi.channels")


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
    for dims, drop in (((2, 3, 2), [1]), ((2, 2, 2, 2), [0, 2]), ((3, 2, 4), [1]), ((3, 2, 4), [0, 2])):
        rho = ginibre_mixed(dims, int(np.prod(dims)), substream(2, "ptc"))
        keep = [i for i in range(len(dims)) if i not in drop]
        ch = partial_trace_channel(rho.layout, drop=drop)
        assert len(ch.kraus) == int(np.prod([dims[i] for i in drop]))
        for k in ch.kraus:
            # a row selection of the identity: 0/1 entries, exactly one 1 per row
            assert np.all((k == 0) | (k == 1))
            assert np.array_equal(np.count_nonzero(k, axis=1), np.ones(k.shape[0]))
        out = apply_channel(ch, rho, tuple(dims[i] for i in keep))
        direct = partial_trace(rho, keep=keep)
        assert np.allclose(np.asarray(out.mat), np.asarray(direct.mat), atol=1e-12), (dims, drop)


def test_partial_trace_channel_drop_indices_must_be_integers():
    with pytest.raises(IndexOutOfRange, match="integer"):
        partial_trace_channel((2, 2, 2), drop=[1.5])
    ch = partial_trace_channel((2, 2, 2), drop=[np.int64(1)])
    assert ch.out_dim == 4


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


def tensored(lc: LocalChannel) -> KrausChannel:
    """The Kronecker oracle of :func:`apply_local`: a local channel collapsed
    into one monolithic Kraus family (small n only)."""
    ops = [np.eye(1, dtype=complex)]
    for ch in lc.channels:
        ops = [np.kron(a, k) for a in ops for k in ch.kraus]
    din = int(np.prod(lc.in_dims))
    dout = int(np.prod(lc.out_dims))
    return KrausChannel(din, dout, tuple(ops))


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: KrausChannel(2, 2, None),
        lambda: KrausChannel(2, 2, 5),
        lambda: KrausChannel(2, 2, "ab"),
        lambda: local_depolarizing(0.5, [2]),
        lambda: local_depolarizing([0.5], 2),
        lambda: local_dephasing(0.5),
        lambda: LocalChannel(5),
    ],
    ids=["kraus-none", "kraus-int", "kraus-str", "strengths", "dims", "angles", "sites"],
)
def test_constructors_refuse_a_list_argument_that_is_not_a_list(build):
    with pytest.raises(BadParameter, match="must be a list"):
        build()


def test_local_channel_refuses_an_entry_that_is_not_a_channel():
    # refused when built, not when apply_local first reads the entry's dims
    with pytest.raises(BadParameter, match="must be KrausChannels"):
        LocalChannel((5, "x"))
    with pytest.raises(BadParameter, match="must be KrausChannels"):
        LocalChannel((depolarizing(0.5, 2), np.eye(2)))


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


def _old_weyl_ops(d):
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(omega ** np.arange(d))
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d) for b in range(d)]


@pytest.mark.parametrize("d", [2, 3])
def test_depolarizing_kraus_from_cached_weyl_operators(d):
    ops = channels_module._weyl_ops(d)
    assert ops is channels_module._weyl_ops(d)
    assert all(not op.flags.writeable for op in ops)
    for p in (0.0, 0.3, 1.0):
        want = [np.sqrt(1.0 - p + p / d**2) * np.eye(d, dtype=complex)]
        if p > 0.0:
            want += [np.sqrt(p) / d * op for op in _old_weyl_ops(d)[1:]]
        got = depolarizing(p, d).kraus
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _stack_cases():
    seed = substream(8, "stacked-channels")
    out = {}
    for dims in ((2, 2), (2, 3), (2, 2, 2)):
        dim = int(np.prod(dims))
        out[dims] = [
            ginibre_mixed(dims, dim, seed),
            haar_pure(dims, seed),
            ginibre_mixed(dims, 2, seed),
            ginibre_mixed(dims, dim, seed),
        ]
    return out


@pytest.mark.parametrize("kraus_count", [1, 3])
def test_stacked_channels_match_per_state_application(kraus_count):
    seed = substream(9, "stacked-channels")
    for dims, states in _stack_cases().items():
        dim = int(np.prod(dims))
        mats = np.stack([np.asarray(r.mat) for r in states])
        # one channel per state, as the verify checks draw them
        whole = [random_channel(dim, dim, kraus_count, seed) for _ in states]
        local = [random_local_channel(dims, kraus_count, seed) for _ in states]
        got = channels_module._apply_kraus(np.stack([np.asarray(c.kraus) for c in whole]), mats)
        got = validate_stack(got)
        for rho, ch, mat in zip(states, whole, got):
            assert np.max(np.abs(mat - np.asarray(apply_channel(ch, rho).mat))) <= 1e-13
        kraus = [
            np.stack([np.asarray(lc.channels[k].kraus) for lc in local]) for k in range(len(dims))
        ]
        got = validate_stack(channels_module._apply_local(kraus, mats, dims))
        for rho, lc, mat in zip(states, local, got):
            assert np.max(np.abs(mat - np.asarray(apply_local(lc, rho).mat))) <= 1e-13


def test_stacked_random_kraus_matches_random_channel():
    # in_dim < out_dim, in_dim > out_dim, one Kraus operator, a square
    # isometry, and a draw of 128 x 128, where LAPACK's QR goes blocked
    shapes = [(3, 2, 3), (2, 3, 1), (4, 2, 2), (3, 3, 1), (4, 4, 4), (8, 8, 16)]
    for in_dim, out_dim, kraus_count in shapes:
        big = out_dim * kraus_count
        x = substream(10, "kraus").standard_normal((3, 2, big, big))
        got = channels_module._random_kraus(x, in_dim, out_dim, kraus_count)
        # the isometry cut from the whole unitary of each draw
        full = channels_module._isometry_kraus(
            channels_module._haar_from_normals(x), in_dim, out_dim, kraus_count
        )
        if big < 128:
            assert np.array_equal(got, full)
        else:
            # the blocked QR of the whole draw orders its updates differently
            assert np.max(np.abs(got - full)) <= 1e-15
        rng = substream(10, "kraus")
        for ks in got:
            want = random_channel(in_dim, out_dim, kraus_count, rng).kraus
            assert np.array_equal(ks, np.asarray(want))


def test_stacked_validation_checks_every_state():
    good = np.stack([np.asarray(r.mat) for r in _stack_cases()[(2, 2)]])
    mild = np.diag([0.5 + 1e-10, 0.5 + 1e-10, 0.0, -2e-10]).astype(complex)
    stack = np.concatenate([good, mild[None]])
    got = validate_stack(stack)
    for mat, out in zip(stack, got):
        assert np.array_equal(out, np.asarray(validate_state(mat, (2, 2)).mat))
    for bad, err in ((np.diag([1.5, -0.5, 0.0, 0.0]), NotPSD), (2 * good[0], TraceNotOne)):
        with pytest.raises(err):
            validate_stack(np.concatenate([good, bad[None].astype(complex)]))
    with pytest.raises(BadParameter):
        validate_stack(np.concatenate([good, np.full((1, 4, 4), np.nan)]))
