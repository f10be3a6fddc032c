import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qphi.states as states
from qphi.blanket import blanket_scan
from qphi.channels import KrausChannel, dephasing, depolarizing, local_dephasing, random_channel
from qphi.dendrogram import stability_probe
from qphi.divergence import von_neumann_entropy
from qphi.errors import (
    BadBudget,
    BadParameter,
    BadSize,
    DimensionMismatch,
    EmptyKeepSet,
    IndexOutOfRange,
    InvalidCut,
    InvalidPartition,
    NotHermitian,
    NotPSD,
    StateTooLarge,
    TraceNotOne,
)
from qphi.observer import (
    ChannelFamily,
    custom_family,
    local_dephasing_family,
    maximize_phi,
    observer_spectrum,
)
from qphi.phi import PartitionKBlocks, convexity_check, enumerate_partitions, merge_blocks
from qphi.states import (
    DEFAULT_N_CAP,
    Bipartition,
    DensityMatrix,
    SubsystemLayout,
    assemble_on_subsets,
    bell,
    enumerate_bipartitions,
    ghz,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
    partial_trace,
    product_of_block_marginals,
    product_of_marginals,
    pure_state,
    random_product,
    substream,
    tensor,
    validate_state,
    w_state,
)


def test_layout_rejects_trivial_dims():
    with pytest.raises(DimensionMismatch):
        SubsystemLayout(())
    with pytest.raises(DimensionMismatch):
        SubsystemLayout((2, 1))
    lay = SubsystemLayout((2, 3, 2))
    assert lay.n == 3 and lay.dim == 12


def test_layout_size_rule_is_2_to_the_default_n_cap():
    cap = 2**DEFAULT_N_CAP
    for dims in ((2,) * DEFAULT_N_CAP, (cap,), (2, cap // 2)):
        assert SubsystemLayout(dims).dim <= cap
    for dims in ((2,) * (DEFAULT_N_CAP + 1), (cap + 1,), (3, cap // 2)):
        with pytest.raises(StateTooLarge):
            SubsystemLayout(dims)


@pytest.mark.parametrize("make", [ghz, w_state])
def test_qubit_generators_refuse_oversized_counts_at_once(make):
    # an n-long layout tuple, let alone a 2**n vector, cannot be built here
    for n in (DEFAULT_N_CAP + 1, 10**18):
        with pytest.raises(StateTooLarge):
            make(n)


def test_density_matrix_is_read_only():
    rho = bell()
    with pytest.raises(ValueError):
        np.asarray(rho.mat)[0, 0] = 9.0


def test_validate_accepts_clean_state_unchanged():
    rho = maximally_mixed((2, 2))
    again = validate_state(rho.mat, rho.layout)
    assert np.array_equal(np.asarray(again.mat), np.asarray(rho.mat))


def test_validate_rejects_bad_inputs():
    lay = SubsystemLayout((2,))
    with pytest.raises(NotHermitian):
        validate_state(np.array([[0.5, 1.0], [0.0, 0.5]]), lay)
    with pytest.raises(TraceNotOne):
        validate_state(np.eye(2), lay)
    with pytest.raises(NotPSD):
        validate_state(np.diag([1.5, -0.5]), lay)
    with pytest.raises(DimensionMismatch):
        validate_state(np.eye(3) / 3, lay)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_rejects_non_finite_entries(bad):
    # NaN compares false against every tolerance, so it must be caught explicitly
    for i, j in ((0, 0), (0, 1)):
        mat = np.eye(2, dtype=complex) / 2
        mat[i, j] = bad
        with pytest.raises(BadParameter):
            validate_state(mat, (2,))


def test_validate_clips_mild_negativity():
    m = np.diag([0.5 + 1e-10, 0.5 + 1e-10, 0.0, -2e-10]).astype(complex)
    rho = validate_state(m, (2, 2))
    eigs = np.linalg.eigvalsh(np.asarray(rho.mat))
    assert eigs[0] >= -1e-15
    assert abs(np.trace(np.asarray(rho.mat)).real - 1.0) < 1e-12


@pytest.mark.parametrize("off", [2e-12, -2e-12, 1e-10, -9.9e-10, 9.9e-10])
def test_validate_only_renormalizes_a_psd_matrix_with_a_trace_slightly_off(off):
    # |tr - 1| above 1e-12 but within TRACE_TOL, no eigenvalue below -1e-12:
    # the hermitian part is divided by its trace, and nothing else is done
    arr = np.asarray(ginibre_mixed((2, 3), 6, substream(0, "trace-off")).mat) * (1.0 + off)
    h = (arr.conj().T + arr) / 2.0
    got = states._validate_stack(arr[None])[0]
    assert np.array_equal(got, h / np.real(np.trace(h)))
    assert abs(np.trace(got).real - 1.0) <= 1e-15


def test_bipartition_canonical_form():
    cut = Bipartition.of([1], 2)
    assert 0 in cut.mask_a
    assert cut.as_lists() == ([0], [1])
    with pytest.raises(InvalidCut):
        Bipartition(frozenset([1]), 2)
    with pytest.raises(InvalidCut):
        Bipartition.of([0, 1], 2)
    with pytest.raises(IndexOutOfRange):
        Bipartition.of([5], 2)


def test_enumerate_bipartitions_counts_and_order():
    for n in (2, 3, 4, 5):
        cuts = enumerate_bipartitions(n)
        assert len(cuts) == 2 ** (n - 1) - 1
        masks = [c.bitmask() for c in cuts]
        assert masks == sorted(masks)
        assert all(m & 1 for m in masks)
    assert enumerate_bipartitions((2, 2, 2))[0].as_lists() == ([0], [1, 2])


def test_partial_trace_on_bell_gives_maximally_mixed():
    rho = bell()
    for keep in ([0], [1]):
        red = partial_trace(rho, keep)
        assert red.dims == (2,)
        assert np.allclose(np.asarray(red.mat), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_respects_kron_order():
    a = ginibre_mixed((2,), 2, substream(7, "a"))
    b = ginibre_mixed((3,), 3, substream(7, "b"))
    joint = tensor(a, b)
    assert joint.dims == (2, 3)
    assert np.allclose(np.asarray(partial_trace(joint, [0]).mat), np.asarray(a.mat), atol=1e-12)
    assert np.allclose(np.asarray(partial_trace(joint, [1]).mat), np.asarray(b.mat), atol=1e-12)


def test_partial_trace_errors():
    rho = bell()
    with pytest.raises(EmptyKeepSet):
        partial_trace(rho, [])
    with pytest.raises(IndexOutOfRange):
        partial_trace(rho, [3])


def _index_sum_marginal(mat: np.ndarray, dims, keep) -> np.ndarray:
    """The marginal on ``keep`` by an explicit sum over the traced digits."""
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    out = np.zeros((dk, dk), dtype=complex)
    for x in np.ndindex(*dims):
        for y in np.ndindex(*dims):
            if all(x[i] == y[i] for i in rest):
                row = np.ravel_multi_index(tuple(x[i] for i in keep), [dims[i] for i in keep])
                col = np.ravel_multi_index(tuple(y[i] for i in keep), [dims[i] for i in keep])
                out[row, col] += mat[np.ravel_multi_index(x, dims), np.ravel_multi_index(y, dims)]
    return out


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2), (3, 4)])
def test_partial_trace_matches_an_explicit_index_sum(dims):
    # every keep set, non-contiguous ones such as [0, 2] included; the stack
    # form traces each of its matrices on its own, with one leading axis or
    # two, as the cut kernel's (states, cuts) stacks have
    n = len(dims)
    rhos = [ginibre_mixed(dims, math.prod(dims), substream(s, "ptrace-ref")) for s in range(2)]
    stack = np.stack([np.asarray(r.mat) for r in rhos])
    grid = np.stack([stack, stack[::-1], stack])
    for k in range(1, n + 1):
        for keep in itertools.combinations(range(n), k):
            want = [_index_sum_marginal(np.asarray(r.mat), dims, keep) for r in rhos]
            red = partial_trace(rhos[0], keep)
            assert red.dims == tuple(dims[i] for i in keep)
            np.testing.assert_allclose(np.asarray(red.mat), want[0], rtol=0, atol=1e-15)
            raw = states._partial_trace_raw(stack, dims, list(keep))
            np.testing.assert_allclose(raw, np.stack(want), rtol=0, atol=1e-15)
            raw = states._partial_trace_raw(grid, dims, list(keep))
            np.testing.assert_allclose(raw, np.stack([want, want[::-1], want]), rtol=0, atol=1e-15)


def test_partial_trace_makes_no_reordered_copy():
    # D = 256: the marginal is one contraction of the layout tensor, so its
    # peak is the small output, not a reordered copy of the 1 MB matrix
    dims = (2,) * 8
    mat = np.asarray(ginibre_mixed(dims, 4, substream(0, "ptrace-copy")).mat)
    for keep in ([7], [0, 3, 5], [1, 2, 6, 7]):
        states._partial_trace_raw(mat, dims, keep)
        tracemalloc.start()
        try:
            states._partial_trace_raw(mat, dims, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mat.nbytes / 8, keep


_DEPHASING = local_dephasing_family((2, 2))


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda: SubsystemLayout((2.7, 2)), DimensionMismatch),
        (lambda: SubsystemLayout(("3", 2)), DimensionMismatch),
        (lambda: SubsystemLayout((True, 2)), DimensionMismatch),
        (lambda: Bipartition(frozenset({0, 1.0}), 3), IndexOutOfRange),
        (lambda: Bipartition.of([0.5], 2), IndexOutOfRange),
        (lambda: partial_trace(ghz(3), [0.9]), IndexOutOfRange),
        (lambda: product_of_block_marginals(ghz(3), [[0, 1.0], [2]]), BadParameter),
        (lambda: haar_pure((2, 2), 2.7), BadParameter),
        (lambda: ginibre_mixed((2, 2), 4, "2"), BadParameter),
        (lambda: substream(True, "s"), BadParameter),
        (lambda: maximize_phi(bell(), _DEPHASING, budget=10.5), BadBudget),
        (lambda: maximize_phi(bell(), _DEPHASING, budget=20, restarts=2.5), BadParameter),
        (lambda: maximize_phi(bell(), _DEPHASING, budget=True), BadBudget),
        (lambda: observer_spectrum(bell(), _DEPHASING, axes=[(0.7, 3)]), BadParameter),
        (lambda: observer_spectrum(bell(), _DEPHASING, axes=[(0, 2.5)]), BadParameter),
        (lambda: observer_spectrum(bell(), _DEPHASING, [(0, 3)], fixed={1.7: 0.3}), BadParameter),
        (lambda: blanket_scan(ghz(3), 1.5), BadSize),
        (lambda: blanket_scan(ghz(3), True), BadSize),
        (lambda: ginibre_mixed((2, 2), 2.5, 0), BadParameter),
        (lambda: Bipartition(frozenset({0}), 2.5), InvalidCut),
        (lambda: random_channel(2, 2, 1.5, 0), BadParameter),
        (lambda: KrausChannel(2.0, 2.0, (np.eye(2),)), BadParameter),
        (lambda: depolarizing(0.1, 2.0), BadParameter),
        (lambda: depolarizing(0.5, 1), BadParameter),
        (lambda: ghz(3.0), BadParameter),
        (lambda: PartitionKBlocks((frozenset({0}), frozenset({1, 2})), 3.0), InvalidPartition),
        (lambda: enumerate_bipartitions(True), BadParameter),
        (lambda: Bipartition.of([1], 2.5), InvalidCut),
        (lambda: enumerate_partitions(2.5), BadParameter),
        (lambda: merge_blocks(PartitionKBlocks(tuple(map(frozenset, ([0], [1], [2]))), 3), 0.5, 1),
         InvalidPartition),
    ],
    ids=["layout-float", "layout-str", "layout-bool", "cut-float", "cut-of-float",
         "keep-float", "blocks-float", "seed-float", "seed-str", "seed-bool",
         "budget-float", "restarts-float", "budget-bool", "axis-index-float",
         "axis-points-float", "fixed-key-float", "blanket-size-float", "blanket-size-bool",
         "rank-float", "cut-n-float", "kraus-count-float", "kraus-dims-float",
         "depolarizing-d-float", "depolarizing-d-one", "qubits-float", "partition-n-float",
         "cuts-n-bool", "cut-of-n-float", "partitions-n-float", "merge-index-float"],
)
def test_integers_are_checked_not_truncated(call, exc):
    with pytest.raises(exc, match="integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda i: maximize_phi(bell(), _DEPHASING, budget=i(20), restarts=i(2), seed=i(0)).trace,
        lambda i: observer_spectrum(bell(), _DEPHASING, [(i(0), i(3))], fixed={i(1): 0.3}),
        lambda i: blanket_scan(ghz(3), i(1)),
        lambda i: ginibre_mixed((2, 2), i(3), i(0)).mat.tobytes(),
        lambda i: Bipartition(frozenset({i(0)}), i(3)).mask_b,
        lambda i: [k.tobytes() for k in random_channel(i(2), i(2), i(2), i(0)).kraus],
        lambda i: KrausChannel(i(2), i(2), (np.eye(2),)).kraus[0].tobytes(),
        lambda i: [k.tobytes() for k in depolarizing(0.1, i(3)).kraus],
        lambda i: ghz(i(3)).mat.tobytes(),
        lambda i: PartitionKBlocks((frozenset({i(0)}), frozenset({1, 2})), i(3)).blocks,
        lambda i: enumerate_bipartitions(i(4)),
    ],
    ids=["maximize", "spectrum", "blanket", "rank", "cut-n", "random-channel", "kraus-dims",
         "depolarizing", "qubits", "partition-n", "cuts-n"],
)
def test_numpy_integer_counts_give_the_python_integer_results(call):
    assert call(np.int64) == call(int)


def _no_channel(params):
    raise AssertionError("a refused family built a channel")


@pytest.mark.parametrize(
    "call",
    [
        lambda: custom_family([("a", 1.0)], _no_channel),
        lambda: custom_family([(0.0,)], _no_channel),
        lambda: custom_family(5, _no_channel),
        lambda: custom_family([(0, True)], _no_channel),
        lambda: custom_family([(0.0, float("inf"))], _no_channel),
        lambda: ChannelFamily(kind="custom", box=((None, 1.0),), builder=_no_channel),
        lambda: stability_probe(ghz(3), eps="0.1"),
        lambda: stability_probe(ghz(3), eps=float("nan")),
        lambda: convexity_check(bell(), bell(), t_grid=["a"]),
        lambda: convexity_check(bell(), bell(), t_grid=[True]),
        lambda: depolarizing("a"),
        lambda: depolarizing(True),
        lambda: dephasing("a", 0.0),
        lambda: dephasing(0.0, float("nan")),
        lambda: observer_spectrum(bell(), _DEPHASING, [(0, 3)], fixed={1: "0.3"}),
        lambda: local_dephasing([1.0]),
        lambda: local_dephasing([(0.0, 0.0, 0.0)]),
    ],
    ids=["box-str", "box-single", "box-int", "box-bool", "box-inf", "family-none", "eps-str",
         "eps-nan", "t-grid-str", "t-grid-bool", "depolarizing-str", "depolarizing-bool",
         "dephasing-str", "dephasing-nan", "fixed-str", "angles-not-pair", "angles-triple"],
)
def test_real_parameters_must_be_finite_real_numbers(call):
    with pytest.raises(BadParameter, match="finite real number|pairs"):
        call()


def test_real_parameters_accept_integers_and_numpy_reals():
    fam = custom_family([(0, np.float32(0.5)), (np.int64(-1), 2)], _no_channel)
    assert fam.box == ((0.0, 0.5), (-1.0, 2.0))
    assert all(type(v) is float for pair in fam.box for v in pair)
    ref = [k.tobytes() for k in depolarizing(0.25).kraus]
    assert [k.tobytes() for k in depolarizing(np.float64(0.25)).kraus] == ref
    assert [k.tobytes() for k in dephasing(1, np.float32(0.0)).kraus] == [
        k.tobytes() for k in dephasing(1.0, 0.0).kraus
    ]


_ARRAY_SITES = {
    "density-matrix": (lambda x: DensityMatrix((2,), x), np.eye(3)),
    "validate-state": (lambda x: validate_state(x, (2,)), np.eye(3) / 3),
    "pure-state": (lambda x: pure_state(x, (2,)), np.array([[1.0], [0.0]])),
    "kraus": (lambda x: KrausChannel(2, 2, (x,)), np.eye(2)[:1]),
    "family-apply": (lambda x: _DEPHASING.apply(x, ghz(2)), [0.0, 0.0, 0.0]),
    "family-instantiate": (lambda x: _DEPHASING.instantiate(x), [[0.0, 0.0, 0.0, 0.0]]),
    "entropy": (von_neumann_entropy, [[1.0, 0.0]]),
}
_NOT_NUMBERS = {
    "str": "ab",
    "numeric-str": [["1", "0"], ["0", "1"]],
    "none": None,
    "ragged": [[1.0, 0.0], [0.0]],
    "bool": np.eye(2, dtype=bool),
}


@pytest.mark.parametrize("site", sorted(_ARRAY_SITES))
@pytest.mark.parametrize("value", sorted(_NOT_NUMBERS) + ["wrong-shape"])
def test_arrays_must_be_numbers_of_the_expected_shape(site, value):
    call, wrong_shape = _ARRAY_SITES[site]
    if value == "wrong-shape":
        with pytest.raises(DimensionMismatch, match="shape"):
            call(wrong_shape)
    else:
        with pytest.raises(BadParameter, match="array of numbers"):
            call(_NOT_NUMBERS[value])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_pure_state_refuses_non_finite_entries(bad):
    with pytest.raises(BadParameter):
        pure_state([bad, 1.0], (2,))


def test_array_rule_keeps_valid_inputs_bit_for_bit():
    # a complex array of the right shape passes unconverted, and lists, ints
    # and reals convert as np.asarray(..., dtype=complex) does
    mat = np.asarray(ginibre_mixed((2, 2), 4, substream(5, "array-rule")).mat)
    assert states._array(mat, (4, 4), "m") is mat
    assert np.array_equal(validate_state(mat.tolist(), (2, 2)).mat, validate_state(mat, (2, 2)).mat)
    assert pure_state([1, 0], (2,)).mat.tobytes() == pure_state(np.eye(2)[0], (2,)).mat.tobytes()
    ints, reals = (_DEPHASING.instantiate(p) for p in ([0, 1, 0, 1], np.array([0.0, 1.0, 0.0, 1.0])))
    assert [k.tobytes() for c in ints.channels for k in c.kraus] == [
        k.tobytes() for c in reals.channels for k in c.kraus
    ]
    with pytest.raises(BadParameter, match="array of numbers"):
        _DEPHASING.instantiate([0.0, 1.0j, 0.0, 0.0])


def test_stream_names_must_be_strings():
    with pytest.raises(BadParameter, match="string"):
        substream(0, 5)


def test_numpy_integers_are_accepted():
    lay = SubsystemLayout((np.int64(2), np.int32(3)))
    assert lay.dims == (2, 3) and all(type(d) is int for d in lay.dims)
    assert Bipartition.of([np.int64(1)], 3) == Bipartition.of([1], 3)
    rho = ghz(3)
    assert np.array_equal(partial_trace(rho, [np.int64(0)]).mat, partial_trace(rho, [0]).mat)
    assert np.array_equal(haar_pure((2, 2), np.int64(2)).mat, haar_pure((2, 2), 2).mat)
    assert substream(np.uint32(1), "s").random() == substream(1, "s").random()


def test_tensor_equals_np_kron():
    a = ginibre_mixed((2, 3), 6, substream(9, "tensor-a"))
    b = ginibre_mixed((3,), 2, substream(9, "tensor-b"))
    for x, y in ((a, b), (b, a), (bell(), b), (b, maximally_mixed((2,)))):
        joint = tensor(x, y)
        assert joint.dims == x.dims + y.dims
        assert np.array_equal(joint.mat, np.kron(x.mat, y.mat))


def test_tensor_refuses_an_oversized_product_before_forming_it(monkeypatch):
    # D = 3**8 = 6561 is above the size cap; the factors alone are not
    def unreachable(*args):
        raise AssertionError("an oversized product was formed")

    monkeypatch.setattr(states, "_assemble_raw", unreachable)
    with pytest.raises(StateTooLarge):
        tensor(maximally_mixed((3,) * 5), maximally_mixed((3,) * 3))


def test_assemble_on_subsets_matches_plain_kron():
    a = ginibre_mixed((2,), 2, substream(9, "x"))
    b = ginibre_mixed((2,), 2, substream(9, "y"))
    c = ginibre_mixed((2,), 2, substream(9, "z"))
    direct = np.kron(np.asarray(a.mat), np.kron(np.asarray(b.mat), np.asarray(c.mat)))
    assembled = assemble_on_subsets(
        [np.asarray(b.mat), np.kron(np.asarray(a.mat), np.asarray(c.mat))],
        [[1], [0, 2]],
        SubsystemLayout((2, 2, 2)),
    )
    assert np.allclose(np.asarray(assembled.mat), direct, atol=1e-14)
    # a factor on an unsorted subset holds its subsystems in the listed order
    unsorted = assemble_on_subsets(
        [np.kron(np.asarray(c.mat), np.asarray(a.mat)), np.asarray(b.mat)],
        [[2, 0], [1]],
        SubsystemLayout((2, 2, 2)),
    )
    assert np.allclose(np.asarray(unsorted.mat), direct, atol=1e-14)


def test_product_of_marginals_factorizes_products():
    cut = Bipartition.of([0, 2], 3)
    rho = random_product((2, 2, 2), cut, substream(11, "prod"))
    sigma = product_of_marginals(rho, cut)
    assert np.allclose(np.asarray(sigma.mat), np.asarray(rho.mat), atol=1e-12)


def test_product_of_marginals_equals_block_marginals_bit_for_bit():
    states = [
        ginibre_mixed((2, 2, 2), 8, substream(12, "pm")),
        ginibre_mixed((2, 3, 2), 3, substream(12, "pm")),
        haar_pure((3, 2, 2, 2), substream(12, "pm")),
        ghz(4),
    ]
    for rho in states:
        for cut in enumerate_bipartitions(rho.n):
            got = np.asarray(product_of_marginals(rho, cut).mat)
            want = np.asarray(product_of_block_marginals(rho, [cut.mask_a, cut.mask_b]).mat)
            assert np.array_equal(got, want), cut.as_lists()


def test_named_states():
    assert np.isclose(bell().purity(), 1.0)
    g = ghz(3)
    m = np.asarray(g.mat)
    assert np.isclose(m[0, 0].real, 0.5) and np.isclose(m[7, 7].real, 0.5)
    assert np.isclose(m[0, 7].real, 0.5)
    w = w_state(3)
    diag = np.real(np.diag(np.asarray(w.mat)))
    # weight sits on |100>, |010>, |001>
    assert np.allclose(sorted(diag)[-3:], [1 / 3] * 3, atol=1e-12)
    mm = maximally_mixed((2, 2))
    assert np.allclose(np.asarray(mm.mat), np.eye(4) / 4)
    with pytest.raises(BadParameter):
        ghz(1)
    with pytest.raises(BadParameter):
        pure_state(np.zeros(4), (2, 2))


def test_random_generators_are_deterministic():
    a = ginibre_mixed((2, 2), 4, substream(42, "s"))
    b = ginibre_mixed((2, 2), 4, substream(42, "s"))
    assert np.array_equal(np.asarray(a.mat), np.asarray(b.mat))
    c = ginibre_mixed((2, 2), 4, substream(42, "other"))
    assert not np.array_equal(np.asarray(a.mat), np.asarray(c.mat))
    p = haar_pure((2, 2), substream(1, "h"))
    assert np.isclose(p.purity(), 1.0)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: ginibre_mixed((2, 2), 4, seed=-1),
        lambda: haar_pure((2, 2), -1),
        lambda: substream(-1, "s"),
    ],
    ids=["ginibre", "haar", "substream"],
)
def test_negative_seeds_are_refused(draw):
    with pytest.raises(BadParameter, match="seed must be a non-negative integer"):
        draw()


def test_ginibre_rank_controls_support():
    low = ginibre_mixed((2, 2), 1, substream(0, "r1"))
    eigs = np.linalg.eigvalsh(np.asarray(low.mat))
    assert np.sum(eigs > 1e-12) == 1
    full = ginibre_mixed((2, 2), 4, substream(0, "r4"))
    assert np.all(np.linalg.eigvalsh(np.asarray(full.mat)) > 1e-12)
    with pytest.raises(BadParameter):
        ginibre_mixed((2, 2), 0, substream(0, "r0"))


def test_ginibre_entry_cap_is_the_largest_state_s_entries(monkeypatch):
    class Drawn(Exception):
        pass

    def draw(seed):
        raise Drawn  # a draw the cap lets through stops here, unallocated

    monkeypatch.setattr(states, "rng_from", draw)
    entries = 4**DEFAULT_N_CAP
    for dims in ((2, 2), (3, 5), (2**DEFAULT_N_CAP,)):
        dim = math.prod(dims)
        with pytest.raises(Drawn):
            ginibre_mixed(dims, entries // dim, 0)
        with pytest.raises(StateTooLarge):
            ginibre_mixed(dims, entries // dim + 1, 0)
