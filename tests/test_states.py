import numpy as np
import pytest

from qphi.errors import (
    BadParameter,
    DimensionMismatch,
    EmptyKeepSet,
    IndexOutOfRange,
    InvalidCut,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from qphi.states import (
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
    permute_subsystems,
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


def test_permute_subsystems_roundtrip():
    rho = ginibre_mixed((2, 3, 2), 12, substream(3, "perm"))
    fwd = permute_subsystems(rho, [2, 0, 1])
    assert fwd.dims == (2, 2, 3)
    back = permute_subsystems(fwd, [1, 2, 0])
    assert np.allclose(np.asarray(back.mat), np.asarray(rho.mat), atol=1e-14)


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


def test_ginibre_rank_controls_support():
    low = ginibre_mixed((2, 2), 1, substream(0, "r1"))
    eigs = np.linalg.eigvalsh(np.asarray(low.mat))
    assert np.sum(eigs > 1e-12) == 1
    full = ginibre_mixed((2, 2), 4, substream(0, "r4"))
    assert np.all(np.linalg.eigvalsh(np.asarray(full.mat)) > 1e-12)
    with pytest.raises(BadParameter):
        ginibre_mixed((2, 2), 0, substream(0, "r0"))
