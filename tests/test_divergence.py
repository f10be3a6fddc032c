import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qphi.channels import apply_channel, random_channel
from qphi.divergence import (
    LN2,
    delta,
    entropies,
    negative_type_check,
    qjsd,
    qjsd_gram,
    von_neumann_entropy,
)
from qphi.errors import (
    BadParameter,
    DimensionMismatch,
    LayoutMismatch,
    NumericalBreakdown,
    TooFewStates,
)
from qphi.states import (
    DensityMatrix,
    bell,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
    pure_state,
    substream,
)

# spectrum of (bell + I/4)/2; entropy frozen from an independent evaluation
MIDPOINT_ENTROPY = 1.0735428464085232


def _pair(seed: int):
    a = ginibre_mixed((2, 2), 4, substream(seed, "div-a"))
    b = ginibre_mixed((2, 2), 4, substream(seed, "div-b"))
    return a, b


def test_entropy_known_values():
    assert von_neumann_entropy(bell()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(maximally_mixed((2, 2))) == pytest.approx(np.log(4), abs=1e-12)
    mid = np.diag([5 / 8, 1 / 8, 1 / 8, 1 / 8]).astype(complex)
    assert von_neumann_entropy(mid) == pytest.approx(MIDPOINT_ENTROPY, abs=1e-12)


def test_qjsd_of_bell_and_its_marginal_product():
    val = qjsd(bell(), maximally_mixed((2, 2)))
    assert val == pytest.approx(MIDPOINT_ENTROPY - LN2, abs=1e-12)


def test_orthogonal_pure_states_reach_the_bound():
    zero = pure_state(np.array([1.0, 0.0]), (2,))
    one = pure_state(np.array([0.0, 1.0]), (2,))
    assert qjsd(zero, one) == pytest.approx(LN2, abs=1e-12)
    assert delta(zero, one) == pytest.approx(np.sqrt(LN2), abs=1e-12)


def test_qjsd_layout_mismatch():
    with pytest.raises(LayoutMismatch):
        qjsd(bell(), maximally_mixed((4,)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_qjsd_symmetry_and_bounds(seed):
    a, b = _pair(seed)
    d1 = qjsd(a, b)
    d2 = qjsd(b, a)
    assert abs(d1 - d2) <= 1e-12
    assert -1e-10 <= d1 <= LN2 + 1e-10
    assert qjsd(a, a) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_sqrt_qjsd_triangle_inequality(seed):
    a, b = _pair(seed)
    c = haar_pure((2, 2), substream(seed, "div-c"))
    assert delta(a, c) <= delta(a, b) + delta(b, c) + 1e-9


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_data_processing_contraction(seed):
    a, b = _pair(seed)
    ch = random_channel(4, 4, 2, substream(seed, "div-ch"))
    assert qjsd(apply_channel(ch, a), apply_channel(ch, b)) <= qjsd(a, b) + 1e-9


def test_gram_matrix_shape_and_diagonal():
    states = [ginibre_mixed((2,), 2, substream(k, "gram")) for k in range(4)]
    g = qjsd_gram(states)
    assert g.shape == (4, 4)
    assert np.allclose(np.diag(g), 0.0, atol=1e-12)
    assert np.allclose(g, g.T, atol=1e-12)


def test_negative_type_sampling():
    states = [ginibre_mixed((2, 2), 4, substream(k, "neg")) for k in range(6)]
    rep = negative_type_check(states, 500, substream(0, "neg-coef"))
    assert rep.size == 6 and rep.trials == 500
    assert rep.negative_type_max <= 1e-9
    # the shifted kernel ln2 - D is reported, not asserted
    assert np.isfinite(rep.kernel_min_eigenvalue)


@pytest.mark.parametrize("trials", [-3, 2.5, "4", True])
def test_negative_type_refuses_bad_trial_counts(trials):
    states = [bell(), maximally_mixed((2, 2))]
    with pytest.raises(BadParameter, match="trials"):
        negative_type_check(states, trials, 0)


def test_negative_type_takes_zero_and_numpy_trial_counts():
    # verify passes a count of zero when its config does
    states = [bell(), maximally_mixed((2, 2))]
    assert negative_type_check(states, 0, 0).trials == 0
    rep = negative_type_check(states, np.int64(5), 0)
    assert rep.trials == 5 and type(rep.trials) is int


def test_negative_type_needs_two_states():
    with pytest.raises(TooFewStates):
        negative_type_check([bell()], 10, 0)


# ---------------------------------------------------------------------------
# stacked kernels against their one-at-a-time references

divergence_module = importlib.import_module("qphi.divergence")


def _negative_type_max(dmat, trials, rng):
    """max a.D.a trial by trial: each trial draws its own m normals."""
    worst = -np.inf
    for _ in range(trials):
        a = rng.standard_normal(dmat.shape[0])
        a -= a.mean()
        nrm = float(np.linalg.norm(a))
        if nrm < 1e-12:
            continue
        a /= nrm
        worst = max(worst, float(a @ dmat @ a))
    return worst if np.isfinite(worst) else 0.0


@pytest.mark.parametrize("m, trials", [(6, 500), (2, 40), (1, 5), (3, 0)])
def test_stacked_negative_type_matches_trial_by_trial(m, trials):
    # m = 1 centers every vector to zero, so every trial is skipped
    states = [ginibre_mixed((2, 2), 4, substream(k, "neg-stack")) for k in range(m)]
    dmat = divergence_module._grams(np.stack([np.asarray(s.mat) for s in states])[None])[0]
    got = divergence_module._negative_type(dmat, trials, substream(0, "neg-stack-coef"))
    want = _negative_type_max(dmat, trials, substream(0, "neg-stack-coef"))
    assert abs(got.negative_type_max - want) <= 1e-15
    assert got.trials == trials and got.size == m


def _entropy_of_spectrum(w):
    """The row-by-row formula: -sum(p ln p) over the positive eigenvalues only."""
    pos = w[w > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def test_entropies_match_entropy_of_spectrum_row_by_row():
    rng = np.random.default_rng(7)
    full = rng.dirichlet(np.ones(8), size=4)
    zeros = full.copy()
    zeros[:, :3] = 0.0                      # rank 5, exact zeros
    clipped = full.copy()
    clipped[:, 0] = -5e-10                  # clipped to zero, not a breakdown
    clipped[:, 5] = -1e-11
    pure = np.zeros((1, 8))
    pure[0, -1] = 1.0
    rows = np.vstack([full, zeros, clipped, pure])
    got = entropies(rows)
    want = np.array([_entropy_of_spectrum(r) for r in rows])
    assert got.shape == (rows.shape[0],)
    # rows without a zero or negative eigenvalue sum the same terms in the same order
    assert np.array_equal(got[:4], want[:4])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    assert got[-1] == 0.0
    # any leading shape; an empty spectrum has entropy 0
    assert np.array_equal(entropies(rows.reshape(13, 1, 8))[:, 0], got)
    assert entropies(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


def test_entropies_raise_on_a_row_below_the_breakdown_floor():
    rows = np.full((3, 4), 0.25)
    rows[1] = [0.5, 0.5, 2e-9, -2e-9]
    with pytest.raises(NumericalBreakdown):
        entropies(rows)
    with pytest.raises(NumericalBreakdown):
        entropies(rows[1])


def test_entropies_raise_on_nan_eigenvalues():
    # NaN compares false against the floor, so it must not pass as a zero
    with pytest.raises(NumericalBreakdown):
        entropies(np.array([np.nan, 0.5]))
    with pytest.raises(NumericalBreakdown):
        von_neumann_entropy(DensityMatrix((2,), np.full((2, 2), np.nan)))


@pytest.mark.parametrize(
    "mat",
    [[[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [0.0, 0.0]], [[1.0, 0.0], [np.inf, 0.0]]],
    ids=["nan-diagonal", "nan-upper", "inf-lower"],
)
def test_von_neumann_entropy_refuses_non_finite_raw_entries(mat):
    # eigvalsh returns finite values for the first two, so only a check of
    # the entries themselves refuses them
    with pytest.raises(BadParameter, match="non-finite"):
        von_neumann_entropy(np.array(mat))


def test_von_neumann_entropy_takes_a_square_matrix_of_numbers():
    with pytest.raises(DimensionMismatch):
        von_neumann_entropy([[1.0, 0.0]])
    with pytest.raises(BadParameter):
        von_neumann_entropy([["1", "0"], ["0", "0"]])
    rho = ginibre_mixed((2, 2), 3, substream(4, "vne-array"))
    assert von_neumann_entropy(np.asarray(rho.mat).tolist()) == von_neumann_entropy(rho)


def _gram_ensemble(dims):
    dim = int(np.prod(dims))
    seed = substream(0, f"gram-oracle-{dims}")
    return [
        ginibre_mixed(dims, dim, seed),
        ginibre_mixed(dims, 2, seed),
        haar_pure(dims, seed),
        maximally_mixed(dims),
        ginibre_mixed(dims, dim, seed),
    ]


@pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3), (2, 2, 2)])
def test_qjsd_gram_matches_pairwise_qjsd(dims, monkeypatch):
    states = _gram_ensemble(dims)
    g = qjsd_gram(states)
    m = len(states)
    for i in range(m):
        assert g[i, i] == 0.0
        for j in range(m):
            if i != j:
                assert abs(g[i, j] - qjsd(states[i], states[j])) <= 1e-14, (i, j)
    assert np.array_equal(g, g.T)
    # every ordered pair as one stack of pairs
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    mats = np.stack([s.mat for s in states])
    pairs = divergence_module._pair_divergences(mats[i], mats[j])
    assert np.max(np.abs(pairs - g[i, j])) <= 1e-14
    # one matrix (or pair) per stacked eigensolve gives the same values, bit for bit
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    assert np.array_equal(qjsd_gram(states), g)
    assert np.array_equal(divergence_module._pair_divergences(mats[i], mats[j]), pairs)


def test_pair_divergences_split_their_own_stacks(monkeypatch):
    mats = np.stack([s.mat for s in _gram_ensemble((2, 2))])
    want = divergence_module._pair_divergences(mats, mats[::-1])
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def record(x):
        sizes.append(x.nbytes)
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    # two pairs and their midpoints fill the cap
    cap = 16 * 4 * 4 * 6
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", cap)
    assert np.array_equal(divergence_module._pair_divergences(mats, mats[::-1]), want)
    assert len(sizes) == -(-len(mats) // 2) and max(sizes) <= cap


@pytest.mark.parametrize("m", [3, 8])
def test_grams_split_many_ensembles_into_runs_of_whole_samples(m, monkeypatch):
    # (T, 3, D, D) as the triangle check stacks them, (T, 8, D, D) as the
    # negative-type check does
    dims, count = (2, 2), 5
    ensembles = [
        [ginibre_mixed(dims, 1 + (t + k) % 4, substream(t, f"gram-runs-{k}")) for k in range(m)]
        for t in range(count)
    ]
    want = np.stack([qjsd_gram(e) for e in ensembles])
    mats = np.stack([[s.mat for s in e] for e in ensembles])
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def record(x):
        sizes.append(x.nbytes)
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    # the bytes of one sample's m states and m(m-1)/2 midpoints
    one = (m + m * (m - 1) // 2) * mats[0, 0].nbytes
    for cap in (divergence_module._STACK_BYTES, 1, one, 2 * one, one // 2):
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", cap)
        sizes.clear()
        assert np.array_equal(divergence_module._grams(mats), want), cap
        # every state and midpoint is eigensolved once, in stacks within the
        # cap; a cap that holds a whole sample takes runs of whole samples
        assert sum(sizes) == count * one
        assert max(sizes) <= max(cap, mats[0, 0].nbytes)
        if cap >= one:
            assert len(sizes) == -(-count // (cap // one))


@pytest.mark.parametrize("stack_bytes", [None, 1, 3 * 16 * 64 * 64])
def test_ensemble_midpoints_built_in_place_equal_the_out_of_place_ones(stack_bytes, monkeypatch):
    # three samples of three states: full rank on (2,3,2,3), and rank 40,
    # full rank and pure on (2,)^6
    for dims, kinds in (((2, 3, 2, 3), (36, 36, 36)), ((2,) * 6, (40, 64, 1))):
        stacks = [
            np.stack([np.asarray(ginibre_mixed(dims, k, substream(t, f"ens-{dims}-{i}")).mat)
                      for t in range(3)])
            for i, k in enumerate(kinds)
        ]
        if stack_bytes is not None:
            monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
        s, mid = divergence_module._ensemble_entropies(stacks)
        monkeypatch.undo()
        assert np.array_equal(s.T, [entropies(np.linalg.eigvalsh(a)) for a in stacks])
        want = [entropies(np.linalg.eigvalsh((stacks[i] + stacks[j]) / 2.0))
                for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.array_equal(mid.T, want)
