import importlib
import time

import numpy as np
import pytest

from qphi.divergence import LN2, entropies, qjsd
from qphi.errors import (
    BadParameter,
    InvalidPartition,
    LayoutMismatch,
    NumericalBreakdown,
    SingleSubsystem,
)
from qphi.phi import (
    TIE_TOL,
    PartitionKBlocks,
    as_partition,
    convexity_check,
    divergence_for_partition,
    enumerate_partitions,
    lipschitz_check,
    merge_blocks,
    merge_inequality_check,
    min_over_partitions,
    partition_divergences,
    phi,
)
from qphi.states import (
    Bipartition,
    DensityMatrix,
    _partial_trace_raw,
    _permute_raw,
    bell,
    enumerate_bipartitions,
    ghz,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
    product_of_block_marginals,
    product_of_marginals,
    pure_state,
    random_product,
    substream,
    tensor,
    w_state,
)

# Frozen reference values, each recomputed independently from the midpoint
# spectra before being pinned here.
BELL_PHI = 0.3803956658485781                 # spectrum (5/8, 1/8, 1/8, 1/8)
CLASSICAL_PAIR_PHI = 0.2157615543388356       # spectrum (3/8, 1/8, 1/8, 3/8)
GHZ3_FULL_SPLIT = 0.4969291266482403          # all-singletons 3-block divergence


def classical_pair() -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5
    m[3, 3] = 0.5
    return DensityMatrix((2, 2), m)


def test_bell_phi_value_cut_and_sigma():
    res = phi(bell())
    assert res.phi == pytest.approx(BELL_PHI, abs=1e-12)
    assert res.optimal_cut.as_lists() == ([0], [1])
    assert res.tie_count == 1
    assert np.allclose(np.asarray(res.sigma_star.mat), np.eye(4) / 4, atol=1e-9)
    assert res.mode == "marginal"
    assert len(res.per_cut) == 1


def test_classical_pair_phi():
    res = phi(classical_pair())
    assert res.phi == pytest.approx(CLASSICAL_PAIR_PHI, abs=1e-12)


def test_ghz3_ties():
    res = phi(ghz(3))
    assert res.phi == pytest.approx(BELL_PHI, abs=1e-9)
    assert res.tie_count == 3
    assert len(res.per_cut) == 3
    spread = max(v for _, v in res.per_cut) - min(v for _, v in res.per_cut)
    assert spread < 1e-12


def test_product_states_have_zero_phi_with_factorizing_cut():
    for seed in range(10):
        n = 2 if seed % 2 == 0 else 3
        cuts = enumerate_bipartitions(n)
        cut = cuts[seed % len(cuts)]
        rho = random_product((2,) * n, cut, substream(seed, "phi-prod"))
        res = phi(rho)
        assert abs(res.phi) <= 1e-10
        assert cut in res.ties


def test_phi_argument_validation():
    with pytest.raises(SingleSubsystem):
        phi(maximally_mixed((4,)))
    with pytest.raises(BadParameter):
        phi(bell(), "fancy")
    # the zero matrix has rank 0, neither pure nor mixed, so no branch scores it
    with pytest.raises(NumericalBreakdown, match="noise floor"):
        phi(DensityMatrix((2, 2, 2), np.zeros((8, 8))))
    with pytest.raises(NumericalBreakdown, match="noise floor"):
        phi_module._cut_divergences(np.stack([np.asarray(ghz(3).mat), np.zeros((8, 8))]), (2, 2, 2))


def test_optimized_mode_never_exceeds_marginal():
    for seed in (0, 1, 2):
        rho = ginibre_mixed((2, 2), 4, substream(seed, "phi-opt"))
        res = phi(rho, "optimized")
        assert res.phi <= res.phi_marginal + 1e-12
        assert isinstance(res.phi, float)
        assert res.mode == "optimized"


def test_optimized_mode_on_bell_matches_marginal():
    res = phi(bell(), "optimized")
    # for this state the product of marginals is already the closest product
    assert res.phi == pytest.approx(BELL_PHI, abs=1e-6)


def test_partition_enumeration_counts():
    # k >= 2 blocks only: 4 partitions of 3 elements, 14 of 4
    assert len(enumerate_partitions(3)) == 4
    assert len(enumerate_partitions(4)) == 14
    with pytest.raises(BadParameter):
        enumerate_partitions(9)


def test_partition_validation():
    p = as_partition([[0, 2], [1]], 3)
    assert p.blocks == (frozenset({0, 2}), frozenset({1}))
    with pytest.raises(InvalidPartition):
        as_partition([[0], [1]], 3)          # does not cover
    with pytest.raises(InvalidPartition):
        as_partition([[0, 1], [1, 2]], 3)    # overlap
    with pytest.raises(InvalidPartition):
        as_partition([[0, 1, 2]], 3)         # single block


def test_bipartition_divergences_match_phi_per_cut():
    rho = ginibre_mixed((2, 2, 2), 8, substream(5, "phi-k"))
    res = phi(rho)
    for cut, val in res.per_cut:
        p = as_partition(cut.as_lists(), 3)
        assert divergence_for_partition(rho, p) == pytest.approx(val, abs=1e-12)


def test_kblock_minimum_equals_bipartition_minimum():
    for seed in range(5):
        n = 3 if seed % 2 == 0 else 4
        rho = ginibre_mixed((2,) * n, 2**n, substream(seed, "phi-kmin"))
        kmin, best_p = min_over_partitions(rho)
        assert kmin == pytest.approx(phi(rho).phi, abs=1e-9)


def test_ghz_merge_inequality():
    rho = ghz(3)
    full = as_partition([[0], [1], [2]], 3)
    assert divergence_for_partition(rho, full) == pytest.approx(GHZ3_FULL_SPLIT, abs=1e-12)
    before, after = merge_inequality_check(rho, full, 1, 2)
    assert before == pytest.approx(GHZ3_FULL_SPLIT, abs=1e-12)
    assert after == pytest.approx(BELL_PHI, abs=1e-9)
    assert after <= before + 1e-9
    with pytest.raises(InvalidPartition):
        merge_inequality_check(rho, as_partition([[0], [1, 2]], 3), 0, 1)


def test_merge_blocks_keeps_partition_canonical():
    p = as_partition([[0], [1], [2], [3]], 4)
    m = merge_blocks(p, 1, 3)
    assert m.blocks == (frozenset({0}), frozenset({1, 3}), frozenset({2}))


def test_convexity_check_reports():
    a = ginibre_mixed((2, 2), 4, substream(23, "cvx-a"))
    b = ginibre_mixed((2, 2), 4, substream(23, "cvx-b"))
    rep = convexity_check(a, b, t_grid=(0.0, 0.5, 1.0))
    assert len(rep.violations) == 3
    # endpoints are exact by construction
    assert abs(rep.violations[0]) < 1e-12 and abs(rep.violations[-1]) < 1e-12
    same = convexity_check(a, a, t_grid=(0.25, 0.75))
    assert same.max_violation == pytest.approx(0.0, abs=1e-12)


def test_convexity_check_refuses_an_empty_grid():
    a = ginibre_mixed((2, 2), 4, substream(23, "cvx-a"))
    with pytest.raises(BadParameter, match="t_grid"):
        convexity_check(a, a, t_grid=())


def test_partitions_over_another_n_are_refused():
    p4 = PartitionKBlocks((frozenset({0, 1}), frozenset({2, 3})), 4)
    rho = ghz(3)
    with pytest.raises(LayoutMismatch):
        partition_divergences(rho, [p4])
    assert partition_divergences(rho, []) == []
    with pytest.raises(LayoutMismatch):
        divergence_for_partition(rho, p4)
    with pytest.raises(LayoutMismatch):
        merge_inequality_check(rho, as_partition([[0], [1], [2, 3]], 4), 0, 1)
    # the pair checks refuse two states of different layouts the same way
    with pytest.raises(LayoutMismatch):
        convexity_check(rho, ghz(4))
    with pytest.raises(LayoutMismatch):
        lipschitz_check(rho, ghz(4))


def test_partition_blocks_and_probe_starts_must_be_integers():
    with pytest.raises(InvalidPartition, match="integer"):
        PartitionKBlocks((frozenset({0, 1.0}), frozenset({2})), 3)
    with pytest.raises(BadParameter, match="integer"):
        phi(bell(), "optimized", probe_starts=1.5)
    p = PartitionKBlocks((frozenset({np.int64(0)}), frozenset({1, 2})), 3)
    assert p.blocks == (frozenset({0}), frozenset({1, 2}))


def test_lipschitz_check_reports():
    a = ginibre_mixed((2, 2), 4, substream(17, "lip-a"))
    b = ginibre_mixed((2, 2), 4, substream(17, "lip-b"))
    rep = lipschitz_check(a, b)
    assert rep.violation == pytest.approx(rep.lhs - rep.rhs, abs=1e-15)
    assert rep.rhs >= 0.0
    zero = lipschitz_check(a, a)
    assert zero.lhs == 0.0 and zero.rhs == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 2)])
@pytest.mark.parametrize(
    "kind, modes",
    [("pure", ("marginal",)), ("rank-2", ("marginal",)), ("full", ("marginal", "optimized"))],
)
def test_convexity_and_lipschitz_match_per_state_phi_and_qjsd(dims, kind, modes, monkeypatch):
    def draw(tag):
        rng = substream(4, f"checks-{kind}-{tag}")
        if kind == "pure":
            return haar_pure(dims, rng)
        return ginibre_mixed(dims, 2 if kind == "rank-2" else int(np.prod(dims)), rng)

    a, b = draw("a"), draw("b")
    t_grid = (0.0, 0.3, 0.5, 1.0)
    pair = np.stack([a.mat, b.mat]), np.stack([b.mat, a.mat])
    stacked = {}
    for mode in modes:
        p1, p2 = phi(a, mode).phi, phi(b, mode).phi
        rep = convexity_check(a, b, t_grid, mode)
        want = [
            phi(DensityMatrix(dims, t * a.mat + (1 - t) * b.mat), mode).phi - (t * p1 + (1 - t) * p2)
            for t in t_grid
        ]
        assert rep.t_grid == t_grid and rep.max_violation == max(rep.violations)
        assert np.max(np.abs(np.subtract(rep.violations, want))) <= 1e-12
        lip = lipschitz_check(a, b, mode)
        lhs = abs(np.sqrt(max(p1, 0.0)) - np.sqrt(max(p2, 0.0)))
        assert abs(lip.lhs - lhs) <= 1e-12
        assert abs(lip.rhs - np.sqrt(max(qjsd(a, b), 0.0))) <= 1e-12
        assert lip.violation == lip.lhs - lip.rhs
        # the stacked bodies score (a, b) and (b, a) in one call each
        viol = phi_module._convexity_violations(*pair, dims, t_grid, mode)
        assert np.max(np.abs(viol[0] - rep.violations)) <= 1e-12
        assert np.max(np.abs(viol[1] - convexity_check(b, a, t_grid, mode).violations)) <= 1e-12
        sides = np.array(phi_module._lipschitz_sides(*pair, dims, mode))
        assert np.max(np.abs(sides - [[lip.lhs] * 2, [lip.rhs] * 2])) <= 1e-12
        stacked[mode] = viol
    # one pair per run of the kernel, its states and mixes a stack within
    # the cap, gives the same values, bit for bit
    phis, sizes = phi_module._phis, []

    def record(mats, *args):
        sizes.append(mats.nbytes)
        return phis(mats, *args)

    monkeypatch.setattr(phi_module, "_phis", record)
    cap = a.mat.nbytes * (2 + len(t_grid))
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", cap)
    for mode in modes:
        sizes.clear()
        assert np.array_equal(phi_module._convexity_violations(*pair, dims, t_grid, mode), stacked[mode])
        assert sizes == [cap, cap]


def test_checks_reject_an_unknown_mode_and_weights_outside_the_unit_interval():
    a = ginibre_mixed((2, 2), 4, substream(23, "cvx-a"))
    b = ginibre_mixed((2, 2), 4, substream(23, "cvx-b"))
    for mode in ("marginal", "optimized"):
        for t in (-0.1, 1.5):
            with pytest.raises(BadParameter, match="mixing weight"):
                convexity_check(a, b, (0.5, t), mode)
    with pytest.raises(BadParameter, match="unknown mode"):
        convexity_check(a, b, mode="exact")
    with pytest.raises(BadParameter, match="unknown mode"):
        lipschitz_check(a, b, mode="exact")


# States for the per-cut oracle, chosen so that every branch of the spectral
# per-cut computation runs: label -> (state, branches its cuts take).
def _oracle_states():
    def seed(name):
        return substream(0, "phi-oracle-" + name)

    return {
        "full-222": (ginibre_mixed((2, 2, 2), 8, seed("f222")), {"dense"}),
        "full-232": (ginibre_mixed((2, 3, 2), 12, seed("f232")), {"dense"}),
        "full-2^6": (ginibre_mixed((2,) * 6, 64, seed("f2^6")), {"dense"}),
        "rank2-222": (ginibre_mixed((2, 2, 2), 2, seed("r222")), {"dense"}),
        "rank3-2222": (ginibre_mixed((2, 2, 2, 2), 3, seed("r2222")), {"gram", "dense"}),
        # full rank, but 13 eigenvalues near 6e-11: they must not be dropped as noise
        "near-rank3-2222": (
            DensityMatrix(
                (2,) * 4,
                (1 - 1e-9) * np.asarray(ginibre_mixed((2,) * 4, 3, seed("r2222")).mat)
                + 1e-9 * np.eye(16) / 16,
            ),
            {"dense"},
        ),
        "haar-2^5": (haar_pure((2,) * 5, seed("h2^5")), {"schmidt"}),
        "haar-322": (haar_pure((3, 2, 2), seed("h322")), {"schmidt"}),
        "bell": (bell(), {"schmidt"}),
        "ghz4": (ghz(4), {"schmidt"}),
        "maxent-33": (pure_state(np.eye(3).reshape(-1), (3, 3)), {"schmidt"}),
        "w4": (w_state(4), {"schmidt"}),
        "product": (
            random_product((2, 2, 2), Bipartition.of([0, 2], 3), seed("prod")), {"dense"}
        ),
        # a pure pair times a mixed qubit: rank 2 of 8, zero on the cut {0,1}|{2}
        "pure-pair-x-mixed": (
            tensor(haar_pure((2, 2), seed("pp")), ginibre_mixed((2,), 2, seed("pm"))),
            {"gram", "dense"},
        ),
        "maximally-mixed": (maximally_mixed((2, 2, 2)), {"dense"}),
        # rank 3 of 128: d_A = 2, 4 cuts have rank-deficient marginals, d_A = 8
        # cuts full-rank ones
        "rank3-2^7": (ginibre_mixed((2,) * 7, 3, seed("r2^7")), {"gram", "resolvent"}),
    }


ORACLE_STATES = _oracle_states()
# the module, not the function the package exports under the same name
phi_module = importlib.import_module("qphi.phi")
divergence_module = importlib.import_module("qphi.divergence")
_DENSE_PER_CUT = {}


def _dense_per_cut(rho: DensityMatrix) -> list[float]:
    """qjsd(rho, product_of_marginals(rho, cut)) of every cut, computed once
    per state object, as several tests hold the same module-level states to it."""
    if id(rho) not in _DENSE_PER_CUT:
        values = [qjsd(rho, product_of_marginals(rho, c)) for c in enumerate_bipartitions(rho.n)]
        # the state is kept with its values, so that its id is not reused
        _DENSE_PER_CUT[id(rho)] = (rho, values)
    return _DENSE_PER_CUT[id(rho)][1]


@pytest.mark.parametrize("label", sorted(ORACLE_STATES))
def test_per_cut_values_match_dense_qjsd(label):
    rho, _ = ORACLE_STATES[label]
    cuts = enumerate_bipartitions(rho.n)
    dense = _dense_per_cut(rho)
    res = phi(rho)
    assert [c for c, _ in res.per_cut] == cuts
    for (cut, got), want in zip(res.per_cut, dense):
        assert abs(got - want) <= 1e-12, (cut.as_lists(), got, want)
    vmin = min(dense)
    assert abs(res.phi - vmin) <= 1e-12
    ties = tuple(c for c, v in zip(cuts, dense) if v <= vmin + TIE_TOL)
    assert res.ties == ties
    assert res.optimal_cut == ties[0]


def test_per_cut_values_do_not_depend_on_the_stack_split(monkeypatch):
    full = {label: phi(rho).per_cut for label, (rho, _) in ORACLE_STATES.items()}
    # one matrix per stacked eigensolve: every chunk of the cut plan is one cut
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    assert all(len(sides) == 1 for _, _, sides in phi_module._cut_plan((2,) * 6, 1))
    for label, (rho, _) in ORACLE_STATES.items():
        assert phi(rho).per_cut == full[label], label


@pytest.mark.parametrize("dims", [(2,) * 8, (2,) * 7, (3, 3, 2, 2, 2, 2), (2, 3, 2)])
def test_cut_plan_covers_every_cut_within_the_stack_cap(dims):
    dim = int(np.prod(dims))
    plan = phi_module._cut_plan(dims, divergence_module._stack_len(dim))
    cuts = enumerate_bipartitions(len(dims))
    seen = []
    for d, index, sides in plan:
        assert len(sides) * 16 * dim * dim <= divergence_module._STACK_BYTES
        assert d * d <= dim
        for k, side in zip(index, sides):
            a_idx, b_idx = cuts[k].as_lists()
            first, second = (a_idx, b_idx) if 0 in side[0] else (b_idx, a_idx)
            assert side == (tuple(first), tuple(second))
            assert int(np.prod([dims[i] for i in first])) == d
        seen.extend(index)
    assert sorted(seen) == list(range(len(cuts)))


def test_cut_plan_keeps_orders_not_permutations():
    # n = 12: 2047 cuts; a D-long index array per cut would be 64 MB, so
    # each cut keeps its two sides, which order its 12 subsystems
    plan = phi_module._cut_plan((2,) * 12, divergence_module._stack_len(4096))
    assert sum(len(index) for _, index, _ in plan) == 2047
    assert all(len(a) + len(b) == 12 for _, _, sides in plan for a, b in sides)
    assert not any(isinstance(v, np.ndarray) for chunk in plan for v in chunk)


def _partition_states():
    def seed(name):
        return substream(0, "partition-oracle-" + name)

    return {
        "full-222": ginibre_mixed((2, 2, 2), 8, seed("f222")),
        "rank2-222": ginibre_mixed((2, 2, 2), 2, seed("r222")),
        "haar-222": haar_pure((2, 2, 2), seed("h222")),
        "full-232": ginibre_mixed((2, 3, 2), 12, seed("f232")),
        "haar-232": haar_pure((2, 3, 2), seed("h232")),
        "full-2222": ginibre_mixed((2,) * 4, 16, seed("f2222")),
        "rank2-2222": ginibre_mixed((2,) * 4, 2, seed("r2222")),
        "haar-2222": haar_pure((2,) * 4, seed("h2222")),
        "ghz4": ghz(4),
    }


PARTITION_STATES = _partition_states()


@pytest.mark.parametrize("label", sorted(PARTITION_STATES))
def test_partition_divergences_match_dense_qjsd(label, monkeypatch):
    rho = PARTITION_STATES[label]
    parts = enumerate_partitions(rho.n)
    got = partition_divergences(rho, parts)
    for p, v in zip(parts, got):
        sigma = product_of_block_marginals(rho, [sorted(b) for b in p.blocks])
        assert abs(v - qjsd(rho, sigma)) <= 1e-12, [sorted(b) for b in p.blocks]
        assert divergence_for_partition(rho, p) == v
    k = int(np.argmin(got))
    assert min_over_partitions(rho) == (got[k], parts[k])
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    assert partition_divergences(rho, parts) == got


def test_each_state_takes_the_expected_branches(monkeypatch):
    taken = set()
    for name in ("schmidt", "gram", "resolvent", "dense"):
        fn = getattr(phi_module, f"_{name}_midpoint")

        def spy(*args, _fn=fn, _name=name):
            taken.add(_name)
            return _fn(*args)

        monkeypatch.setattr(phi_module, f"_{name}_midpoint", spy)
    for label, (rho, branches) in ORACLE_STATES.items():
        taken.clear()
        phi(rho)
        assert taken == branches, label


def _resolvent_against_qjsd(rho: DensityMatrix, stride: int):
    """(resolvent value, dense qjsd) of every stride-th cut whose marginals
    have full rank, with the branch called directly, whatever
    ``_resolvent_pays`` says; also the smallest ratio of a marginal
    eigenvalue to ``_rank``'s floor."""
    mat = np.asarray(rho.mat)
    w, v = np.linalg.eigh(mat)
    x = phi_module._factor(w, v)
    base = np.arange(rho.dim).reshape(rho.dims)
    pairs, margin = [], np.inf
    for cut in enumerate_bipartitions(rho.n)[::stride]:
        a_idx, b_idx = cut.as_lists()
        rho_a, rho_b = (_partial_trace_raw(mat, rho.dims, side) for side in (a_idx, b_idx))
        wa, wb = np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b)
        if phi_module._rank(wa) * phi_module._rank(wb) < rho.dim:
            continue
        for ws in (wa, wb):
            margin = min(margin, ws[0] / (ws.size * phi_module._EPS * ws[-1]))
        perm = base.transpose(a_idx + b_idx).reshape(-1)
        s_mid = phi_module._resolvent_midpoint(x[perm], rho_a, rho_b, wa, wb)
        got = s_mid - 0.5 * (entropies(w) + entropies(wa) + entropies(wb))
        pairs.append((got, qjsd(rho, product_of_marginals(rho, cut))))
    return pairs, margin


def _near_floor_state() -> DensityMatrix:
    """Rank 3 of 128 plus 1e-11 of a rank-8 state: the d_A = 4 marginals are
    full rank with smallest eigenvalues about 13 times ``_rank``'s floor, so
    ln a_min, and the node range, are near their widest."""
    low = np.asarray(ginibre_mixed((2,) * 7, 3, substream(0, "floor-low")).mat)
    fill = np.asarray(ginibre_mixed((2,) * 7, 8, substream(0, "floor-fill")).mat)
    m = (1 - 1e-11) * low + 1e-11 * fill
    return DensityMatrix((2,) * 7, (m + m.conj().T) / 2.0)


@pytest.mark.parametrize(
    "dims, rank, stride",
    [(dims, rank, 3) for dims in ((2,) * 7, (3, 3, 2, 2, 2, 2)) for rank in (2, 3, 4, 8)]
    # a sample of the 127 cuts at D = 256, to keep the dense references short
    + [((2,) * 8, 4, 9)],
)
def test_resolvent_branch_matches_dense_qjsd(dims, rank, stride):
    rho = ginibre_mixed(dims, rank, substream(rank, f"resolvent-{dims}"))
    pairs, _ = _resolvent_against_qjsd(rho, stride)
    assert len(pairs) >= 3
    for got, want in pairs:
        assert abs(got - want) <= 1e-12


def test_resolvent_branch_holds_near_the_rank_floor():
    pairs, margin = _resolvent_against_qjsd(_near_floor_state(), 2)
    assert 3.0 <= margin <= 30.0
    for got, want in pairs:
        assert abs(got - want) <= 1e-12


def test_full_rank_and_small_states_never_take_the_resolvent_branch(monkeypatch):
    assert not any(phi_module._resolvent_pays(dim, dim) for dim in range(2, 4097))
    assert not any(
        phi_module._resolvent_pays(dim, r) for dim in range(2, 17) for r in range(1, dim + 1)
    )

    def unreachable(*args):
        raise AssertionError("a full-rank state took the resolvent branch")

    monkeypatch.setattr(phi_module, "_resolvent_midpoint", unreachable)
    phi(ginibre_mixed((2,) * 7, 128, substream(0, "resolvent-full")))


# ---------------------------------------------------------------------------
# optimized mode


def _opt_states():
    def seed(name):
        return substream(0, "phi-opt-" + name)

    out = {}
    for dims, tag in (((2, 2, 2), "222"), ((2, 3, 2), "232"), ((2, 2, 2, 2), "2^4")):
        dim = int(np.prod(dims))
        out["full-" + tag] = ginibre_mixed(dims, dim, seed("full-" + tag))
        out["rank2-" + tag] = ginibre_mixed(dims, 2, seed("rank2-" + tag))
        out["pure-" + tag] = haar_pure(dims, seed("pure-" + tag))
    return out


OPT_STATES = _opt_states()


@pytest.mark.parametrize("label", sorted(OPT_STATES))
def test_optimized_phi_is_the_minimum_over_every_refined_cut(label):
    rho = OPT_STATES[label]
    res = phi(rho, "optimized")
    assert res.phi <= res.phi_marginal
    refined = [phi_module._refine_product(rho, cut)[0] for cut in enumerate_bipartitions(rho.n)]
    marginal = [v for _, v in res.per_cut]
    # no cut reports more than its marginal value
    capped = [min(r, m) for r, m in zip(refined, marginal)]
    assert res.phi == min(capped)
    assert abs(res.phi - min(refined)) <= 1e-12
    assert res.optimal_cut == res.per_cut[int(np.argmin(capped))][0]
    assert abs(qjsd(rho, res.sigma_star) - res.phi) <= 1e-12


def test_optimized_mode_reports_a_lower_untied_cut():
    # rank 3 on (2,2,3): the marginal minimum is the cut {0,2}|{1}, but
    # {0}|{1,2} refines about 0.02 nats lower
    rho = ginibre_mixed((2, 2, 3), 3, substream(10, "phi-opt-cut"))
    res = phi(rho, "optimized")
    assert res.ties == (Bipartition.of([0, 2], 3),)
    assert res.optimal_cut == Bipartition.of([0], 3)
    tied = phi_module._refine_product(rho, res.ties[0])[0]
    assert res.phi < tied - 0.01


def _factor_gradients(rho: DensityMatrix, sigma: DensityMatrix, cut: Bipartition):
    """G_A = tr_B[(1 (x) sigma_B) G] and G_B = tr_A[(sigma_A (x) 1) G] for the
    qjsd gradient G = (log sigma - log m)/2, m = (rho + sigma)/2, from dense
    matrix logarithms; also returns sigma_A and sigma_B."""

    def logm(mat):
        w, v = np.linalg.eigh(mat)
        return (v * np.log(w)) @ v.conj().T

    a_idx, b_idx = cut.as_lists()
    da = int(np.prod([rho.dims[i] for i in a_idx]))
    db = rho.dim // da
    order = a_idx + b_idx
    r = _permute_raw(np.asarray(rho.mat), rho.dims, order)
    s = _permute_raw(np.asarray(sigma.mat), rho.dims, order)
    g = (0.5 * (logm(s) - logm((r + s) / 2.0))).reshape(da, db, da, db)
    s4 = s.reshape(da, db, da, db)
    sa = np.einsum("ijkj->ik", s4)
    sb = np.einsum("ijil->jl", s4)
    ga = np.einsum("jm,imkj->ik", sb, g)
    gb = np.einsum("im,mjil->jl", sa, g)
    return ga, gb, sa, sb


@pytest.mark.parametrize("label", ["full-222", "full-232", "full-2^4"])
def test_optimized_sigma_is_stationary(label):
    # at an interior minimum over product states each factor gradient is a
    # multiple of the identity
    rho = OPT_STATES[label]
    res = phi(rho, "optimized")
    ga, gb, sa, sb = _factor_gradients(rho, res.sigma_star, res.optimal_cut)
    for g, s in ((ga, sa), (gb, sb)):
        resid = g - np.trace(s @ g) * np.eye(g.shape[0])
        assert np.max(np.abs(resid)) <= 1e-6


def test_refinement_of_a_pure_state_is_fast_and_lower():
    rho = haar_pure((2, 2, 2), substream(0, "bl-oracle-pure"))
    t0 = time.perf_counter()
    val, sigma, steps, _ = phi_module._refine_product(rho, Bipartition.of([0], 3))
    assert time.perf_counter() - t0 < 1.0
    # the former coordinate descent stopped at 0.19778516357 after 500 passes
    assert val < 0.19778516357
    assert steps < phi_module.REFINE_MAX_STEPS
    assert abs(qjsd(rho, sigma) - val) <= 1e-12


def test_probe_starts_report_a_refinement_spread():
    rho = OPT_STATES["full-222"]
    plain = phi(rho, "optimized")
    probed = phi(rho, "optimized", probe_starts=3)
    assert plain.refinement_spread is None
    assert probed.phi == plain.phi and probed.optimal_cut == plain.optimal_cut
    # a full-rank state has a unique optimum, which perturbed starts find again
    assert 0.0 <= probed.refinement_spread <= 1e-4


@pytest.mark.parametrize("mode, starts", [("optimized", -1), ("marginal", -1), ("marginal", 1)])
def test_probe_starts_are_refused_before_any_work(mode, starts, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a refused call scored a cut")

    monkeypatch.setattr(phi_module, "_cut_divergences", unreachable)
    with pytest.raises(BadParameter, match="probe_starts"):
        phi(OPT_STATES["full-222"], mode, probe_starts=starts)


# ---------------------------------------------------------------------------
# stacks of states


def _stacks(states):
    """The states grouped by layout, each group as one (S, D, D) stack."""
    by_dims = {}
    for rho in states:
        by_dims.setdefault(rho.dims, []).append(rho)
    return [
        (dims, group, np.stack([np.asarray(r.mat) for r in group]))
        for dims, group in by_dims.items()
    ]


# pure, full-rank and rank-deficient states side by side in one stack, with
# cuts that take the Schmidt, Gram and dense branches
STACK_STATES = [rho for rho, _ in ORACLE_STATES.values()] + [
    # with the oracle's rank-3 state, a D = 128 stack of Gram and resolvent cuts
    ginibre_mixed((2,) * 7, 2, substream(0, "stack-r2^7")),
    # the last three also go through the partition kernel
    haar_pure((2, 2, 2), substream(0, "stack-h222")),
    ginibre_mixed((2, 3, 2), 2, substream(0, "stack-r232")),
    haar_pure((2, 3, 2), substream(0, "stack-h232")),
]


def test_stacked_cut_divergences_match_per_state_phi(monkeypatch):
    stacks = _stacks(STACK_STATES)
    assert max(len(group) for _, group, _ in stacks) >= 6
    results = []
    for dims, group, mats in stacks:
        got = phi_module._cut_divergences(mats, dims)
        assert got.shape == (len(group), 2 ** (len(dims) - 1) - 1)
        for rho, row in zip(group, got):
            want = [v for _, v in phi(rho).per_cut]
            assert np.max(np.abs(row - want)) <= 1e-12, dims
            dense = _dense_per_cut(rho)
            assert np.max(np.abs(row - dense)) <= 1e-12, dims
        results.append(got)
    # one matrix per stack: every state and cut on its own, same values
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    for (dims, _, mats), got in zip(stacks, results):
        assert np.array_equal(phi_module._cut_divergences(mats, dims), got)


# full-rank, rank-2 and pure states, two of each per layout, so that a chunk
# of several states mixes the Schmidt, Gram and dense branches; at D = 128,
# rank-3 and pure states, two of each, mix the Schmidt, Gram and resolvent ones
CHUNK_STATES = [
    make(dims, substream(k, f"chunk-{dims}"))
    for dims in ((2, 2, 2, 2), (3, 2, 2))
    for k in range(2)
    for make in (
        lambda dims, seed: ginibre_mixed(dims, int(np.prod(dims)), seed),
        lambda dims, seed: ginibre_mixed(dims, 2, seed),
        haar_pure,
    )
] + [
    make((2,) * 7, substream(k, "chunk-2^7"))
    for k in range(2)
    for make in (lambda dims, seed: ginibre_mixed(dims, 3, seed), haar_pure)
]


@pytest.mark.parametrize("per_chunk", ["one cut", "several states"])
def test_cut_divergences_do_not_depend_on_the_chunk_size(per_chunk, monkeypatch):
    stacks = _stacks(CHUNK_STATES)
    want = [phi_module._cut_divergences(mats, dims) for dims, _, mats in stacks]
    for (dims, group, mats), values in zip(stacks, want):
        dim = mats.shape[-1]
        # one matrix, or three, per stacked eigensolve
        stack_bytes = 1 if per_chunk == "one cut" else 3 * 16 * dim * dim
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
        step = divergence_module._stack_len(dim)
        if per_chunk == "one cut":
            assert step == 1
        else:
            assert 1 < step < len(group)
        got = phi_module._cut_divergences(mats, dims)
        assert np.array_equal(got, values), dims
        for rho, row in zip(group, got):
            dense = _dense_per_cut(rho)
            assert np.max(np.abs(row - dense)) <= 1e-12, dims


@pytest.mark.parametrize("stack_bytes", [None, 1])
def test_mixed_stack_rows_equal_their_one_state_calls(stack_bytes, monkeypatch):
    # rank 3, pure and full rank on (2,)^7: the Gram, resolvent, Schmidt and
    # dense branches in one stack, the pure state between the two mixed
    # ones, so that the dense branch gathers from a subset of the stack
    dims = (2,) * 7
    group = [
        ginibre_mixed(dims, 3, substream(0, "mixed-stack-r3")),
        haar_pure(dims, substream(0, "mixed-stack-pure")),
        ginibre_mixed(dims, 128, substream(0, "mixed-stack-full")),
    ]
    mats = np.stack([np.asarray(rho.mat) for rho in group])
    if stack_bytes is not None:
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
    alone = [phi_module._cut_divergences(m[None], dims)[0] for m in mats]
    taken, dense_sizes = set(), []
    for name in ("schmidt", "gram", "resolvent", "dense"):
        fn = getattr(phi_module, f"_{name}_midpoint")

        def spy(*args, _fn=fn, _name=name):
            taken.add(_name)
            if _name == "dense":
                dense_sizes.append(args[0].nbytes)
            return _fn(*args)

        monkeypatch.setattr(phi_module, f"_{name}_midpoint", spy)
    got = phi_module._cut_divergences(mats, dims)
    assert taken == {"schmidt", "gram", "resolvent", "dense"}
    for row, want in zip(got, alone):
        assert np.array_equal(row, want)
    # the dense-only gather stays within the stack cap
    one = mats[0].nbytes
    assert dense_sizes and max(dense_sizes) <= max(divergence_module._STACK_BYTES, one)


def test_stacked_partition_divergences_match_per_state(monkeypatch):
    stacks = _stacks(list(PARTITION_STATES.values()) + STACK_STATES[-3:])
    results = []
    for dims, group, mats in stacks:
        parts = enumerate_partitions(len(dims))
        got = phi_module._partition_divergences(mats, dims, parts)
        for rho, row in zip(group, got):
            assert np.max(np.abs(row - partition_divergences(rho, parts))) <= 1e-12, dims
        results.append(got)
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    for (dims, _, mats), got in zip(stacks, results):
        parts = enumerate_partitions(len(dims))
        assert np.array_equal(phi_module._partition_divergences(mats, dims, parts), got)


def test_marginal_sigma_star_is_built_on_first_access(monkeypatch):
    rho = ORACLE_STATES["full-222"][0]
    built = []
    real = phi_module.product_of_marginals

    def spy(state, cut):
        built.append(cut)
        return real(state, cut)

    monkeypatch.setattr(phi_module, "product_of_marginals", spy)
    res = phi(rho)
    assert built == []
    sigma = res.sigma_star
    assert built == [res.optimal_cut]
    assert res.sigma_star is sigma and len(built) == 1
    assert np.array_equal(np.asarray(sigma.mat), np.asarray(real(rho, res.optimal_cut).mat))
