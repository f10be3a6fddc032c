import importlib
import itertools
import time
import tracemalloc

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
    _assemble_raw,
    _partial_trace_raw,
    _permute_raw,
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
    # one subsystem has no partition, so the exhaustive minimum has no entry
    with pytest.raises(SingleSubsystem):
        min_over_partitions(maximally_mixed((4,)))
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


def test_partition_blocks_that_are_not_lists_are_invalid():
    with pytest.raises(InvalidPartition, match="must be a list of blocks"):
        as_partition(5, 3)
    with pytest.raises(InvalidPartition, match="must be a list of integers"):
        as_partition([0, [1, 2]], 3)


def test_bipartition_divergences_match_phi_per_cut():
    # full rank, so every cut takes the dense form; the last three layouts
    # put 2- and 3-dimensional factors on both sides of some cut
    states = [ginibre_mixed((2, 2, 2), 8, substream(5, "phi-k"))] + [
        ginibre_mixed(dims, int(np.prod(dims)), substream(5, f"phi-k-{dims}"))
        for dims in ((2, 3, 2), (3, 2, 2, 2), (2, 3, 2, 3))
    ]
    for rho in states:
        res = phi(rho)
        for cut, val in res.per_cut:
            p = as_partition(cut.as_lists(), rho.n)
            assert divergence_for_partition(rho, p) == pytest.approx(val, abs=1e-12), rho.dims


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


def _ghz_pm(n: int) -> np.ndarray:
    """The equal mixture of the two GHZ states of n qubits."""
    m = np.array(ghz(n).mat)
    m[0, -1] = m[-1, 0] = 0.0
    return m


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
        # rank 5 of 64, at the Gram matrix's size boundary: the d_A = 2 cuts
        # keep 2 x 10 marginal eigenvalues, so 5 + 20 < 64 and they take the
        # Gram matrix; the d_A = 4 and 8 cuts have full-rank marginals, so the
        # Gram matrix is not smaller than m, and D = 64 is too small for the
        # resolvent, so they take the dense midpoint
        "rank5-2^6": (ginibre_mixed((2,) * 6, 5, seed("r5-2^6")), {"gram", "dense"}),
        # GHZ+- (GHZ with its corner coherences zeroed), rank 2: every cut has
        # the same value, so ``ties`` and ``optimal_cut`` see any round-off
        "ghz-pm-2^5": (DensityMatrix((2,) * 5, _ghz_pm(5)), {"gram"}),
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


# the function each form of a cut's S(m) runs through
_FORMS = {
    "schmidt": "_schmidt_midpoint",
    "gram": "_gram_midpoint",
    "resolvent": "_resolvent_midpoint",
    "dense": "_dense_entropies",
}


def _spy_forms(monkeypatch):
    """Spy on the cut kernel's forms and on its dense midpoint stacks: the
    set of the forms taken, and a list with, per call of the batching kernel
    (``_stacked_entropies``) from phi, the (buffer id, bytes) of each stack
    it eigensolves."""
    taken, calls = set(), []
    for name, attr in _FORMS.items():

        def spy(*args, _fn=getattr(phi_module, attr), _name=name):
            taken.add(_name)
            return _fn(*args)

        monkeypatch.setattr(phi_module, attr, spy)
    kernel = phi_module._stacked_entropies

    def kernel_spy(count, items, fill, dim, dtype):
        stacks = []
        calls.append(stacks)

        def fill_spy(chunk, part, rows):
            stacks.append((id(chunk.base), chunk.nbytes))
            fill(chunk, part, rows)

        return kernel(count, items, fill_spy, dim, dtype)

    monkeypatch.setattr(phi_module, "_stacked_entropies", kernel_spy)
    return taken, calls


def test_each_state_takes_the_expected_branches(monkeypatch):
    taken, _ = _spy_forms(monkeypatch)
    for label, (rho, branches) in ORACLE_STATES.items():
        taken.clear()
        phi(rho)
        assert taken == branches, label


def _fast_against_qjsd(rho: DensityMatrix, stride: int, branch: str):
    """(fast-branch value, dense qjsd) of every stride-th of the cuts that
    ``branch`` ("gram" or "resolvent") applies to, with the branch called
    directly on the kernel's sigma-basis form, whatever ``_resolvent_pays``
    says; also the smallest ratio of a kept marginal eigenvalue to ``_rank``'s
    floor."""
    mat = np.asarray(rho.mat)
    w, v = np.linalg.eigh(mat)
    r = int(phi_module._rank(w))
    x = v[:, -r:] * np.sqrt(w[-r:])
    base = np.arange(rho.dim).reshape(rho.dims)
    found = []
    for cut in enumerate_bipartitions(rho.n):
        marg = (_partial_trace_raw(mat, rho.dims, side) for side in cut.as_lists())
        (wa, ua), (wb, ub) = (np.linalg.eigh(m) for m in marg)
        kept = phi_module._rank(wa) * phi_module._rank(wb)
        if kept == rho.dim if branch == "resolvent" else r + kept < rho.dim:
            found.append((cut, wa, ua, wb, ub))
    pairs, margin = [], np.inf
    for cut, wa, ua, wb, ub in found[::stride]:
        for ws in (wa, wb):
            margin = min(margin, ws[phi_module._kept(ws)][0] / (ws.size * phi_module._EPS * ws[-1]))
        perm = base.transpose(sum(cut.as_lists(), [])).reshape(-1)
        form = phi_module._sigma_basis(x[perm], ua, ub, wa, wb)
        s_mid = getattr(phi_module, f"_{branch}_midpoint")(*form)
        got = s_mid - 0.5 * (entropies(w) + entropies(wa) + entropies(wb))
        pairs.append((got, qjsd(rho, product_of_marginals(rho, cut))))
    return pairs, margin


def _near_floor_state() -> DensityMatrix:
    """Rank 3 of 128 plus 1e-11 of a rank-8 state: the d_A = 4 marginals are
    full rank with smallest eigenvalues about 13 times ``_rank``'s floor, so
    ln a_min, and the node range, are near their widest; the d_A = 2 cuts
    take the Gram branch, and the smallest marginal eigenvalues they keep are
    about 40 times the floor."""
    low = np.asarray(ginibre_mixed((2,) * 7, 3, substream(0, "floor-low")).mat)
    fill = np.asarray(ginibre_mixed((2,) * 7, 8, substream(0, "floor-fill")).mat)
    m = (1 - 1e-11) * low + 1e-11 * fill
    return DensityMatrix((2,) * 7, (m + m.conj().T) / 2.0)


# (dims, rank, stride) of Ginibre states whose cuts take both fast branches;
# a Gram case's id is tagged, a resolvent case's id is pytest's plain one
_FAST_CASES = [(dims, rank, 3) for dims in ((2,) * 7, (3, 3, 2, 2, 2, 2)) for rank in (2, 3, 4, 8)]
# a sample of the 127 cuts at D = 256, to keep the dense references short
_FAST_CASES.append(((2,) * 8, 4, 9))


@pytest.mark.parametrize(
    "dims, rank, stride, branch",
    [
        pytest.param(dims, rank, stride, branch, id=f"{tag}dims{k}-{rank}-{stride}")
        for branch, tag in (("resolvent", ""), ("gram", "gram-"))
        for k, (dims, rank, stride) in enumerate(_FAST_CASES)
    ],
)
def test_resolvent_branch_matches_dense_qjsd(dims, rank, stride, branch):
    rho = ginibre_mixed(dims, rank, substream(rank, f"resolvent-{dims}"))
    pairs, _ = _fast_against_qjsd(rho, stride, branch)
    assert len(pairs) >= 3
    for got, want in pairs:
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize(
    "branch, top", [("resolvent", 30.0), ("gram", 100.0)], ids=["resolvent", "gram"]
)
def test_fast_branches_hold_near_the_rank_floor(branch, top):
    pairs, margin = _fast_against_qjsd(_near_floor_state(), 2, branch)
    assert pairs and 3.0 <= margin <= top
    for got, want in pairs:
        assert abs(got - want) <= 1e-12


# low-rank states whose smaller sides' partners are thin (r d_A < d_B): the
# (2,)^7 layout's d_A = 2 and 4 cuts, and (3,3,2,2,2,2)'s d_A = 2, 3, 4 and 6
# cuts at rank 2 and 3 (2, 3 and 4 at rank 4); the oracle's rank-3 state
# shares its cached dense references
THIN_STATES = {
    f"rank{rank}-{tag}": ginibre_mixed(dims, rank, substream(rank, f"thin-{dims}"))
    for tag, dims in (("2^7", (2,) * 7), ("332222", (3, 3, 2, 2, 2, 2)))
    for rank in (2, 3, 4)
    if (tag, rank) != ("2^7", 3)
}
THIN_STATES["rank3-2^7"] = ORACLE_STATES["rank3-2^7"][0]
THIN_STATES["near-floor"] = _near_floor_state()
# rank 14 of (2,)^6: the d_A = 2 cuts have a thin side of 32, but
# 14 + 2 * 28 >= 64, so they take the dense form, with rho_B = Y Y^dag
THIN_STATES["rank14-2^6"] = ginibre_mixed((2,) * 6, 14, substream(0, "thin-dense"))


@pytest.mark.parametrize("label", sorted(THIN_STATES))
def test_thin_sides_match_dense_qjsd_and_are_never_formed(label, monkeypatch):
    rho = THIN_STATES[label]
    mat, dim = np.asarray(rho.mat), rho.dim
    dense = _dense_per_cut(rho)
    r = int(phi_module._rank(np.linalg.eigh(mat)[0]))
    traced, solved = [], []
    trace, eigh = phi_module._partial_trace_raw, np.linalg.eigh

    def trace_spy(m, dims, keep):
        traced.append(int(np.prod([dims[i] for i in keep])))
        return trace(m, dims, keep)

    def eigh_spy(a):
        solved.append(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(phi_module, "_partial_trace_raw", trace_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    got = phi_module._cut_divergences(mat[None], rho.dims)[0]
    monkeypatch.undo()
    assert np.max(np.abs(got - dense)) <= 1e-12

    def thin(d):
        return r * (dim // d) < d

    sides = {int(np.prod([rho.dims[i] for i in side])) for c in enumerate_bipartitions(rho.n)
             for side in c.as_lists()}
    assert any(thin(d) for d in sides)
    # no thin side is traced or eigensolved; nor is the state itself, at size
    # D, unless its rank is past the range finder's D/8 columns
    assert traced and not any(thin(d) for d in traced)
    assert solved.count(dim) == (r >= dim // 8) and not any(thin(d) for d in solved if d < dim)
    # each thin side's spectrum comes from the Gram matrices of size r d_A
    assert {r * (dim // d) for d in sides if thin(d)} <= set(solved)


def test_low_rank_runs_at_d256_score_many_cuts_a_chunk_within_the_stack_cap(monkeypatch):
    # the benchmark's low-rank layout: rank 4 of (2,)^8
    rho = ginibre_mixed((2,) * 8, 4, substream(0, "chunks-2^8"))
    mat = np.asarray(rho.mat)
    want = phi_module._cut_divergences(mat[None], rho.dims)
    chunks, sizes, eigh_dims = [], [], []
    low_rank = phi_module._low_rank_cuts

    def chunk_spy(states, x, *args):
        chunks.append(x.shape[1])
        return low_rank(states, x, *args)

    monkeypatch.setattr(phi_module, "_low_rank_cuts", chunk_spy)
    for name in ("eigh", "eigvalsh", "solve"):

        def spy(*arrays, _fn=getattr(np.linalg, name), _name=name):
            sizes.extend(a.nbytes for a in arrays)
            if _name == "eigh":
                eigh_dims.append(arrays[0].shape[-1])
            return _fn(*arrays)

        monkeypatch.setattr(np.linalg, name, spy)
    got = phi_module._cut_divergences(mat[None], rho.dims)
    monkeypatch.undo()
    assert np.array_equal(got, want)
    assert sum(chunks) == 127 and max(chunks) > 1
    assert max(sizes) <= divergence_module._STACK_BYTES
    # the d_B = 128 and 64 sides of the d_A = 2 and 4 cuts are thin
    assert not {64, 128} & set(eigh_dims)
    cuts = enumerate_bipartitions(rho.n)
    thin = [k for k, c in enumerate(cuts) if min(len(c.as_lists()[0]), 8 - len(c.as_lists()[0])) <= 2]
    for k in thin[::4]:
        assert abs(got[0, k] - qjsd(rho, product_of_marginals(rho, cuts[k]))) <= 1e-12


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
# the factor of rho: range finder, eigvalsh, eigh


def _route_states():
    out = {}
    for tag, dims in (("2^6", (2,) * 6), ("2^7", (2,) * 7), ("2^8", (2,) * 8), ("332222", (3, 3, 2, 2, 2, 2))):
        for rank in (1, 2, 3, 4, 8, 40):
            out[f"rank{rank}-{tag}"] = ginibre_mixed(dims, rank, substream(rank, f"route-{tag}"))
        out[f"haar-{tag}"] = haar_pure(dims, substream(0, f"route-{tag}"))
    # full rank, but 1/tr rho^2 is about 1.2: the range finder tries them
    # and refuses, and they take the dense form
    flat = np.eye(256) / 256
    out["noisy-ghz8"] = DensityMatrix((2,) * 8, 0.9 * np.asarray(ghz(8).mat) + 0.1 * flat)
    out["noisy-w8"] = DensityMatrix((2,) * 8, 0.9 * np.asarray(w_state(8).mat) + 0.1 * flat)
    return out


ROUTE_STATES = _route_states()


def _sampled_dense(rho: DensityMatrix):
    """The cut positions the factor tests check, every cut at D <= 72 and
    eight at larger D, and their dense qjsd values."""
    cuts = enumerate_bipartitions(rho.n)
    picked = list(range(0, len(cuts), -(-len(cuts) // 8)))
    if rho.dim <= 72:
        return picked, [_dense_per_cut(rho)[k] for k in picked]
    return picked, [qjsd(rho, product_of_marginals(rho, cuts[k])) for k in picked]


def _eigh_sizes(monkeypatch):
    """Spy on np.linalg.eigh: the list of the sizes it is called at."""
    sizes, eigh = [], np.linalg.eigh

    def spy(a):
        sizes.append(a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


@pytest.mark.parametrize("label", sorted(ROUTE_STATES))
def test_each_factor_route_matches_dense_qjsd_and_solves_rho_only_where_read(label, monkeypatch):
    rho = ROUTE_STATES[label]
    mat, dim = np.asarray(rho.mat), rho.dim
    w = np.linalg.eigvalsh(mat)
    rank = int(phi_module._rank(w))
    # the range finder doubles 8 columns up to D/8, so it reaches rank < k_max
    k_max = 8 * 2 ** int(np.log2(dim // 64))
    found = phi_module._sketch(mat[None])[0]
    accepted = found is not None
    assert accepted == (rank < k_max and np.sum(w * w) * dim >= 8.0), label
    if accepted:
        assert found[0].size == rank and np.max(np.abs(found[0] - w[-rank:])) <= 1e-15
    sizes = _eigh_sizes(monkeypatch)
    got = phi_module._cut_divergences(mat[None], rho.dims)[0]
    monkeypatch.undo()
    # rho is eigensolved at size D only for its eigenvectors, 2r < D, and
    # only where the range finder did not give them
    assert sizes.count(dim) == (0 if accepted or 2 * rank >= dim else 1), label
    picked, dense = _sampled_dense(rho)
    assert np.max(np.abs(got[picked] - dense)) <= 1e-12, label


# states the range finder accepts, one per kind of form they reach
SKETCHED = ["rank8-2^7", "haar-2^7", "rank3-332222", "rank4-2^8"]


@pytest.mark.parametrize("label", SKETCHED)
def test_a_refused_range_finder_gives_the_eigh_route_bit_for_bit(label, monkeypatch):
    rho = ROUTE_STATES[label]
    mat = np.asarray(rho.mat)[None]
    sketched = phi_module._cut_divergences(mat, rho.dims)
    # with the range finder gone, the state takes eigvalsh, then eigh
    monkeypatch.setattr(phi_module, "_sketch", lambda mats: [None] * len(mats))
    want = phi_module._cut_divergences(mat, rho.dims)
    monkeypatch.undo()
    monkeypatch.setattr(phi_module, "_SKETCH_TOL", 0.0)
    sizes = _eigh_sizes(monkeypatch)
    got = phi_module._cut_divergences(mat, rho.dims)
    assert sizes.count(rho.dim) == 1
    assert np.array_equal(got, want)
    assert np.max(np.abs(got - sketched)) <= 1e-12


@pytest.mark.parametrize("label", SKETCHED)
def test_range_finder_values_are_deterministic_and_free_of_its_seed(label, monkeypatch):
    rho = ROUTE_STATES[label]
    mat = np.asarray(rho.mat)[None]
    got = phi_module._cut_divergences(mat, rho.dims)
    assert phi_module._cut_divergences(mat, rho.dims).tobytes() == got.tobytes()
    monkeypatch.setattr(phi_module, "_SKETCH_SEED", 1)
    assert phi_module._sketch(mat)[0] is not None
    assert np.max(np.abs(phi_module._cut_divergences(mat, rho.dims) - got)) <= 1e-13


def test_range_finder_holds_its_temporaries_under_twice_rho():
    # rank 4 of (2,)^10, D = 1024: rho is 16 MB, and the range finder's
    # residual check and purity gate need no D x D temporary
    mats = np.asarray(ginibre_mixed((2,) * 10, 4, substream(0, "sketch-peak")).mat)[None]
    tracemalloc.start()
    try:
        s_rho, rank, x = phi_module._factors(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank.tolist() == [4] and x.shape == (1, 1024, 4)
    assert peak <= 2 * mats.nbytes
    assert s_rho[0] == entropies(phi_module._sketch(mats)[0][0])


def _normals_unblocked(count: int, seed: int) -> np.ndarray:
    """The splitmix64 and Box-Muller formula of ``_normals``, on all 2 count
    counters at once."""
    z = np.arange(2 * count, dtype=np.uint64) + np.uint64((seed << 32) + 1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(float) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log1p(-u[:count])) * np.cos(2.0 * np.pi * u[count:])


@pytest.mark.parametrize("seed", [0, 7])
def test_blocked_normals_equal_the_unblocked_formula(seed):
    block = divergence_module._STACK_BYTES // 16  # draws per block
    for count in (0, 1, 5, block - 1, block, block + 1, 2 * block + 3):
        assert np.array_equal(phi_module._normals(count, seed), _normals_unblocked(count, seed)), count


def test_normals_hold_at_most_2mb_beyond_their_output():
    # the test matrix of the range finder at D = 1024: 2 MB of normals
    count = 2 * 1024 * 128
    tracemalloc.start()
    try:
        out = phi_module._normals(count, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (2 << 20)


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


def _plan_sides(dims, cut: Bipartition):
    """The cut's two sides as the cut plan orders them, smaller first: the
    order in which the refinement takes them."""
    k = enumerate_bipartitions(len(dims)).index(cut)
    plan = phi_module._cut_plan(tuple(dims), 1 << 20)
    return next(sides[index.index(k)] for _, index, sides in plan if k in index)


def _refine_one(rho: DensityMatrix, cut: Bipartition):
    """(value, sigma, steps) of one refinement chain: rho on the cut, its
    sides in the plan's order."""
    sides = _plan_sides(rho.dims, cut)
    mats = np.asarray(rho.mat)[None]
    value, sa, sb, steps, _, _ = phi_module._refine_products(mats, rho.dims, [sides])
    return float(value[0]), assemble_on_subsets([sa[0], sb[0]], sides, rho.layout), int(steps[0])


@pytest.mark.parametrize("label", sorted(OPT_STATES))
def test_optimized_phi_is_the_minimum_over_every_refined_cut(label):
    rho = OPT_STATES[label]
    res = phi(rho, "optimized")
    assert res.phi <= res.phi_marginal
    refined = [_refine_one(rho, cut)[0] for cut in enumerate_bipartitions(rho.n)]
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
    tied = _refine_one(rho, res.ties[0])[0]
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
    val, sigma, steps = _refine_one(rho, Bipartition.of([0], 3))
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


def test_stacked_refinement_rows_equal_their_one_state_calls():
    # full rank, rank 2 and pure on (2,2,2): their chains stop after
    # different step counts, and GHZ's refined values end a round-off above
    # its marginal ones
    dims = (2, 2, 2)
    group = [
        ginibre_mixed(dims, 8, substream(0, "stacked-refine-full")),
        ginibre_mixed(dims, 2, substream(0, "stacked-refine-rank2")),
        haar_pure(dims, substream(0, "stacked-refine-pure")),
        ghz(3),
    ]
    mats = np.stack([np.asarray(rho.mat) for rho in group])
    marginal = phi_module._cut_divergences(mats, dims)
    values, _, _, steps, _, _ = phi_module._refine_products(mats, dims, [([0], [1, 2])])
    assert len(set(steps.tolist())) == len(group)
    assert values[3] > marginal[3, 0]
    got = phi_module._phis(mats, dims, "optimized")
    for rho, value in zip(group, got):
        assert value == phi(DensityMatrix(dims, rho.mat), "optimized").phi
    assert np.all(got <= phi_module._phis(mats, dims, "marginal"))
    # on (2,2,2,2) _refine_cuts runs the cuts of one smaller-side dimension in
    # one call, on the cut's sides in the plan's order, and every (state, cut)
    # chain of it gives the value, sigma_A, sigma_B, step count, H_A and H_B
    # of its one-chain call there; its table caps each value at the marginal
    dims = (2, 2, 2, 2)
    mats = np.stack([np.asarray(rho.mat) for rho in OPT_STATES.values() if rho.dims == dims])
    marginal = phi_module._cut_divergences(mats, dims)
    capped, chains = phi_module._refine_cuts(mats, dims, marginal)
    assert capped.shape == marginal.shape
    for k, cut in enumerate(enumerate_bipartitions(len(dims))):
        # the three states fit one call, so each cut has one record
        ((sides, *refined),) = chains[k]
        assert sides == _plan_sides(dims, cut)
        for i in range(len(mats)):
            one = phi_module._refine_products(mats[i:i + 1], dims, [sides])
            assert all(np.array_equal(got[i:i + 1], want) for got, want in zip(refined, one))
            assert capped[i, k] == np.minimum(marginal[i, k], one[0][0])
    # a group of three cuts whose chains on one state stop at three step counts
    steps = np.stack([c[0][4] for c in chains], axis=1)
    plan = phi_module._cut_plan(dims, divergence_module._stack_len(16))
    assert any(
        len(index) >= 3 and len(set(steps[i, list(index)].tolist())) == len(index)
        for _, index, _ in plan
        for i in range(len(mats))
    )


def test_optimized_mode_refines_each_group_of_cuts_in_one_call(monkeypatch):
    refine, calls, solved = phi_module._refine_products, [], []
    eigvalsh = np.linalg.eigvalsh

    def record(mats, dims, cuts, start=None):
        calls.append((len(mats), [int(np.prod([dims[i] for i in a])) for a, _ in cuts]))
        solved.clear()
        got = refine(mats, dims, cuts, start)
        # S(rho) from one eigvalsh of the states, whatever the number of cuts
        assert [a.shape for a in solved] == [mats.shape]
        return got

    def eig_spy(a):
        solved.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(phi_module, "_refine_products", record)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig_spy)
    # full-rank 2^5: 15 cuts, one call per smaller-side dimension 2 and 4
    phi(ginibre_mixed((2,) * 5, 32, substream(0, "call-shape-2^5")), "optimized")
    assert sorted(calls) == [(1, [2] * 5), (1, [4] * 10)]
    # a cap of one chain a call, and of two, which splits the four-cut group
    # into two pairs of cuts and the three-cut group into a pair and one cut:
    # no call takes more chains than the cap, and the values stay bit-equal
    dims = (2, 2, 2, 2)
    mats = np.stack([np.asarray(rho.mat) for rho in OPT_STATES.values() if rho.dims == dims])
    want = phi_module._phis(mats, dims, "optimized")
    for chains in (1, 2):
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", chains * 16 * 16 * 16)
        calls.clear()
        assert np.array_equal(phi_module._phis(mats, dims, "optimized"), want)
        assert divergence_module._stack_len(16) == chains
        assert max(s * len(d) for s, d in calls) == chains
        # 7 cuts x 3 states; or 3 calls for each pair of cuts and 2 for the
        # last cut, whose states go two a call
        assert len(calls) == (21 if chains == 1 else 3 * 3 + 2)


@pytest.mark.parametrize("label", ["full-222", "rank2-222", "full-232"])
def test_probe_start_spread_equals_its_one_chain_reruns(label, monkeypatch):
    rho = OPT_STATES[label]
    res = phi(rho, "optimized")
    sides = _plan_sides(rho.dims, res.optimal_cut)
    # rank2-222's optimal cut {0,2}|{1} and full-232's {0,1}|{2} have their
    # smaller side second in canonical order; the refinement takes it first,
    # and sigma_star and the probe starts are built on the sides it ran on
    assert (sides[0] != tuple(res.optimal_cut.as_lists()[0])) == (label != "full-222")
    assert abs(qjsd(rho, res.sigma_star) - res.phi) <= 1e-12
    mats = np.asarray(rho.mat)[None]
    hopt = phi_module._refine_products(mats, rho.dims, [sides])[4:]
    # each start perturbs H_A, then H_B, by a hermitian draw: the real part,
    # then the imaginary part, from one stream seeded 0
    rng, devs = np.random.default_rng(0), []
    for _ in range(3):
        start = []
        for h in hopt:
            g = rng.standard_normal(h.shape[1:]) + 1j * rng.standard_normal(h.shape[1:])
            start.append(h + 0.025 * (g + g.conj().T))
        _, sa, sb, _, _, _ = phi_module._refine_products(mats, rho.dims, [sides], start)
        sigma = assemble_on_subsets([sa[0], sb[0]], sides, rho.layout)
        devs.append(np.max(np.abs(sigma.mat - res.sigma_star.mat)))
    assert phi(rho, "optimized", probe_starts=3).refinement_spread == max(devs)
    # a cap of two chains a call puts the third start in a call of its own
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 2 * 16 * rho.dim * rho.dim)
    assert phi(rho, "optimized", probe_starts=3).refinement_spread == max(devs)


def test_probe_starts_solve_the_state_once(monkeypatch):
    # the probe call runs its three chains on the one state, not on three
    # copies of it, so S(rho) takes one eigvalsh of size D
    rho = OPT_STATES["full-222"]
    refine, eigvalsh, probes = phi_module._refine_products, np.linalg.eigvalsh, []

    def record(mats, dims, cuts, start=None):
        if start is not None:
            probes.append((mats.shape, len(cuts), []))
        got = refine(mats, dims, cuts, start)
        if start is not None:
            probes.append(None)
        return got

    def eig_spy(a):
        if probes and probes[-1] is not None:
            probes[-1][2].append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(phi_module, "_refine_products", record)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig_spy)
    phi(rho, "optimized", probe_starts=3)
    ((shape, chains, solved), _) = probes
    assert shape == (1, rho.dim, rho.dim) and chains == 3
    assert [s for s in solved if s[-1] == rho.dim] == [(1, rho.dim, rho.dim)]


def test_refinement_without_halvings_stops_every_chain_at_its_start(monkeypatch):
    # with no trial to make, each chain takes 0 steps and returns the value
    # and factors of its start: the floored marginals, or the given H_A and H_B
    dims = (2, 2, 2)
    mats = np.stack([np.asarray(rho.mat) for rho in OPT_STATES.values() if rho.dims == dims])
    cuts = [([0, 1], [2]), ([0, 2], [1])]
    chains = list(itertools.product([DensityMatrix(dims, m) for m in mats], cuts))
    monkeypatch.setattr(phi_module, "_MAX_HALVINGS", 0)
    value, sa, sb, steps, ha, hb = phi_module._refine_products(mats, dims, cuts)
    assert np.all(steps == 0)
    marginal = phi_module._cut_divergences(mats, dims)[:, 1:].reshape(-1)
    assert np.max(np.abs(value - marginal)) <= 1e-10
    for k, (rho, (a, b)) in enumerate(chains):
        assert np.max(np.abs(sa[k] - partial_trace(rho, a).mat)) <= 1e-10
        assert np.max(np.abs(sb[k] - partial_trace(rho, b).mat)) <= 1e-10
    rng, start = np.random.default_rng(1), []
    for h in (ha, hb):
        g = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        start.append(g + np.swapaxes(g.conj(), -1, -2))
    value, sa, sb, steps, ha, hb = phi_module._refine_products(mats, dims, cuts, start)
    assert np.all(steps == 0)
    assert np.array_equal(ha, start[0]) and np.array_equal(hb, start[1])
    for k, (rho, (a, b)) in enumerate(chains):
        for got, h in ((sa[k], start[0][k]), (sb[k], start[1][k])):
            w, v = np.linalg.eigh(h)
            p = np.exp(w - w[-1])
            assert np.max(np.abs(got - (v * (p / p.sum())) @ v.conj().T)) <= 1e-12
        sigma = assemble_on_subsets([sa[k], sb[k]], (a, b), rho.layout)
        assert abs(qjsd(rho, sigma) - value[k]) <= 1e-12


def test_refinement_runs_a_mixed_dtype_start_in_one_dtype():
    # a real state, a complex H_A and a real H_B: the chain runs as from the
    # same start with H_B made complex, and no write drops an imaginary part
    dims, cuts = (2, 2, 2), [([0], [1, 2])]
    mats = np.real(ghz(3).mat)[None].copy()
    ha, hb = phi_module._refine_products(mats, dims, cuts)[4:]
    g = 1j * np.random.default_rng(0).standard_normal(ha.shape)
    ha = ha + g + np.swapaxes(g.conj(), -1, -2)
    got = phi_module._refine_products(mats, dims, cuts, (ha, hb))
    want = phi_module._refine_products(mats, dims, cuts, (ha, hb.astype(complex)))
    assert got[4].dtype == got[5].dtype == complex
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
    # rank 3, pure and twice full rank on (2,)^7: the Gram, resolvent,
    # Schmidt and dense branches in one stack, the pure state between the
    # mixed ones, so that the dense branch solves a subset of the stack, and
    # two full-rank states, so that one run could outgrow the stack cap
    dims = (2,) * 7
    group = [
        ginibre_mixed(dims, 3, substream(0, "mixed-stack-r3")),
        haar_pure(dims, substream(0, "mixed-stack-pure")),
        ginibre_mixed(dims, 128, substream(0, "mixed-stack-full")),
        ginibre_mixed(dims, 128, substream(1, "mixed-stack-full")),
    ]
    mats = np.stack([np.asarray(rho.mat) for rho in group])
    if stack_bytes is not None:
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
    alone = [phi_module._cut_divergences(m[None], dims)[0] for m in mats]
    taken, calls = _spy_forms(monkeypatch)
    got = phi_module._cut_divergences(mats, dims)
    assert taken == {"schmidt", "gram", "resolvent", "dense"}
    for row, want in zip(got, alone):
        assert np.array_equal(row, want)
    # the stack of midpoints solved in one dense call stays within the stack cap
    dense_sizes = [size for call in calls for _, size in call]
    one = mats[0].nbytes
    assert dense_sizes and max(dense_sizes) <= max(divergence_module._STACK_BYTES, one)


def test_real_states_take_every_form_in_real_arithmetic(monkeypatch):
    # real symmetric states of rank 1 (Schmidt), 3 (Gram and resolvent), 100
    # and 128 (dense), scored as float64 and as the same matrices cast to complex
    dims = (2,) * 7
    rng = substream(0, "real-2^7")
    factors = [rng.standard_normal((128, r)) for r in (1, 3, 100, 128)]
    mats = np.stack([g @ g.T / np.sum(g * g) for g in factors])
    assert mats.dtype == np.float64
    taken, _ = _spy_forms(monkeypatch)
    got = phi_module._cut_divergences(mats, dims)
    assert taken == {"schmidt", "gram", "resolvent", "dense"}
    as_complex = phi_module._cut_divergences(mats.astype(complex), dims)
    assert np.max(np.abs(got - as_complex)) <= 1e-12
    for mat, row in zip(mats, got):
        dense = _dense_per_cut(DensityMatrix(dims, mat))
        assert np.max(np.abs(row - dense)) <= 1e-12


def _dense_reference(mats: np.ndarray, dims, states) -> np.ndarray:
    """The per-cut values of the given states of a stack, each midpoint
    formed out of place as (rho + sigma) / 2.0, sigma multiplied in the
    kernel's factor order; the spectra as the kernel takes them, S(rho)
    from eigvalsh."""
    s_rho = entropies(np.linalg.eigvalsh(mats))
    out = np.empty((len(states), 2 ** (len(dims) - 1) - 1))
    for _, index, sides in phi_module._cut_plan(tuple(dims), 1 << 20):
        for k, cut in zip(index, sides):
            for j, s in enumerate(states):
                marg = [_partial_trace_raw(mats[s], dims, side) for side in cut]
                sigma = _assemble_raw(marg, cut, dims)
                s_mid = entropies(np.linalg.eigvalsh((mats[s] + sigma) / 2.0))
                s_sigma = entropies(np.linalg.eigvalsh(marg[0])) + entropies(np.linalg.eigvalsh(marg[1]))
                out[j, k] = s_mid - 0.5 * s_rho[s] - 0.5 * s_sigma
    return out


# stacks whose states take the dense form on every cut (2r >= D), with the
# indices of those states: full rank on (2,3,2,3), rank 40 of 64, and rank 40
# and full rank beside a pure and a rank-3 state, so that the dense run
# covers only some of the stack
IN_PLACE_STACKS = {
    "full-2323": ([ginibre_mixed((2, 3, 2, 3), 36, substream(0, "in-place-2323"))], [0]),
    "rank40-2^6": ([ginibre_mixed((2,) * 6, 40, substream(0, "in-place-r40"))], [0]),
    "partial-run-2^6": (
        [
            haar_pure((2,) * 6, substream(0, "in-place-pure")),
            ginibre_mixed((2,) * 6, 40, substream(1, "in-place-r40")),
            ginibre_mixed((2,) * 6, 3, substream(0, "in-place-r3")),
            ginibre_mixed((2,) * 6, 64, substream(0, "in-place-full")),
        ],
        [1, 3],
    ),
}


@pytest.mark.parametrize("stack_bytes", [None, 3 * 16 * 64 * 64])
@pytest.mark.parametrize("label", sorted(IN_PLACE_STACKS))
def test_dense_midpoints_built_in_place_equal_the_out_of_place_ones(label, stack_bytes, monkeypatch):
    group, dense = IN_PLACE_STACKS[label]
    dims = group[0].dims
    mats = np.stack([np.asarray(rho.mat) for rho in group])
    if stack_bytes is not None:
        monkeypatch.setattr(divergence_module, "_STACK_BYTES", stack_bytes)
    _, calls = _spy_forms(monkeypatch)
    got = phi_module._cut_divergences(mats, dims)
    assert np.array_equal(got[dense], _dense_reference(mats, dims, dense))
    # one buffer per call of the batching kernel
    assert calls and all(len({b for b, _ in call}) == 1 for call in calls)
    # partitions: every sigma multiplied into one buffer
    parts = enumerate_partitions(len(dims))
    calls.clear()
    table = phi_module._partition_divergences(mats[dense], dims, parts)
    assert len(calls) == 1 and len({b for b, _ in calls[0]}) == 1
    states = mats[dense]
    s_rho = entropies(np.linalg.eigvalsh(states))
    for p, col in zip(parts, table.T):
        blocks = [sorted(b) for b in p.blocks]
        marg = [_partial_trace_raw(states, dims, b) for b in blocks]
        sigma = _assemble_raw(marg, blocks, dims)
        s_mid = entropies(np.linalg.eigvalsh((states + sigma) / 2.0))
        want = s_mid - 0.5 * s_rho - 0.5 * sum(entropies(np.linalg.eigvalsh(m)) for m in marg)
        assert np.array_equal(col, want), blocks


def _halving_stacks() -> dict:
    """Stacks of states on which the halved midpoints are checked: complex
    Ginibre states; noisy GHZ and W states (n = 3..6, p = 0.9 and 0.5), and
    the same with a sign flipped on the last amplitude, whose midpoints have
    exact zeros, some -0.0; and float64 states."""
    dims = (2, 3, 2)
    ginibre = np.stack([np.asarray(ginibre_mixed(dims, 12, substream(t, "halve")).mat) for t in range(4)])
    out = {"ginibre": (dims, ginibre), "real-ginibre": (dims, ginibre.real.copy())}
    for n in range(3, 7):
        noisy = []
        for make in (ghz, w_state):
            psi = np.linalg.eigh(np.asarray(make(n).mat))[1][:, -1].astype(complex)
            psi *= np.sign(psi[np.flatnonzero(psi)[0]])  # the first amplitude positive
            for sign in (1.0, -1.0):
                psi[np.flatnonzero(psi)[-1]] *= sign
                for p in (0.9, 0.5):
                    # the noise goes on the diagonal alone, so the -0.0
                    # imaginary parts of the outer product are kept
                    m = p * np.outer(psi, psi.conj())
                    m[np.diag_indices(2 ** n)] += (1 - p) / 2 ** n
                    noisy.append(m)
        out[f"noisy-n{n}"] = ((2,) * n, np.stack(noisy))
    out["real-noisy-n4"] = ((2,) * 4, out["noisy-n4"][1].real.copy())
    return out


HALVING_STACKS = _halving_stacks()


@pytest.mark.parametrize("label", sorted(HALVING_STACKS))
def test_midpoints_halved_in_place_have_the_spectra_of_the_divided_ones(label, monkeypatch):
    # both fillers halve by *= 0.5; each midpoint they fill has the
    # eigenvalues of (a + b) / 2.0 bit for bit, exact zeros and float64 too
    dims, mats = HALVING_STACKS[label]
    checked = []  # the midpoints compared, per item of a filled chunk

    def spy_on(module, divided):
        kernel = module._stacked_entropies

        def spy(count, items, fill, dim, dtype):
            def fill_spy(chunk, part, rows):
                fill(chunk, part, rows)
                for mid, item in zip(chunk, part):
                    want = divided(item, rows)
                    assert mid.dtype == want.dtype == mats.dtype
                    assert np.array_equal(np.linalg.eigvalsh(mid), np.linalg.eigvalsh(want)), item
                    checked.append(len(mid))

            return kernel(count, items, fill_spy, dim, dtype)

        monkeypatch.setattr(module, "_stacked_entropies", spy)

    # divergences: each state paired with the stack's last-first order
    pair = [mats, mats[::-1].copy()]
    spy_on(divergence_module, lambda ij, rows: (pair[ij[0]][rows] + pair[ij[1]][rows]) / 2.0)
    divergence_module._ensemble_entropies(pair)
    assert sum(checked) == 3 * len(mats)
    # phi: every cut's rho with sigma, the product of its marginals
    sides = [tuple(tuple(s) for s in cut.as_lists()) for cut in enumerate_bipartitions(len(dims))]
    marg = [[_partial_trace_raw(mats, dims, s) for s in cut] for cut in sides]

    def rho_sigma(c, rows):
        return (mats[rows] + _assemble_raw([m[rows] for m in marg[c]], sides[c], dims)) / 2.0

    spy_on(phi_module, rho_sigma)
    phi_module._dense_entropies(mats, marg, sides, list(range(len(sides))), dims)
    assert sum(checked) == (3 + len(sides)) * len(mats)


def test_dense_body_traces_each_block_once_and_solves_each_dimension_once(monkeypatch):
    # per dense chunk, closed by its midpoints' call: its block lists, the
    # blocks it traced and the dimensions of its eigvalsh calls
    chunks, traced, solved = [], [], []
    trace, eigvalsh, mids = phi_module._partial_trace_raw, np.linalg.eigvalsh, phi_module._dense_entropies

    def trace_spy(m, dims, keep):
        traced.append(tuple(keep))
        return trace(m, dims, keep)

    def eig_spy(a):
        solved.append(a.shape[-1])
        return eigvalsh(a)

    def mid_spy(states, marg, sides, cols, dims):
        chunks.append((list(sides), traced[:], solved[:]))
        traced.clear()
        solved.clear()
        return mids(states, marg, sides, cols, dims)

    monkeypatch.setattr(phi_module, "_partial_trace_raw", trace_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", eig_spy)
    monkeypatch.setattr(phi_module, "_dense_entropies", mid_spy)
    # full-rank (2,)^6: chunks of the 6, 15 and 10 cuts whose smaller sides
    # have d = 2, 4 and 8; the d = 8 cuts' two sides share one eigvalsh
    rho = ginibre_mixed((2,) * 6, 64, substream(0, "dense-body-2^6"))
    phi_module._cut_divergences(np.asarray(rho.mat)[None], rho.dims)
    assert [len(sides) for sides, _, _ in chunks] == [6, 15, 10]
    for sides, blocks, _ in chunks:
        assert sorted(blocks) == sorted(side for cut in sides for side in cut)
    assert [sorted(d for d in dims if d < 64) for _, _, dims in chunks] == [[2, 32], [4, 16], [8]]
    # the 14 partitions of (2,)^4 trace each of their 14 distinct blocks once
    # and solve them in one eigvalsh per block dimension 2, 4 and 8
    chunks.clear()
    rho = ginibre_mixed((2,) * 4, 16, substream(0, "dense-body-2^4"))
    parts = enumerate_partitions(4)
    phi_module._partition_divergences(np.asarray(rho.mat)[None], rho.dims, parts)
    ((_, blocks, dims),) = chunks
    assert len(parts) == 14
    assert sorted(blocks) == sorted({tuple(sorted(b)) for p in parts for b in p.blocks})
    assert len(blocks) == 14 and sorted(d for d in dims if d < 16) == [2, 4, 8]


def test_stacked_partition_divergences_match_per_state(monkeypatch):
    stacks = _stacks(list(PARTITION_STATES.values()) + STACK_STATES[-3:])
    results = []
    for dims, group, mats in stacks:
        parts = enumerate_partitions(len(dims))
        got = phi_module._partition_divergences(mats, dims, parts)
        for rho, row in zip(group, got):
            assert np.max(np.abs(row - partition_divergences(rho, parts))) <= 1e-12, dims
        results.append(got)
    # with the stack cap at one matrix, every midpoint stack handed to the
    # eigensolver holds one matrix, and the values keep their bits
    monkeypatch.setattr(divergence_module, "_STACK_BYTES", 1)
    _, calls = _spy_forms(monkeypatch)
    for (dims, _, mats), got in zip(stacks, results):
        parts = enumerate_partitions(len(dims))
        calls.clear()
        assert np.array_equal(phi_module._partition_divergences(mats, dims, parts), got)
        sizes = [size for call in calls for _, size in call]
        assert len(sizes) == len(mats) * len(parts) and max(sizes) == mats[0].nbytes, dims


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


@pytest.mark.parametrize(
    "rho, builder",
    [(OPT_STATES["full-222"], "assemble_on_subsets"), (ghz(3), "product_of_marginals")],
    ids=["refined", "capped"],
)
def test_optimized_sigma_star_is_built_on_first_access(rho, builder, monkeypatch):
    # sigma_star is the refined factors' product, or the marginals' where the
    # cut's refined value ends above its marginal one, as GHZ's does by a
    # round-off; neither is built until it is read
    built = []
    for name in ("assemble_on_subsets", "product_of_marginals"):
        real = getattr(phi_module, name)
        monkeypatch.setattr(
            phi_module, name, lambda *a, real=real, name=name: built.append(name) or real(*a)
        )
    res = phi(rho, "optimized")
    assert built == []
    sigma = res.sigma_star
    assert built == [builder]
    assert res.sigma_star is sigma and len(built) == 1
    value, refined, _ = _refine_one(rho, res.optimal_cut)
    capped = dict(res.per_cut)[res.optimal_cut] < value
    assert capped == (builder == "product_of_marginals")
    want = product_of_marginals(rho, res.optimal_cut) if capped else refined
    assert np.array_equal(np.asarray(sigma.mat), np.asarray(want.mat))
