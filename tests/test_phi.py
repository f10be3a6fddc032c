import importlib

import numpy as np
import pytest

from qphi.divergence import LN2, qjsd
from qphi.errors import (
    BadParameter,
    InvalidPartition,
    SearchBudgetExceeded,
    SingleSubsystem,
)
from qphi.phi import (
    TIE_TOL,
    as_partition,
    convexity_check,
    divergence_for_partition,
    enumerate_partitions,
    lipschitz_check,
    merge_blocks,
    merge_inequality_check,
    min_over_partitions,
    phi,
)
from qphi.states import (
    Bipartition,
    DensityMatrix,
    bell,
    enumerate_bipartitions,
    ghz,
    ginibre_mixed,
    haar_pure,
    maximally_mixed,
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
    with pytest.raises(SearchBudgetExceeded):
        phi(ghz(3), n_cap=2)
    with pytest.raises(BadParameter):
        phi(bell(), "fancy")


def test_optimized_mode_never_exceeds_marginal():
    for seed in (0, 1, 2):
        rho = ginibre_mixed((2, 2), 4, substream(seed, "phi-opt"))
        res = phi(rho, "optimized")
        assert res.phi <= res.phi_marginal + 1e-12
        assert res.phi_refined is not None
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


def test_lipschitz_check_reports():
    a = ginibre_mixed((2, 2), 4, substream(17, "lip-a"))
    b = ginibre_mixed((2, 2), 4, substream(17, "lip-b"))
    rep = lipschitz_check(a, b)
    assert rep.violation == pytest.approx(rep.lhs - rep.rhs, abs=1e-15)
    assert rep.rhs >= 0.0
    zero = lipschitz_check(a, a)
    assert zero.lhs == 0.0 and zero.rhs == pytest.approx(0.0, abs=1e-9)


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
    }


ORACLE_STATES = _oracle_states()
# the module, not the function the package exports under the same name
phi_module = importlib.import_module("qphi.phi")


@pytest.mark.parametrize("label", sorted(ORACLE_STATES))
def test_per_cut_values_match_dense_qjsd(label):
    rho, _ = ORACLE_STATES[label]
    cuts = enumerate_bipartitions(rho.n)
    dense = [qjsd(rho, product_of_marginals(rho, cut)) for cut in cuts]
    res = phi(rho)
    assert [c for c, _ in res.per_cut] == cuts
    for (cut, got), want in zip(res.per_cut, dense):
        assert abs(got - want) <= 1e-12, (cut.as_lists(), got, want)
    vmin = min(dense)
    assert abs(res.phi - vmin) <= 1e-12
    ties = tuple(c for c, v in zip(cuts, dense) if v <= vmin + TIE_TOL)
    assert res.ties == ties
    assert res.optimal_cut == ties[0]


def test_each_state_takes_the_expected_branches(monkeypatch):
    taken = set()
    for name in ("schmidt", "gram", "dense"):
        fn = getattr(phi_module, f"_{name}_midpoint")

        def spy(*args, _fn=fn, _name=name):
            taken.add(_name)
            return _fn(*args)

        monkeypatch.setattr(phi_module, f"_{name}_midpoint", spy)
    for label, (rho, branches) in ORACLE_STATES.items():
        taken.clear()
        phi(rho)
        assert taken == branches, label
