import importlib
from itertools import combinations

import numpy as np
import pytest

from qphi.blanket import blanket_scan, petz_recover
from qphi.divergence import qjsd
from qphi.errors import (
    BadParameter,
    BadSize,
    DisjointnessViolation,
    IndexOutOfRange,
)
from qphi.states import (
    Bipartition,
    DensityMatrix,
    assemble_on_subsets,
    bell,
    ghz,
    ginibre_mixed,
    haar_pure,
    partial_trace,
    random_product,
    substream,
    tensor,
)

blanket_module = importlib.import_module("qphi.blanket")

# qjsd between GHZ3 and its blanket reconstruction (coherence across the
# rebuilt leg is lost); frozen from an independent evaluation
GHZ3_REBUILD_DIVERGENCE = 0.21576155433883576


def classical_markov_chain(p0=0.3, a=0.8, b=0.25) -> DensityMatrix:
    """Diagonal 3-bit state whose bit chain is 0 -> 1 -> 2 with flip biases."""
    diag = np.zeros(8)
    for x0 in (0, 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                pr = p0 if x0 == 0 else 1 - p0
                pr *= a if x1 == x0 else 1 - a
                pr *= b if x2 == x1 else 1 - b
                diag[(x0 << 2) | (x1 << 1) | x2] = pr
    return DensityMatrix((2, 2, 2), np.diag(diag).astype(complex))


def test_markov_chain_recovers_exactly():
    mc = classical_markov_chain()
    rec = petz_recover(mc, blanket=[1], rebuild=[2])
    assert np.max(np.abs(np.asarray(rec.mat) - np.asarray(mc.mat))) < 1e-12
    rec2 = petz_recover(mc, blanket=[1], rebuild=[0])
    assert np.max(np.abs(np.asarray(rec2.mat) - np.asarray(mc.mat))) < 1e-12


def test_product_state_recovers_exactly():
    cut = Bipartition.of([0, 1], 3)
    rho = random_product((2, 2, 2), cut, substream(3, "bl-prod"))
    rec = petz_recover(rho, blanket=[0, 1], rebuild=[2])
    assert np.max(np.abs(np.asarray(rec.mat) - np.asarray(rho.mat))) < 1e-10


def test_ghz_rebuild_loses_coherence():
    rho = ghz(3)
    rec = petz_recover(rho, blanket=[1], rebuild=[2])
    m = np.asarray(rec.mat)
    # populations survive, the |000><111| corner does not
    assert m[0, 0].real == pytest.approx(0.5, abs=1e-12)
    assert m[7, 7].real == pytest.approx(0.5, abs=1e-12)
    assert abs(m[0, 7]) < 1e-12
    assert qjsd(rho, rec) == pytest.approx(GHZ3_REBUILD_DIVERGENCE, abs=1e-9)


def test_petz_argument_validation():
    rho = ghz(3)
    with pytest.raises(BadParameter):
        petz_recover(rho, blanket=[], rebuild=[1])
    with pytest.raises(DisjointnessViolation):
        petz_recover(rho, blanket=[1], rebuild=[1, 2])
    with pytest.raises(IndexOutOfRange):
        petz_recover(rho, blanket=[5], rebuild=[1])


def test_petz_indices_are_checked_not_truncated():
    # 1.9 is refused, not read as subsystem 1; numpy integers are accepted
    rho = ghz(3)
    with pytest.raises(IndexOutOfRange, match="integer"):
        petz_recover(rho, blanket=[1.9], rebuild=[0])
    same = petz_recover(rho, blanket=[np.int64(1)], rebuild=[np.int64(0)])
    assert np.array_equal(same.mat, petz_recover(rho, blanket=[1], rebuild=[0]).mat)


@pytest.mark.parametrize("blanket, rebuild", [([1], [2]), ([0, 1], [2]), ([2], [0])])
def test_stacked_petz_rows_equal_their_one_state_calls(blanket, rebuild):
    states = [
        classical_markov_chain(),
        random_product((2, 2, 2), Bipartition.of([0, 1], 3), substream(3, "bl-stack")),
        ghz(3),
        ginibre_mixed((2, 2, 2), 8, substream(3, "bl-stack")),
    ]
    mats = np.stack([np.asarray(rho.mat) for rho in states])
    got = blanket_module._petz_stack(mats, (2, 2, 2), blanket, rebuild)
    for rho, row in zip(states, got):
        assert np.array_equal(row, petz_recover(rho, blanket, rebuild).mat)


def test_blanket_scan_on_product_finds_the_spectator():
    # sigma_{01} (x) tau_2: tracing the argmin through {2} costs nothing
    sigma = random_product((2, 2), Bipartition.of([0], 2), substream(4, "bl-s"))
    # build an entangled 01 block instead, so {2} is the only cheap blanket
    pair = bell()
    tau = partial_trace(random_product((2, 2), Bipartition.of([0], 2), substream(4, "bl-t")), [0])
    rho = tensor(pair, tau)
    res = blanket_scan(rho, 1)
    assert res.argmin == (2,)
    score_by_subset = dict(res.scores)
    assert score_by_subset[(2,)] <= 1e-10
    assert score_by_subset[(0,)] > 1e-3 and score_by_subset[(1,)] > 1e-3
    assert res.matches_optimal_cut_side


def test_blanket_scan_on_ghz_is_tied_and_canonical():
    res = blanket_scan(ghz(3), 1)
    vals = [v for _, v in res.scores]
    assert max(vals) - min(vals) < 1e-12
    assert res.argmin == (0,)  # first subset in canonical order wins ties
    assert res.optimal_cut_side in ((0,), (1,), (2,))
    assert res.matches_optimal_cut_side


def test_blanket_scan_size_validation():
    with pytest.raises(BadSize):
        blanket_scan(ghz(3), 0)
    with pytest.raises(BadSize):
        blanket_scan(ghz(3), 3)


def test_scan_scores_cover_all_subsets_in_order():
    res = blanket_scan(ghz(4), 2)
    subsets = [z for z, _ in res.scores]
    assert subsets == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


ORACLE_STATES = {
    "pure": haar_pure((2, 2, 2), substream(0, "bl-oracle-pure")),
    "full-rank": ginibre_mixed((2, 2, 2), 8, substream(0, "bl-oracle-full")),
    "rank-2": ginibre_mixed((2, 2, 2), 2, substream(0, "bl-oracle-rank2")),
    "qutrit": ginibre_mixed((2, 3, 2), 12, substream(0, "bl-oracle-qutrit")),
    "ghz4": ghz(4),
}
ORACLE_CASES = [
    (name, size, mode)
    for name, rho in ORACLE_STATES.items()
    for size in range(1, rho.n)
    for mode in ("marginal", "optimized")
]

def petz_blanket_score(rho: DensityMatrix, z: tuple[int, ...]) -> float:
    """The scan's defining score: qjsd to the Petz-recovered conditional on the
    complement Y, reassembled with the blanket marginal rho_Z."""
    y = [i for i in range(rho.n) if i not in z]
    cond = partial_trace(petz_recover(rho, z, y), y)
    sigma = assemble_on_subsets(
        [np.asarray(cond.mat), np.asarray(partial_trace(rho, z).mat)], [y, list(z)], rho.layout
    )
    return qjsd(rho, sigma)


@pytest.mark.parametrize("name,size,mode", ORACLE_CASES)
def test_scan_matches_petz_reassembly(name, size, mode):
    rho = ORACLE_STATES[name]
    res = blanket_scan(rho, size, mode=mode)
    subsets = list(combinations(range(rho.n), size))
    assert [z for z, _ in res.scores] == subsets
    oracle = [petz_blanket_score(rho, z) for z in subsets]
    for (z, got), want in zip(res.scores, oracle):
        assert abs(got - want) <= 1e-12, f"{z}: {got} vs {want}"
    vmin = min(oracle)
    assert res.argmin == next(z for z, v in zip(subsets, oracle) if v <= vmin + 1e-12)
