import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from qphi import observer
from qphi.channels import (
    KrausChannel,
    LocalChannel,
    apply_channel,
    apply_local,
    dephasing,
    depolarizing,
    partial_trace_channel,
)
from qphi.errors import BadBudget, BadParameter, GridTooLarge, LayoutMismatch, SingleSubsystem
from qphi.observer import (
    LINE_ITERS,
    SOBOL_DIM_MAX,
    ObserverResult,
    _scores,
    _sobol_starts,
    custom_family,
    local_dephasing_family,
    local_depolarizing_family,
    maximize_phi,
    observer_spectrum,
    partial_trace_family,
)
from qphi.phi import phi
from qphi.search import INVPHI, golden_max
from qphi.states import bell, ghz, ginibre_mixed, pure_state, substream, tensor

BELL_PHI = 0.3803956658485781
CLASSICAL_PAIR_PHI = 0.2157615543388356


def test_dephasing_family_box_and_params():
    fam = local_dephasing_family((2, 2))
    assert fam.n_params == 4
    assert fam.box[0] == (0.0, np.pi)
    assert fam.box[1] == (0.0, 2 * np.pi)
    with pytest.raises(BadParameter):
        fam.instantiate([5.0, 0.0, 0.0, 0.0])  # outside the box
    with pytest.raises(BadParameter):
        local_dephasing_family((2, 3))  # qubit bases only


def test_bell_dephasing_search_recovers_classical_correlations():
    res = maximize_phi(bell(), local_dephasing_family((2, 2)), budget=300, restarts=3, seed=11)
    assert res.phi_before == pytest.approx(BELL_PHI, abs=1e-9)
    assert res.phi_after == pytest.approx(CLASSICAL_PAIR_PHI, abs=1e-6)
    assert res.ratio == pytest.approx(res.phi_after / res.phi_before, abs=1e-12)
    assert res.evaluations <= 300
    # dephasing is local, so no evaluated point may exceed the input phi
    assert all(v <= res.phi_before + 1e-9 for _, v in res.trace)


def test_search_is_deterministic():
    fam = local_dephasing_family((2, 2))
    a = maximize_phi(bell(), fam, budget=120, restarts=2, seed=7)
    b = maximize_phi(bell(), fam, budget=120, restarts=2, seed=7)
    assert a.best_params == b.best_params
    assert a.phi_after == b.phi_after


def test_depolarizing_family_keeps_identity():
    res = maximize_phi(bell(), local_depolarizing_family((2, 2)), budget=200, restarts=2, seed=0)
    # the best noise level is none at all, found exactly on the box edge
    assert res.best_params == (0.0, 0.0)
    assert res.phi_after == pytest.approx(BELL_PHI, abs=1e-12)
    assert res.ratio == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_family_picks_the_spectator():
    spectator = pure_state(np.array([1.0, 0.0]), (2,))
    rho = tensor(bell(), spectator)
    fam = partial_trace_family(rho.layout)
    res = maximize_phi(rho, fam, budget=60, restarts=2, seed=0)
    assert res.phi_after == pytest.approx(BELL_PHI, abs=1e-9)


def test_golden_max_returns_the_best_evaluated_point():
    # the first interior point c is evaluated before the bracket loop starts
    c = 1.0 - INVPHI
    assert golden_max(lambda t: -((t - c) ** 2), 0.0, 1.0) == (c, 0.0, 28)
    # ties go to the earliest evaluation, the lower endpoint
    assert golden_max(lambda t: 1.0, 0.0, 1.0, iters=3) == (0.0, 1.0, 7)


SEARCH_STATES = {
    "bell": bell,
    "ghz3": lambda: ghz(3),
    "ghz4": lambda: ghz(4),
    "ginibre222": lambda: ginibre_mixed((2, 2, 2), 8, substream(5, "observer-test")),
}
SEARCH_FAMILIES = {
    "dephasing": local_dephasing_family,
    "depolarizing": local_depolarizing_family,
    "ptrace": partial_trace_family,
}


@pytest.mark.parametrize(
    "state, family, budget, restarts, seed",
    [
        # Bell seeds 7 and 15 found a better point than they reported
        # while golden_max ignored its first interior points
        ("bell", "dephasing", 500, 8, 7),
        ("bell", "dephasing", 500, 8, 15),
        ("bell", "dephasing", 120, 2, 3),
        ("ghz3", "dephasing", 200, 4, 1),
        ("ginibre222", "depolarizing", 50, 1, 3),
        ("ginibre222", "depolarizing", 20, 8, 0),
        ("ghz4", "ptrace", 40, 2, 1),
        ("ginibre222", "ptrace", 17, 2, 2),
        # budgets below one line search still stop at the budget
        ("bell", "dephasing", 1, 1, 0),
        ("bell", "dephasing", 3, 2, 0),
        ("bell", "dephasing", 7, 3, 0),
    ],
)
def test_search_reports_the_best_point_it_evaluated(state, family, budget, restarts, seed):
    rho = SEARCH_STATES[state]()
    res = maximize_phi(rho, SEARCH_FAMILIES[family](rho.layout), budget, restarts, seed)
    assert 1 <= res.evaluations == len(res.trace) <= budget
    assert res.phi_after == max(v for _, v in res.trace)
    assert res.best_params == next(p for p, v in res.trace if v == res.phi_after)


def test_polish_does_not_rescore_the_best_point():
    rho = ginibre_mixed((2, 2, 2), 8, substream(5, "cases"))
    res = maximize_phi(rho, local_depolarizing_family((2, 2, 2)), budget=20, restarts=8, seed=3)
    points = [tuple(np.round(p, 3)) for p, _ in res.trace]
    # 20 evaluations fund three restarts of 6, and the 2 left fund no line
    # search, so the polish scores nothing; the third Sobol start is scored once
    assert points.count((0.386, 0.439, 0.429)) == 1
    assert len(set(p for p, _ in res.trace)) == len(res.trace)
    assert res.evaluations == len(res.trace) <= 20
    # 55 evaluations fund eight restarts of 6 and leave 7 to the polish: it
    # starts from the incumbent with its known value, so it scores one
    # golden-section line on the first coordinate and nothing before it
    fam = local_depolarizing_family((2, 2, 2))
    res = maximize_phi(rho, fam, budget=55, restarts=8, seed=3)
    incumbent = np.array(max(res.trace[:48], key=lambda e: e[1])[0])
    line = []

    def g(t):
        p = incumbent.copy()
        p[0] = t
        line.append((tuple(p.tolist()), phi(fam.apply(p, rho)).phi))
        return line[-1][1]

    golden_max(g, *fam.box[0], iters=3)
    assert len(line) == 7
    assert res.trace[48:] == tuple(line)


def test_budget_validation():
    with pytest.raises(BadBudget):
        maximize_phi(bell(), local_dephasing_family((2, 2)), budget=0)


def test_spectrum_grid_values_and_fraction():
    fam = local_depolarizing_family((2, 2))
    sweep = observer_spectrum(bell(), fam, axes=[(0, 9)], fixed={1: 0.0})
    assert len(sweep.values) == 9
    assert sweep.phi_input == pytest.approx(BELL_PHI, abs=1e-9)
    # more depolarizing on one side can only hurt
    assert all(sweep.values[i] >= sweep.values[i + 1] - 1e-12 for i in range(8))
    assert sweep.values[0] == pytest.approx(BELL_PHI, abs=1e-9)
    assert 0.0 <= sweep.fraction_retaining_half <= 1.0


def test_spectrum_two_axes_shape():
    fam = local_dephasing_family((2, 2))
    sweep = observer_spectrum(bell(), fam, axes=[(0, 5), (2, 7)])
    assert len(sweep.values) == 35
    assert len(sweep.params) == 35
    assert sweep.axes == ((0, 5), (2, 7))


def test_spectrum_guards():
    fam = local_dephasing_family((2, 2))
    with pytest.raises(GridTooLarge):
        observer_spectrum(bell(), fam, axes=[(0, 300), (1, 300)])
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(0, 4), (1, 4), (2, 4)])
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(9, 4)])


@pytest.mark.parametrize(
    "axes, fixed",
    [
        ([(0,)], None),
        (5, None),
        ([(0, 3)], {1: "x"}),
        ([(0, 3)], {1: None}),
        ([(0, 3)], [1]),
    ],
)
def test_spectrum_refuses_malformed_axes_and_pinned_values(axes, fixed):
    fam = local_dephasing_family((2, 2))
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=axes, fixed=fixed)


@pytest.mark.parametrize("key", [9, 4, -1])
def test_spectrum_fixed_keys_must_name_a_parameter(key):
    # the dephasing family of two qubits has parameters 0..3; a negative key
    # must not wrap around to the last one
    fam = local_dephasing_family((2, 2))
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(0, 3)], fixed={key: 0.5})


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 20, 24, 30, 32])
def test_sobol_starts_equal_scipy(d):
    # scipy's scrambled Sobol is the oracle the in-repo generator reproduces
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in (0, 1, 7, 12345):
        for n in (1, 2, 3, 8, 16, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # balance warning for n not a power of 2
                ref = qmc.Sobol(d, scramble=True, seed=substream(seed, "observer-starts")).random(n)
            got = _sobol_starts(d, n, substream(seed, "observer-starts"))
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref), (d, seed, n)


def test_sobol_starts_pinned():
    # the same points without scipy: k / 2^30 for these k
    def ks(d, seed, n):
        return (_sobol_starts(d, n, substream(seed, "observer-starts")) * 2**30).astype(int).tolist()

    assert ks(1, 0, 8) == [
        [83906862], [599092987], [816203473], [370374916],
        [431855892], [1057531585], [740003563], [179220798],
    ]
    assert ks(4, 11, 4) == [
        [1059610013, 75249516, 852233513, 110707951],
        [136145599, 735723423, 261920667, 919479661],
        [432375527, 293823197, 766012386, 426538974],
        [787526085, 1042639406, 284750160, 691738204],
    ]
    pts = _sobol_starts(SOBOL_DIM_MAX, 64, substream(3, "observer-starts"))
    assert hashlib.sha256(pts.astype("<f8").tobytes()).hexdigest() == (
        "5cf669be42d65f16ff46bb58b3e3aae119cee5cf9dd7109db5aa69cec48e71ba"
    )


def test_search_over_no_parameters_evaluates_the_fixed_channel():
    fam = custom_family([], lambda p: LocalChannel((depolarizing(0.0, 2), depolarizing(0.0, 2))))
    res = maximize_phi(bell(), fam, budget=10, restarts=3, seed=0)
    assert res.best_params == ()
    # the budget funds one restart of 6, which scores the fixed channel once;
    # the polish starts from a value already known
    assert res.evaluations == 1
    assert res.phi_after == pytest.approx(BELL_PHI, abs=1e-9)


def test_a_builder_that_returns_no_channel_is_bad_input():
    fam = custom_family([(0.0, 1.0)], lambda p: np.eye(4))
    with pytest.raises(BadParameter, match="must return a channel"):
        fam.instantiate([0.5])
    with pytest.raises(BadParameter, match="must return a channel"):
        fam.apply([0.5], bell())
    with pytest.raises(BadParameter, match="must return a channel"):
        maximize_phi(bell(), fam, budget=10, restarts=1)


def test_search_refuses_families_beyond_the_sobol_table():
    built = []

    def build(p):
        built.append(p)
        return LocalChannel((depolarizing(0.0, 2), depolarizing(0.0, 2)))

    fam = custom_family([(0.0, 1.0)] * (SOBOL_DIM_MAX + 1), build)
    with pytest.raises(BadParameter):
        maximize_phi(bell(), fam, budget=10, restarts=1)
    assert built == []


def _hexed(x):
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return tuple(_hexed(y) for y in x)
    return x


def _fields(res):
    return {f.name: _hexed(getattr(res, f.name)) for f in dataclasses.fields(res)}


def _reference_output(family, p, rho):
    """F_p(rho) through the one-channel path the stacked body replaces."""
    ch = family.instantiate(p)
    if isinstance(ch, LocalChannel):
        return apply_local(ch, rho)
    lay = family.out_layout(np.asarray(p, dtype=float), rho) if family.out_layout else None
    return apply_channel(ch, rho, lay)


def _random_params(family, count, seed, zeros=0.0):
    """Points drawn uniformly in the box; with ``zeros``, that share of the
    entries sit on the lower edge."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in family.box])
    hi = np.array([b[1] for b in family.box])
    params = lo + rng.random((count, family.n_params)) * (hi - lo)
    return np.where(rng.random(params.shape) < zeros, lo, params)


def _kraus_flip(p):
    # a custom whole-state Kraus family: flip both qubits with probability p
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    q = float(p[0])
    return KrausChannel(4, 4, (np.sqrt(1 - q) * np.eye(4, dtype=complex), np.sqrt(q) * np.kron(x, x)))


OBJECTIVE_CASES = {
    "dephasing": (lambda: ginibre_mixed((2, 2, 2), 8, substream(1, "obj")), local_dephasing_family, 0.0),
    # rows with p = 0 on some sites take one Kraus operator there, the rest d^2
    "depolarizing": (lambda: ginibre_mixed((3, 2, 2), 6, substream(2, "obj")), local_depolarizing_family, 0.4),
    # drop sets of one and of two subsystems: (2, 2, 2) and (2, 2) outputs in one stack
    "ptrace": (lambda: ginibre_mixed((2, 2, 2, 2), 5, substream(3, "obj")), partial_trace_family, 0.0),
    "custom-local": (
        bell,
        lambda lay: custom_family(
            [(0.0, 1.0), (0.0, np.pi)],
            lambda p: LocalChannel((depolarizing(float(p[0]), 2), dephasing(p[1], 0.0))),
        ),
        0.3,
    ),
    "custom-kraus": (lambda: ginibre_mixed((2, 2), 3, substream(4, "obj")),
                     lambda lay: custom_family([(0.0, 1.0)], _kraus_flip), 0.3),
}


@pytest.mark.parametrize("case", sorted(OBJECTIVE_CASES))
def test_stacked_objective_matches_phi_of_apply_point_by_point(case):
    make_rho, make_family, zeros = OBJECTIVE_CASES[case]
    rho = make_rho()
    family = make_family(rho.layout)
    params = _random_params(family, 40, 7, zeros)
    vals = _scores(family, params, rho, "marginal")
    assert vals.shape == (40,)
    for p, v in zip(params, vals):
        ref = _reference_output(family, p, rho)
        out = family.apply(p, rho)
        assert out.dims == ref.dims
        assert np.asarray(out.mat).tobytes() == np.asarray(ref.mat).tobytes()
        assert float(v).hex() == float(phi(ref, "marginal").phi).hex()


def test_stacked_objective_matches_optimized_phi_on_two_qubits():
    rho = ginibre_mixed((2, 2), 4, substream(6, "obj"))
    for family, zeros in ((local_dephasing_family((2, 2)), 0.0), (local_depolarizing_family((2, 2)), 0.5)):
        params = _random_params(family, 4, 8, zeros)
        vals = _scores(family, params, rho, "optimized")
        for p, v in zip(params, vals):
            assert float(v).hex() == float(phi(family.apply(p, rho), "optimized").phi).hex()


LOCAL_FAMILIES = {
    # each family with its channel per site from the one-point constructors
    "dephasing": (
        local_dephasing_family((2, 2, 2)),
        lambda p: [dephasing(p[2 * i], p[2 * i + 1]) for i in range(3)],
    ),
    "depolarizing": (
        local_depolarizing_family((3, 2, 2)),
        lambda p: [depolarizing(float(x), d) for x, d in zip(p, (3, 2, 2))],
    ),
}


@pytest.mark.parametrize("case", sorted(LOCAL_FAMILIES))
def test_local_families_build_each_points_kraus_operators_bit_for_bit(case):
    family, per_site = LOCAL_FAMILIES[case]
    params = _random_params(family, 64, 9, zeros=0.4)
    params[0] = [b[1] for b in family.box]  # the upper edge too
    sites = family._site_kraus(params)
    for r, p in enumerate(params):
        channels = family.instantiate(p).channels
        assert len(sites) == len(channels)
        for (kraus, counts), ch, ref in zip(sites, channels, per_site(p)):
            ops = np.asarray(ch.kraus)
            assert counts[r] == len(ops)
            assert np.ascontiguousarray(kraus[r, :counts[r]]).tobytes() == ops.tobytes()
            assert np.asarray(ref.kraus).tobytes() == ops.tobytes()


def test_family_outputs_refuse_a_state_of_another_layout():
    for family in (local_depolarizing_family((3, 2)), local_dephasing_family((2, 2, 2))):
        with pytest.raises(LayoutMismatch):
            family.apply([0.5] * family.n_params, bell())
    # a partial trace of (2, 2, 2) fits the dimension of a (4, 2) state, not its layout
    family = partial_trace_family((2, 2, 2))
    with pytest.raises(LayoutMismatch):
        family.apply([0.0], ginibre_mixed((4, 2), 8, 0))
    with pytest.raises(LayoutMismatch):
        maximize_phi(ginibre_mixed((4, 2), 8, 0), family, budget=10, restarts=1)


def test_search_refuses_outputs_of_one_subsystem():
    # tracing out one qubit of a pair leaves a single subsystem, which phi refuses
    fam = custom_family([(0.0, 1.0)], lambda p: partial_trace_channel((2, 2), [1]))
    with pytest.raises(SingleSubsystem):
        maximize_phi(bell(), fam, budget=10, restarts=2)
    with pytest.raises(SingleSubsystem):
        observer_spectrum(bell(), fam, axes=[(0, 3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_families_refuse_non_finite_parameters(bad):
    rho = tensor(bell(), pure_state(np.array([1.0, 0.0]), (2,)))
    with pytest.raises(BadParameter):
        partial_trace_family(rho.layout).instantiate([bad])
    with pytest.raises(BadParameter):
        partial_trace_family(rho.layout).apply([bad], rho)
    fam = local_dephasing_family((2, 2))
    with pytest.raises(BadParameter):
        fam.instantiate([0.1, bad, 0.2, 0.3])
    params = _random_params(fam, 5, 0)
    params[3, 2] = bad
    with pytest.raises(BadParameter):
        _scores(fam, params, bell(), "marginal")
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(0, 3)], fixed={1: bad})


def test_spectrum_refuses_a_repeated_or_pinned_axis():
    fam = local_dephasing_family((2, 2))
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(0, 3), (0, 2)])
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(0, 3), (1, 2)], fixed={1: 0.5})
    with pytest.raises(BadParameter):
        observer_spectrum(bell(), fam, axes=[(2, 3)], fixed={2: 0.5})


def test_spectrum_scores_in_stacks_like_point_by_point():
    rho = ginibre_mixed((2, 2, 2), 8, substream(5, "observer-test"))
    fam = local_depolarizing_family((2, 2, 2))
    sweep = observer_spectrum(rho, fam, axes=[(0, 4), (2, 5)], fixed={1: 0.3})
    assert len(sweep.params) == 20
    for k, (p, v) in enumerate(zip(sweep.params, sweep.values)):
        i, j = divmod(k, 5)
        assert p == (i / 3, 0.3, j / 4)
        assert float(v).hex() == float(phi(_reference_output(fam, p, rho)).phi).hex()


def _sequential_search(rho, family, budget, restarts, seed, mode="marginal"):
    """The observer search one evaluation at a time, each restart after the
    last: the oracle the lockstep search must reproduce. Every restart's share
    is fixed up front, at least 6 evaluations (the start point and one
    5-evaluation line search), and as many restarts run as the budget funds."""
    share = min(max(budget // restarts, 6), budget)
    runs = min(restarts, budget // share)
    unit = _sobol_starts(family.n_params, runs, substream(seed, "observer-starts"))
    lows = np.array([b[0] for b in family.box])
    highs = np.array([b[1] for b in family.box])
    log = []

    def objective(p):
        v = phi(family.apply(p, rho), mode).phi
        log.append((tuple(float(x) for x in p), v))
        return v

    def ascend(p0, end, f0=None):
        p = np.array(p0, dtype=float)
        f_cur = objective(p) if f0 is None else f0
        while len(log) < end:
            f_start = f_cur
            for c in range(p.size):
                room = end - len(log)
                if room < 5:
                    break
                pc = p[c]

                def g(t):
                    p[c] = t
                    return objective(p)

                t_best, f_best, _ = golden_max(g, lows[c], highs[c], min(LINE_ITERS, room - 4))
                if f_best > f_cur:
                    p[c], f_cur = t_best, f_best
                else:
                    p[c] = pc
            if f_cur - f_start < 1e-12:
                break

    for start in lows + unit * (highs - lows):
        ascend(start, len(log) + share)
    if len(log) < budget:
        best_p, best_f = max(log, key=lambda e: e[1])
        ascend(best_p, budget, best_f)
    best_p, best_f = max(log, key=lambda e: e[1])
    phi_before = phi(rho, mode).phi
    return ObserverResult(
        best_params=best_p,
        phi_before=phi_before,
        phi_after=best_f,
        ratio=best_f / phi_before if phi_before > 0 else 0.0,
        evaluations=len(log),
        trace=tuple(log),
        near_optimal=tuple(p for p, v in log if best_f - v <= 1e-6),
    )


@pytest.mark.parametrize(
    "state, family, budget, restarts, seed",
    [
        ("bell", "dephasing", 500, 8, 7),      # lockstep, eight restarts wide
        # the floor of 6 sets the share: the budget funds three restarts of 6
        # and leaves 2 evaluations to the polish
        ("ginibre222", "depolarizing", 20, 8, 3),
        # the floor of 6 sets the share, and the budget funds five of eight
        ("ghz3", "dephasing", 30, 8, 1),
        # 6 <= share < n_params + 1: eight restarts of one line search each
        ("ghz4", "dephasing", 50, 8, 2),
        ("ghz4", "ptrace", 40, 3, 1),          # 13 x 3 <= 40: lockstep over drop sets
        # eight restarts of 6 leave 7 evaluations: the polish runs a line search
        ("ginibre222", "depolarizing", 55, 8, 3),
        # forty restarts of 6 leave 39: the polish runs a second line search
        # from wherever the incumbent's known value let the first one move it
        ("bell", "dephasing", 279, 40, 7),
    ],
)
def test_lockstep_search_equals_the_sequential_oracle(state, family, budget, restarts, seed):
    rho = SEARCH_STATES[state]()
    fam = SEARCH_FAMILIES[family](rho.layout)
    got = maximize_phi(rho, fam, budget, restarts, seed)
    assert _fields(got) == _fields(_sequential_search(rho, fam, budget, restarts, seed))


def test_search_scores_each_distinct_point_once(monkeypatch):
    scored = []

    def recorder(family, params, rho, mode):
        scored.extend(map(tuple, params.tolist()))
        return _scores(family, params, rho, mode)

    monkeypatch.setattr(observer, "_scores", recorder)
    rho = bell()
    res = maximize_phi(rho, local_depolarizing_family(rho.layout), 300, 8, 0)
    distinct = {p for p, _ in res.trace}
    # golden-section lines from the same point repeat points (240 of 296
    # are distinct), and each repeat still counts as an evaluation
    assert len(distinct) < res.evaluations == len(res.trace)
    assert len(scored) == len(set(scored)) and set(scored) == distinct


@pytest.mark.parametrize(
    "state, family, budget, runs",
    [
        ("ginibre222", "depolarizing", 20, 3),  # the floor binds: 3 restarts of 6
        ("ghz4", "dephasing", 50, 8),           # 6 <= share < n_params + 1 = 9
    ],
)
def test_each_funded_restart_scores_its_start_and_one_line_search(state, family, budget, runs):
    rho = SEARCH_STATES[state]()
    fam = SEARCH_FAMILIES[family](rho.layout)
    res = maximize_phi(rho, fam, budget, restarts=8, seed=3)
    lows = np.array([b[0] for b in fam.box])
    highs = np.array([b[1] for b in fam.box])
    starts = lows + _sobol_starts(fam.n_params, runs, substream(3, "observer-starts")) * (highs - lows)
    # 6 evaluations per restart and fewer than 5 left: the polish scores nothing
    assert res.evaluations == 6 * runs and budget - 6 * runs < 5
    for r, start in enumerate(starts):
        block = [np.array(p) for p, _ in res.trace[6 * r:6 * r + 6]]
        assert np.array_equal(block[0], start)
        # the line search moves the first coordinate only
        assert all(np.array_equal(p[1:], start[1:]) for p in block)
        assert len({p[0] for p in block}) == 6


def test_restarts_size_no_memory(monkeypatch):
    drawn = []

    def recorder(d, n, rng):
        drawn.append(n)
        return _sobol_starts(d, n, rng)

    monkeypatch.setattr(observer, "_sobol_starts", recorder)
    res = maximize_phi(bell(), local_dephasing_family((2, 2)), budget=10, restarts=10**9)
    assert drawn and max(drawn) <= 2
    assert res.evaluations <= 10


@pytest.mark.parametrize("d", [0, 1, 3, 6, 32])
def test_sobol_starts_are_a_prefix_of_longer_draws(d):
    longer = _sobol_starts(d, 64, substream(5, "observer-starts"))
    for m in (1, 2, 7, 63):
        got = _sobol_starts(d, m, substream(5, "observer-starts"))
        assert np.array_equal(got, longer[:m]), (d, m)
