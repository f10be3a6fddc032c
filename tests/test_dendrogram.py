import json

import numpy as np
import pytest

from qphi.dendrogram import (
    build_dendrogram,
    from_json,
    stability_probe,
    to_dot,
    to_json,
    to_newick,
)
from qphi.errors import BadParameter, SingleSubsystem
from qphi.states import (
    bell,
    ghz,
    maximally_mixed,
    pure_state,
    substream,
    tensor,
)

BELL_PHI = 0.3803956658485781
CLASSICAL_PAIR_PHI = 0.2157615543388356


def test_bell_tree():
    d = build_dendrogram(bell())
    assert d.root.members == (0, 1)
    assert d.root.phi_internal == pytest.approx(BELL_PHI, abs=1e-9)
    assert len(d.leaves()) == 2 and len(d.internal_nodes()) == 1
    assert to_newick(d) == "(0,1)[&phi=0.380396];"


def test_bell_with_spectator_qubit():
    spectator = pure_state(np.array([1.0, 0.0]), (2,))
    rho = tensor(bell(), spectator)
    d = build_dendrogram(rho)
    assert abs(d.root.phi_internal) <= 1e-10
    kids = {c.members for c in d.root.children}
    assert kids == {(0, 1), (2,)}
    inner = next(c for c in d.root.children if c.members == (0, 1))
    assert inner.phi_internal == pytest.approx(BELL_PHI, abs=1e-9)
    assert all(leaf.is_leaf and leaf.phi_internal is None for leaf in d.leaves())


def test_ghz3_tree_values_and_newick():
    d = build_dendrogram(ghz(3))
    assert d.root.phi_internal == pytest.approx(BELL_PHI, abs=1e-9)
    assert d.root.tie_count == 3
    pair = next(n for n in d.internal_nodes() if len(n.members) == 2)
    assert pair.phi_internal == pytest.approx(CLASSICAL_PAIR_PHI, abs=1e-6)
    assert to_newick(d) == "(0,(1,2)[&phi=0.215762])[&phi=0.380396];"


def test_nodes_come_pre_order_and_leaves_left_to_right():
    # a Bell pair on qubits 0 and 2, qubit 1 in |0>: the root splits {0, 2} | {1}
    vec = np.zeros(8)
    vec[[0b000, 0b101]] = 1.0 / np.sqrt(2.0)
    d = build_dendrogram(pure_state(vec, (2, 2, 2)))
    assert [n.members for n in d.internal_nodes()] == [(0, 1, 2), (0, 2)]
    assert [n.members for n in d.leaves()] == [(0,), (2,), (1,)]


def test_structural_invariants_on_random_state():
    from qphi.states import ginibre_mixed

    rho = ginibre_mixed((2, 2, 2, 2), 16, substream(2, "dend"))
    d = build_dendrogram(rho)
    assert len(d.leaves()) == 4
    assert len(d.internal_nodes()) == 3
    for node in d.internal_nodes():
        a, b = node.children
        assert tuple(sorted(a.members + b.members)) == node.members
    # deterministic rebuild
    again = build_dendrogram(rho)
    assert to_json(d) == to_json(again)


def test_json_round_trip():
    d = build_dendrogram(ghz(3))
    text = to_json(d)
    back = from_json(text)
    assert back == d
    assert to_json(back) == text
    parsed = json.loads(text)
    assert parsed["dims"] == [2, 2, 2]
    with pytest.raises(BadParameter):
        from_json("{\"not\": \"a tree\"}")


@pytest.mark.parametrize("dims", ["ab", 5, [2.7, 2, 2], [True, 2, 2], ["2", 2, 2]])
def test_dendrogram_json_with_malformed_dims_is_rejected(dims):
    doc = json.loads(to_json(build_dendrogram(ghz(3))))
    doc["dims"] = dims
    with pytest.raises(BadParameter):
        from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "key, value",
    [
        ("members", "ab"),
        ("members", [0.5, 1]),
        ("tie_count", "x"),
        ("phi", "x"),
        ("phi", True),
        ("phi", None),
        ("phi", float("inf")),
        ("children", "ab"),
        ("children", [1, 2]),
    ],
)
def test_dendrogram_json_with_malformed_node_is_rejected(key, value):
    doc = json.loads(to_json(build_dendrogram(ghz(3))))
    doc["root"][key] = value
    with pytest.raises(BadParameter):
        from_json(json.dumps(doc))


def test_dendrogram_json_needs_two_children_and_null_leaf_phi():
    text = to_json(build_dendrogram(ghz(3)))
    three = json.loads(text)
    three["root"]["children"].append(three["root"]["children"][0])
    leaf_phi = json.loads(text)
    next(c for c in leaf_phi["root"]["children"] if c["children"] is None)["phi"] = 0.5
    for doc in (three, leaf_phi):
        with pytest.raises(BadParameter):
            from_json(json.dumps(doc))


def _relabel(node, shift):
    node["members"] = [m + shift for m in node["members"]]
    for c in node["children"] or []:
        _relabel(c, shift)


# each edit breaks one rule of a well-formed GHZ3 tree: root [0, 1, 2] with
# children [0] and [1, 2], the latter with children [1] and [2]
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["root"]["children"][0].update(members=[]),
        lambda doc: doc["root"]["children"][0].update(members=[8, 9]),
        lambda doc: _relabel(doc["root"], 7),
        lambda doc: doc["root"]["children"][0].update(members=[1]),
        lambda doc: doc["root"]["children"][1].update(members=[1, 2, 3]),
        lambda doc: doc["root"].update(tie_count=-1),
        lambda doc: doc.update(mode="bogus"),
        lambda doc: doc.update(mode=5),
    ],
    ids=[
        "leaf-without-member", "leaf-with-two-members", "root-not-0..n-1",
        "overlapping-children", "children-not-a-split", "negative-tie-count",
        "unknown-mode", "non-string-mode",
    ],
)
def test_dendrogram_json_that_is_not_a_tree_of_the_layout_is_rejected(edit):
    doc = json.loads(to_json(build_dendrogram(ghz(3))))
    edit(doc)
    with pytest.raises(BadParameter):
        from_json(json.dumps(doc))


def test_dendrogram_invalid_json_is_rejected():
    with pytest.raises(BadParameter):
        from_json("not json at all")


def test_dot_export_mentions_all_leaves():
    d = build_dendrogram(ghz(3))
    dot = to_dot(d)
    assert dot.startswith("digraph")
    for q in ("q0", "q1", "q2"):
        assert q in dot
    assert "phi=0.380396" in dot


def test_full_product_tree_has_zero_heights():
    from qphi.states import ginibre_mixed

    factors = [ginibre_mixed((2,), 2, substream(8, f"dend-prod-{i}")) for i in range(3)]
    rho = tensor(tensor(factors[0], factors[1]), factors[2])
    d = build_dendrogram(rho)
    for node in d.internal_nodes():
        assert abs(node.phi_internal) <= 1e-9
    text = to_newick(d)
    assert "-0.000000" not in text


def test_single_subsystem_rejected():
    with pytest.raises(SingleSubsystem):
        build_dendrogram(maximally_mixed((4,)))


def test_stability_probe_reports():
    rep = stability_probe(ghz(3), trials=3, eps=1e-3, seed=0)
    assert rep["trials"] == 3
    assert rep["max_phi_shift"] >= 0.0
    assert rep["topology_changes"] >= 0
    assert {"max_phi_shift", "shift_bound", "shift_violations", "topology_changes", "trials"} <= set(rep)
    with pytest.raises(BadParameter):
        stability_probe(ghz(3), trials=0)


def test_stability_probe_refuses_non_integer_seeds_and_trials():
    for kw in ({"seed": 1.5}, {"seed": True}, {"seed": -1}, {"trials": 1.5}):
        with pytest.raises(BadParameter, match="integer"):
            stability_probe(ghz(3), **{"trials": 1, **kw})
    assert stability_probe(ghz(3), trials=np.int64(1), seed=np.int64(0))["trials"] == 1


def test_stability_probe_refuses_eps_outside_the_unit_interval():
    # a weight outside [0, 1] mixes to a matrix that is not a state
    for eps in (2.0, -0.5):
        with pytest.raises(BadParameter, match="eps"):
            stability_probe(ghz(3), trials=1, eps=eps)
    for eps in (0.0, 1.0):
        assert stability_probe(ghz(3), trials=1, eps=eps)["eps"] == eps
