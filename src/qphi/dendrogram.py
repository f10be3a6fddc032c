"""Recursive integration structure: split at the optimal cut, recurse on the
reduced states of each side, and export the tree as JSON, Newick, or DOT.

Internal nodes carry the phi of the reduced state on their member set; the
child containing the smaller subsystem index is listed first.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .divergence import delta
from .errors import BadParameter, SingleSubsystem
from .phi import phi as phi_fn
from .qstate_io import _loads
from .states import (
    DensityMatrix,
    SubsystemLayout,
    _int,
    _ints,
    _real,
    ginibre_mixed,
    partial_trace,
    rng_from,
)


@dataclass(frozen=True)
class DendrogramNode:
    members: tuple[int, ...]
    phi_internal: Optional[float]  # None for leaves
    tie_count: int
    children: Optional[tuple["DendrogramNode", "DendrogramNode"]]

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _preorder(node: DendrogramNode):
    """Every node of the subtree, each before its children, children left to right."""
    yield node
    for child in node.children or ():
        yield from _preorder(child)


@dataclass(frozen=True)
class Dendrogram:
    root: DendrogramNode
    layout: SubsystemLayout
    mode: str

    def internal_nodes(self) -> list[DendrogramNode]:
        """The internal nodes, pre-order."""
        return [node for node in _preorder(self.root) if not node.is_leaf]

    def leaves(self) -> list[DendrogramNode]:
        """The leaves, left to right."""
        return [node for node in _preorder(self.root) if node.is_leaf]


def build_dendrogram(rho: DensityMatrix, mode: str = "marginal") -> Dendrogram:
    if rho.n < 2:
        raise SingleSubsystem("a dendrogram needs at least two subsystems")

    def rec(members: tuple[int, ...], state: DensityMatrix) -> DendrogramNode:
        if len(members) == 1:
            return DendrogramNode(members=members, phi_internal=None, tie_count=0, children=None)
        res = phi_fn(state, mode)
        a_local, b_local = res.optimal_cut.as_lists()
        a_glob = tuple(members[i] for i in a_local)
        b_glob = tuple(members[i] for i in b_local)
        child_a = rec(a_glob, partial_trace(state, a_local))
        child_b = rec(b_glob, partial_trace(state, b_local))
        return DendrogramNode(
            members=members,
            phi_internal=res.phi,
            tie_count=res.tie_count,
            children=(child_a, child_b),
        )

    root = rec(tuple(range(rho.n)), rho)
    return Dendrogram(root=root, layout=rho.layout, mode=mode)


# ---------------------------------------------------------------------------
# exports

def _node_to_dict(node: DendrogramNode) -> dict:
    return {
        "members": list(node.members),
        "phi": node.phi_internal,
        "tie_count": node.tie_count,
        "children": None if node.is_leaf else [_node_to_dict(c) for c in node.children],
    }


def to_json_dict(d: Dendrogram) -> dict:
    return {"dims": list(d.layout.dims), "mode": d.mode, "root": _node_to_dict(d.root)}


def to_json(d: Dendrogram) -> str:
    return json.dumps(to_json_dict(d), indent=2)


def _node_from_dict(obj: dict) -> DendrogramNode:
    if not isinstance(obj, dict):
        raise BadParameter(f"a dendrogram node must be a JSON object, got {obj!r}")
    members = tuple(_ints(obj["members"], BadParameter, "'members'"))
    children = obj.get("children")
    tie_count = _int(obj.get("tie_count", 0), 0, BadParameter, "'tie_count'")
    phi = obj["phi"]
    if children is None:
        if phi is not None:
            raise BadParameter(f"a leaf's 'phi' must be null, got {phi!r}")
        if len(members) != 1:
            raise BadParameter(f"a leaf has exactly one member, got {members}")
        return DendrogramNode(members, phi_internal=None, tie_count=tie_count, children=None)
    if not isinstance(children, list) or len(children) != 2:
        raise BadParameter(f"'children' must be null or a list of two nodes, got {children!r}")
    phi = _real(phi, BadParameter, "an internal node's 'phi'")
    a, b = (_node_from_dict(c) for c in children)
    # members are distinct from the root down, so this also makes a and b disjoint
    if sorted(a.members + b.members) != sorted(members):
        raise BadParameter(f"children {a.members} and {b.members} do not split {members}")
    return DendrogramNode(members, phi_internal=phi, tie_count=tie_count, children=(a, b))


def from_json_dict(obj: dict) -> Dendrogram:
    try:
        d = Dendrogram(
            root=_node_from_dict(obj["root"]),
            layout=SubsystemLayout(tuple(_ints(obj["dims"], BadParameter, "'dims'"))),
            mode=obj.get("mode", "marginal"),
        )
    except (KeyError, TypeError) as exc:
        raise BadParameter(f"malformed dendrogram JSON: {exc}") from exc
    if sorted(d.root.members) != list(range(d.layout.n)):
        raise BadParameter(f"the root's members must be 0..{d.layout.n - 1}, got {d.root.members}")
    if d.mode not in ("marginal", "optimized"):
        raise BadParameter(f"'mode' must be 'marginal' or 'optimized', got {d.mode!r}")
    return d


def from_json(text: str) -> Dendrogram:
    return from_json_dict(_loads(text))


def _fmt6(v: float) -> str:
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _node_to_newick(node: DendrogramNode) -> str:
    if node.is_leaf:
        return str(node.members[0])
    inner = ",".join(_node_to_newick(c) for c in node.children)
    return f"({inner})[&phi={_fmt6(node.phi_internal)}]"


def to_newick(d: Dendrogram) -> str:
    return _node_to_newick(d.root) + ";"


def to_dot(d: Dendrogram) -> str:
    lines = ["digraph dendrogram {", "  node [shape=box];"]
    counter = [0]

    def rec(node) -> str:
        name = f"n{counter[0]}"
        counter[0] += 1
        if node.is_leaf:
            lines.append(f'  {name} [label="q{node.members[0]}", shape=ellipse];')
        else:
            lines.append(f'  {name} [label="phi={_fmt6(node.phi_internal)}"];')
            for c in node.children:
                child = rec(c)
                lines.append(f"  {name} -> {child};")
        return name

    rec(d.root)
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# stability probe (report, not assertion)

def stability_probe(
    rho: DensityMatrix,
    trials: int = 5,
    eps: float = 1e-3,
    seed: int = 0,
    mode: str = "marginal",
) -> dict:
    """Rebuild the tree after mixing in eps of a random state; report phi shifts
    on member sets common to both trees and count topology changes."""
    trials = _int(trials, 1, BadParameter, "trials")
    if not 0.0 <= _real(eps, BadParameter, "eps") <= 1.0:
        raise BadParameter(f"eps must lie in [0, 1], got {eps}")
    base = build_dendrogram(rho, mode)
    base_phis = {n.members: n.phi_internal for n in base.internal_nodes()}
    rng = rng_from(seed)
    max_shift = 0.0
    bound = 0.0
    shift_violations = 0
    topology_changes = 0
    for _ in range(trials):
        noise = ginibre_mixed(rho.layout, rho.dim, rng)
        pert = DensityMatrix(
            rho.layout, (1.0 - eps) * np.asarray(rho.mat) + eps * np.asarray(noise.mat)
        )
        dist = delta(rho, pert)
        tree = build_dendrogram(pert, mode)
        phis = {n.members: n.phi_internal for n in tree.internal_nodes()}
        if set(phis) != set(base_phis):
            topology_changes += 1
        common = set(phis) & set(base_phis)
        for m in common:
            shift = abs(phis[m] - base_phis[m])
            max_shift = max(max_shift, shift)
            bound = max(bound, dist + 1e-6)
            if shift > dist + 1e-6:
                shift_violations += 1
    return {
        "trials": trials,
        "eps": float(eps),
        "max_phi_shift": max_shift,
        "shift_bound": bound,
        "shift_violations": shift_violations,
        "topology_changes": topology_changes,
    }
