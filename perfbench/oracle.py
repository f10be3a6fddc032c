"""Independent reference for checking the program's outputs.

A dense numpy eigensolver with its own partial trace and product assembly;
nothing here imports qphi. Every ``check_*`` function returns a list of
failure messages, empty when the output agrees with the reference.
"""
from __future__ import annotations

import json
import re
from itertools import combinations

import numpy as np

TOL = 1e-12            # agreement required of full-precision values
NEWICK_TOL = 5e-7 + TOL  # Newick prints phi with six decimals


def entropy(mat: np.ndarray) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def qjsd(a: np.ndarray, b: np.ndarray) -> float:
    return entropy((a + b) / 2.0) - 0.5 * entropy(a) - 0.5 * entropy(b)


def marginal(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced state on the sorted subsystem list ``keep``."""
    n = len(dims)
    keep = sorted(keep)
    t = mat.reshape(tuple(dims) * 2)
    rows = list(range(n))
    cols = [i if i not in keep else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    return np.einsum(t, rows + cols, out).reshape(dk, dk)


def product_across(mat: np.ndarray, dims, side_a) -> np.ndarray:
    """rho_A (x) rho_B laid out in the original subsystem order."""
    n = len(dims)
    a = sorted(side_a)
    b = [i for i in range(n) if i not in a]
    prod = np.kron(marginal(mat, dims, a), marginal(mat, dims, b))
    cur = a + b
    t = prod.reshape(tuple(dims[i] for i in cur) * 2)
    back = [cur.index(i) for i in range(n)]
    d = int(np.prod(dims))
    return t.transpose(back + [n + k for k in back]).reshape(d, d)


def cut_divergence(mat: np.ndarray, dims, side_a) -> float:
    return qjsd(mat, product_across(mat, dims, side_a))


def canonical_cuts(n: int):
    """Every bipartition as its side holding subsystem 0."""
    rest = range(1, n)
    return [[0] + list(c) for k in range(n - 1) for c in combinations(rest, k)]


def phi(mat: np.ndarray, dims) -> float:
    return min(cut_divergence(mat, dims, c) for c in canonical_cuts(len(dims)))


def decode_qstate(text: str):
    """(dims, matrix) from a QSTATE v1 document."""
    obj = json.loads(text)
    if obj.get("version") != 1:
        raise ValueError(f"unexpected QSTATE version {obj.get('version')!r}")
    arr = np.asarray(obj["matrix"], dtype=float)
    return tuple(int(d) for d in obj["dims"]), arr[..., 0] + 1j * arr[..., 1]


def _close(label: str, got: float, want: float, tol: float = TOL):
    return [] if abs(got - want) <= tol else [f"{label}: {got!r} vs oracle {want!r}"]


def check_state(label: str, dims, mat, want_dims, want_mat) -> list:
    if tuple(dims) != tuple(want_dims):
        return [f"{label}: dims {dims} != {want_dims}"]
    err = float(np.max(np.abs(mat - want_mat)))
    return [] if err <= 1e-15 else [f"{label}: state differs by {err:.3e}"]


def check_phi(mat, dims, out: dict, rng: np.random.Generator, samples: int = 3) -> list:
    """A marginal-mode phi result: value at the reported cut, min of per_cut,
    and a seeded sample of per-cut values."""
    fails = []
    per_cut = out["per_cut"]
    if len(per_cut) != 2 ** (len(dims) - 1) - 1:
        fails.append(f"per_cut has {len(per_cut)} entries")
    if out["mode"] != "marginal" or out["phi_marginal"] != out["phi"]:
        fails.append("marginal-mode phi differs from phi_marginal")
    fails += _close("phi vs min(per_cut)", out["phi"], min(v for _, v in per_cut), 0.0)
    fails += _close("phi at reported cut", out["phi"], cut_divergence(mat, dims, out["cut"]))
    picks = rng.choice(len(per_cut), size=min(samples, len(per_cut)), replace=False)
    for k in sorted(picks):
        side, value = per_cut[k]
        fails += _close(f"per_cut {side}", value, cut_divergence(mat, dims, side))
    return fails


def check_verify(report: dict, asserted) -> list:
    fails = []
    if report.get("overall") != "pass":
        fails.append(f"verify overall is {report.get('overall')!r}")
    status = {c["name"]: (c["kind"], c["status"]) for c in report.get("checks", [])}
    for name in asserted:
        if status.get(name) != ("assert", "pass"):
            fails.append(f"verify check {name}: {status.get(name)}")
    return fails


def check_observe(out: dict, budget: int, mapped_mat, dims) -> list:
    """``mapped_mat`` is family.apply(best_params, rho), built by the caller."""
    fails = []
    if not 1 <= out["evaluations"] <= budget:
        fails.append(f"evaluations {out['evaluations']} outside [1, {budget}]")
    fails += _close("phi_after", out["phi_after"], phi(mapped_mat, dims))
    return fails


def check_cli_phi(mat, dims, out: dict, rng: np.random.Generator, samples: int = 3) -> list:
    """CLI ``phi`` output: value at the reported cut, and no sampled cut lower."""
    side = out["cut"][0]
    value = out["phi_nats"]
    fails = _close("phi_nats at reported cut", value, cut_divergence(mat, dims, side))
    cuts = canonical_cuts(len(dims))
    for k in sorted(rng.choice(len(cuts), size=min(samples, len(cuts)), replace=False)):
        v = cut_divergence(mat, dims, cuts[k])
        if v < value - TOL:
            fails.append(f"cut {cuts[k]} scores {v!r} below reported phi {value!r}")
    return fails


def check_blanket(mat, dims, out: dict) -> list:
    """score(Z) is the divergence to rho_Y (x) rho_Z when nothing is left over."""
    fails = []
    n = len(dims)
    want_subsets = [list(c) for c in combinations(range(n), out["target_size"])]
    if [s["subset"] for s in out["scores"]] != want_subsets:
        return [f"blanket subsets {[s['subset'] for s in out['scores']]}"]
    for s in out["scores"]:
        fails += _close(f"blanket score {s['subset']}", s["score"],
                        cut_divergence(mat, dims, s["subset"]))
    vmin = min(s["score"] for s in out["scores"])
    first = next(s["subset"] for s in out["scores"] if s["score"] <= vmin + TOL)
    if out["argmin"] != first:
        fails.append(f"blanket argmin {out['argmin']} != {first}")
    return fails


_NEWICK_TOKEN = re.compile(r"\(|\)|,|;|\[&phi=[^\]]*\]|[0-9]+")


def parse_newick(text: str):
    """Nested (members, phi, children) tuples; leaves have phi None."""
    tokens = _NEWICK_TOKEN.findall(text.strip())
    pos = 0

    def node():
        nonlocal pos
        if tokens[pos] == "(":
            pos += 1
            kids = [node()]
            while tokens[pos] == ",":
                pos += 1
                kids.append(node())
            if tokens[pos] != ")":
                raise ValueError("unbalanced Newick")
            pos += 1
            value = float(tokens[pos][len("[&phi="):-1])
            pos += 1
            members = tuple(sorted(m for k in kids for m in k[0]))
            return members, value, kids
        leaf = int(tokens[pos])
        pos += 1
        return (leaf,), None, []

    root = node()
    if tokens[pos:] != [";"]:
        raise ValueError("trailing Newick tokens")
    return root


def check_newick(mat, dims, text: str) -> list:
    """Every internal node's phi equals the oracle phi of its reduced state."""
    try:
        root = parse_newick(text)
    except (ValueError, IndexError) as exc:
        return [f"unparseable Newick: {exc}"]
    if root[0] != tuple(range(len(dims))):
        return [f"dendrogram leaves {root[0]}"]
    fails = []
    stack = [root]
    while stack:
        members, value, kids = stack.pop()
        if not kids:
            continue
        sub_dims = [dims[i] for i in members]
        sub = marginal(mat, dims, members)
        fails += _close(f"dendrogram node {list(members)}", value, phi(sub, sub_dims), NEWICK_TOL)
        stack.extend(kids)
    return fails


def check_pure_file(text: str, want_dims) -> list:
    """A written pure state: layout, hermiticity, unit trace and purity."""
    dims, mat = decode_qstate(text)
    if dims != tuple(want_dims):
        return [f"written dims {dims} != {tuple(want_dims)}"]
    fails = []
    herm = float(np.max(np.abs(mat - mat.conj().T)))
    if herm > TOL:
        fails.append(f"written state hermiticity defect {herm:.3e}")
    fails += _close("written state trace", float(np.real(np.trace(mat))), 1.0)
    fails += _close("written state purity", float(np.real(np.vdot(mat, mat))), 1.0, 1e-10)
    return fails
