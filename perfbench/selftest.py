"""Self-test of the output oracle: correct outputs pass, perturbed ones fail.

Each case runs the program on a small input, checks that the oracle accepts
the true output, then perturbs one reported value by 1e-9 (1e-6 for Newick,
which prints six decimals) and checks that the oracle rejects it.

    PYTHONPATH=src python3 perfbench/selftest.py
"""
from __future__ import annotations

import copy
import re
import sys

import numpy as np

import oracle
import workloads as wl

EPS = 1e-9


def _expect(label: str, check, good, bad) -> list:
    fails = []
    if check(good):
        fails.append(f"{label}: oracle rejects the correct output: {check(good)}")
    if not check(bad):
        fails.append(f"{label}: perturbed output not caught")
    return fails


def _bumped(out: dict, path, eps=EPS) -> dict:
    bad = copy.deepcopy(out)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += eps
    return bad


def run_selftest() -> list:
    import qphi

    fails = []
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    dims = (2, 2, 2)
    mat = wl.random_density(dims, "full", wl.rng_for(0, 999))
    rho = qphi.DensityMatrix(qphi.SubsystemLayout(dims), mat)

    out = wl.phi_output(qphi.phi(rho, "marginal"))
    check = lambda o: oracle.check_phi(mat, dims, o, rng())  # noqa: E731
    fails += _expect("phi value", check, out, _bumped(out, ["phi"]))
    k = next(i for i, (side, _) in enumerate(out["per_cut"]) if side == out["cut"])
    both = _bumped(_bumped(out, ["phi"]), ["per_cut", k, 1])
    fails += _expect("phi and its per-cut entry", check, out, both)
    other = next(i for i in range(len(out["per_cut"])) if i != k)
    fails += _expect("non-optimal per-cut entry", check, out, _bumped(out, ["per_cut", other, 1]))

    cli_out = {"cut": [out["cut"], [i for i in range(3) if i not in out["cut"]]],
               "phi_nats": out["phi"]}
    fails += _expect("cli phi", lambda o: oracle.check_cli_phi(mat, dims, o, rng()),
                     cli_out, _bumped(cli_out, ["phi_nats"]))

    family = qphi.local_depolarizing_family(rho.layout)
    obs = wl.observe_output(qphi.maximize_phi(rho, family, budget=40, restarts=2, seed=0))
    mapped = np.asarray(family.apply(obs["best_params"], rho).mat)
    fails += _expect("observer phi_after", lambda o: oracle.check_observe(o, 40, mapped, dims),
                     obs, _bumped(obs, ["phi_after"]))

    ghz3 = wl.ghz_matrix(3)
    res = qphi.blanket_scan(qphi.DensityMatrix(qphi.SubsystemLayout(dims), ghz3), 1)
    blanket = {"target_size": 1, "argmin": list(res.argmin),
               "scores": [{"subset": list(z), "score": s} for z, s in res.scores]}
    fails += _expect("blanket score", lambda o: oracle.check_blanket(ghz3, dims, o),
                     blanket, _bumped(blanket, ["scores", 1, "score"]))

    newick = qphi.to_newick(qphi.build_dendrogram(rho))
    root = re.findall(r"\[&phi=([0-9.]+)\];$", newick)[0]
    bad_newick = newick[: -len(root) - 2] + f"{float(root) + 1e-6:.6f}];"
    fails += _expect("dendrogram root", lambda t: oracle.check_newick(mat, dims, t),
                     newick, bad_newick)

    report = {"overall": "pass",
              "checks": [{"name": n, "kind": "assert", "status": "pass"}
                         for n in wl.VERIFY_ASSERTED]}
    bad_report = copy.deepcopy(report)
    bad_report["checks"][0]["status"] = "fail"
    fails += _expect("verify report", lambda r: oracle.check_verify(r, wl.VERIFY_ASSERTED),
                     report, bad_report)

    pure = qphi.state_to_json(qphi.haar_pure((2, 2), 0))
    dims_p, mat_p = oracle.decode_qstate(pure)
    mat_p[0, 0] += EPS
    bad_pure = qphi.state_to_json(qphi.DensityMatrix(qphi.SubsystemLayout(dims_p), mat_p))
    fails += _expect("written state", lambda t: oracle.check_pure_file(t, (2, 2)), pure, bad_pure)
    return fails


if __name__ == "__main__":
    problems = run_selftest()
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
