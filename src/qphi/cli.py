"""Command-line front end.

Exit codes: 0 success, 2 validation problem, 3 numerical breakdown,
4 budget or size cap exceeded. All structured output is JSON; dendrograms can
also be printed as Newick or DOT text. Every command that emits a state emits
QSTATE JSON, so commands compose through pipes.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .blanket import blanket_scan
from .dendrogram import build_dendrogram, to_dot, to_json, to_newick
from .divergence import LN2
from .errors import BadParameter, BudgetExceeded, NumericalBreakdown, ValidationError
from .observer import (
    local_dephasing_family,
    local_depolarizing_family,
    maximize_phi,
    observer_spectrum,
    partial_trace_family,
)
from .phi import phi
from .qstate_io import state_from_json, state_to_dict, state_to_json
from .states import (
    bell,
    enumerate_bipartitions,
    Bipartition,
    ghz,
    ginibre_mixed,
    haar_pure,
    random_product,
    substream,
    w_state,
)
from .verify import VerifyConfig, run_suite
from .witness import build_witness, phi_comparison, product_state_scan


def _read_state(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return state_from_json(text)


def _write(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise BadParameter(f"bad --dims {text!r}: {exc}") from exc
    if not dims:
        raise BadParameter("empty --dims")
    return dims


def _parse_cut(text: str, n: int) -> Bipartition:
    try:
        side = tuple(sorted(int(p) for p in text.split(",") if p != ""))
    except ValueError as exc:
        raise BadParameter(f"bad --cut {text!r}: {exc}") from exc
    return Bipartition.of(side, n)


def _convert(value: float, units: str) -> float:
    return value / LN2 if units == "bits" else value


def _cut_lists(cut: Bipartition) -> list:
    a, b = cut.as_lists()
    return [list(a), list(b)]


# ---------------------------------------------------------------------------
# commands

def _cmd_gen(args) -> int:
    kind = args.kind
    seed = args.seed
    if kind == "bell":
        rho = bell()
    elif kind == "ghz":
        rho = ghz(args.n if args.n is not None else 3)
    elif kind == "w":
        rho = w_state(args.n if args.n is not None else 3)
    elif kind == "haar":
        dims = _parse_dims(args.dims or "2,2")
        rho = haar_pure(dims, substream(seed, "gen-haar"))
    elif kind == "ginibre":
        dims = _parse_dims(args.dims or "2,2")
        rank = args.rank if args.rank is not None else int(np.prod(dims))
        rho = ginibre_mixed(dims, rank, substream(seed, "gen-ginibre"))
    elif kind == "product":
        dims = _parse_dims(args.dims or "2,2")
        if args.cut is None:
            cut = enumerate_bipartitions(len(dims))[0]
        else:
            cut = _parse_cut(args.cut, len(dims))
        rho = random_product(dims, cut, substream(seed, "gen-product"))
    else:  # pragma: no cover - argparse restricts choices
        raise BadParameter(f"unknown state kind {kind!r}")
    _write(state_to_json(rho), args.out)
    return 0


def _cmd_phi(args) -> int:
    if args.probe_starts < 0:
        raise BadParameter(f"--probe-starts must be >= 0, got {args.probe_starts}")
    if args.probe_starts > 0 and args.mode != "optimized":
        raise BadParameter("--probe-starts needs --mode optimized")
    rho = _read_state(args.state)
    res = phi(rho, args.mode, n_cap=args.n_cap, probe_starts=args.probe_starts)
    out = {
        "mode": res.mode,
        "units": args.units,
        "phi_nats": res.phi,
        "phi_bits": res.phi / LN2,
        "cut": _cut_lists(res.optimal_cut),
        "ties": [_cut_lists(c) for c in res.ties],
        "tie_count": res.tie_count,
    }
    if res.mode == "optimized":
        out["phi_marginal_nats"] = res.phi_marginal
        out["refinement_spread"] = res.refinement_spread
    if args.per_cut:
        out["per_cut"] = [
            {"cut": _cut_lists(c), "divergence": _convert(v, args.units)}
            for c, v in res.per_cut
        ]
    if args.sigma:
        _write(state_to_json(res.sigma_star), args.sigma)
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_dendrogram(args) -> int:
    rho = _read_state(args.state)
    d = build_dendrogram(rho, args.mode)
    if args.format == "json":
        text = to_json(d)
    elif args.format == "newick":
        text = to_newick(d)
    else:
        text = to_dot(d)
    _write(text, args.out)
    return 0


def _cmd_witness(args) -> int:
    rho = _read_state(args.state)
    res = phi(rho, args.mode)
    w = build_witness(rho, res)
    scan = product_state_scan(w, args.samples, substream(args.seed, "witness-scan"))
    out = {
        "cut": _cut_lists(w.cut),
        "phi_at_construction": w.phi_at_construction,
        "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(w.op)],
        "eigenvalues": [float(e) for e in w.eigenvalues()],
        "comparison": phi_comparison(w, rho),
        "scan": {
            "samples": scan.samples,
            "seed": args.seed,
            "min_expectation": scan.min_expectation,
            "fraction_negative": scan.fraction_negative,
            "argmin_state": state_to_dict(scan.argmin_state),
        },
    }
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _family_for(args, rho):
    if args.family == "dephasing":
        return local_dephasing_family(rho.layout)
    if args.family == "depolarizing":
        return local_depolarizing_family(rho.layout)
    if args.family == "ptrace":
        return partial_trace_family(rho.layout)
    raise BadParameter(f"unknown family {args.family!r}")


def _parse_grid(text: str) -> list:
    axes = []
    for part in text.split(","):
        if not part:
            continue
        if ":" in part:
            idx, npts = part.split(":", 1)
        else:
            raise BadParameter(f"bad --grid entry {part!r}; expected AXIS:POINTS")
        try:
            axes.append((int(idx), int(npts)))
        except ValueError as exc:
            raise BadParameter(f"bad --grid entry {part!r}: {exc}") from exc
    if not axes:
        raise BadParameter("empty --grid")
    return axes


def _parse_fixed(text: str) -> dict:
    fixed = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise BadParameter(f"bad --fixed entry {part!r}; expected AXIS=VALUE")
        k, v = part.split("=", 1)
        try:
            fixed[int(k)] = float(v)
        except ValueError as exc:
            raise BadParameter(f"bad --fixed entry {part!r}: {exc}") from exc
    return fixed


def _cmd_observe(args) -> int:
    rho = _read_state(args.state)
    family = _family_for(args, rho)
    if args.grid:
        axes = _parse_grid(args.grid)
        fixed = _parse_fixed(args.fixed) if args.fixed else None
        sweep = observer_spectrum(rho, family, axes, fixed=fixed, mode=args.mode)
        best = max(range(len(sweep.values)), key=lambda i: sweep.values[i])
        out = {
            "family": args.family,
            "mode": args.mode,
            "axes": [{"index": i, "points": p} for i, p in axes],
            "phi_input": sweep.phi_input,
            "max_value": sweep.values[best],
            "argmax_params": list(sweep.params[best]),
            "fraction_retaining_half": sweep.fraction_retaining_half,
            "values": list(sweep.values),
        }
    else:
        res = maximize_phi(
            rho,
            family,
            budget=args.budget,
            restarts=args.restarts,
            seed=args.seed,
            mode=args.mode,
        )
        out = {
            "family": args.family,
            "mode": args.mode,
            "budget": args.budget,
            "restarts": args.restarts,
            "seed": args.seed,
            "best_params": list(res.best_params),
            "phi_before": res.phi_before,
            "phi_after": res.phi_after,
            "ratio": res.ratio,
            "evaluations": res.evaluations,
            "near_optimal": res.near_optimal,
        }
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_blanket(args) -> int:
    rho = _read_state(args.state)
    res = blanket_scan(rho, args.size, mode=args.mode)
    out = {
        "target_size": res.target_size,
        "scores": [{"subset": list(z), "score": s} for z, s in res.scores],
        "argmin": list(res.argmin),
        "optimal_cut_side": list(res.optimal_cut_side),
        "matches_optimal_cut_side": res.matches_optimal_cut_side,
    }
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise BadParameter(f"invalid config JSON: {exc}") from exc
        if args.seed is not None and isinstance(obj, dict):
            obj["seed"] = args.seed
        cfg = VerifyConfig.from_dict(obj)
    else:
        cfg = VerifyConfig(seed=args.seed if args.seed is not None else 0)
    report = run_suite(cfg, threads=args.threads)
    _write(report.to_json(), args.out)
    return 0 if report.overall == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qphi",
        description="Integrated-information measures for multipartite quantum states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a named state as QSTATE JSON")
    g.add_argument("kind", choices=["bell", "ghz", "w", "haar", "ginibre", "product"])
    g.add_argument("n", nargs="?", type=int, default=None, help="qubit count for ghz/w")
    g.add_argument("--dims", default=None, help="comma-separated subsystem dimensions")
    g.add_argument("--rank", type=int, default=None, help="rank for ginibre states")
    g.add_argument("--cut", default=None, help="comma-separated indices of one product side")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=_cmd_gen)

    def add_state_arg(sp):
        sp.add_argument("state", nargs="?", default="-", help="QSTATE JSON file, or - for stdin")
        sp.add_argument("--out", default=None)

    f = sub.add_parser("phi", help="integrated information of a state")
    add_state_arg(f)
    f.add_argument("--mode", choices=["marginal", "optimized"], default="marginal")
    f.add_argument("--units", choices=["nats", "bits"], default="nats")
    f.add_argument("--per-cut", action="store_true", dest="per_cut")
    f.add_argument("--sigma", default=None, help="write closest product state to this file")
    f.add_argument("--n-cap", type=int, default=12, dest="n_cap")
    f.add_argument(
        "--probe-starts", type=int, default=0, dest="probe_starts",
        help="optimized mode: rerun the refinement from N perturbed starts and "
        "report the spread of the optima as refinement_spread",
    )
    f.set_defaults(fn=_cmd_phi)

    d = sub.add_parser("dendrogram", help="recursive integration tree")
    add_state_arg(d)
    d.add_argument("--format", choices=["json", "newick", "dot"], default="json")
    d.add_argument("--mode", choices=["marginal", "optimized"], default="marginal")
    d.set_defaults(fn=_cmd_dendrogram)

    w = sub.add_parser("witness", help="entanglement witness and product scan")
    add_state_arg(w)
    w.add_argument("--mode", choices=["marginal", "optimized"], default="marginal")
    w.add_argument("--samples", type=int, default=200)
    w.add_argument("--seed", type=int, default=0)
    w.set_defaults(fn=_cmd_witness)

    o = sub.add_parser("observe", help="search a channel family for retained integration")
    add_state_arg(o)
    o.add_argument("--family", choices=["dephasing", "depolarizing", "ptrace"], required=True)
    o.add_argument("--mode", choices=["marginal", "optimized"], default="marginal")
    o.add_argument("--budget", type=int, default=2000)
    o.add_argument("--restarts", type=int, default=8)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--grid", default=None, help="spectrum axes, e.g. 0:64,1:64")
    o.add_argument("--fixed", default=None, help="pinned axes, e.g. 2=0.5")
    o.set_defaults(fn=_cmd_observe)

    b = sub.add_parser("blanket", help="blanket scan: each subset's per-cut divergence")
    add_state_arg(b)
    b.add_argument("--size", type=int, required=True)
    b.add_argument("--mode", choices=["marginal", "optimized"], default="marginal")
    b.set_defaults(fn=_cmd_blanket)

    v = sub.add_parser("verify", help="run the batch verification suite")
    v.add_argument("--config", default=None, help="JSON config file")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--threads", type=int, default=1, help="hint only; results are identical")
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
