"""Command-line front end.

Exit codes: 0 success, 2 validation problem, 3 numerical breakdown,
4 budget or size cap exceeded, 141 (128 + SIGPIPE) stdout closed by its
reader before all output was written, with no error printed. No command
checks a state's size: :class:`qphi.states.SubsystemLayout` refuses every
layout above the package's size cap, in gen, in the QSTATE reader and in
verify configs alike. All structured output is JSON; dendrograms can also
be printed as Newick or DOT text. Every command that emits a state emits
QSTATE JSON, so commands compose through pipes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    BadParameter,
    BudgetExceeded,
    NumericalBreakdown,
    ValidationError,
)

if TYPE_CHECKING:
    from .states import Bipartition

# Each command imports the modules it uses when it runs, so that a process
# loads (and, without cached bytecode, compiles) only its own command's code.


def _read_state(path: str):
    from .qstate_io import state_from_json

    if path == "-":
        # the bytes, where stdin has them: the parser decodes them, so bytes
        # that are not UTF-8 are bad input whatever the locale
        return state_from_json(getattr(sys.stdin, "buffer", sys.stdin).read())
    with open(path, "rb") as fh:
        return state_from_json(fh.read())


def _emit(write, out: str | None) -> None:
    """Call ``write(stream)`` on the file ``out``, or on stdout when ``out``
    is unset or ``-``."""
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _write(text: str, out: str | None) -> None:
    def write(fh):
        fh.write(text)
        # a write of its own: when the reader of a pipe leaves during a large
        # write, that write returns short without an error, and only the
        # next write reports the closed pipe
        if not text.endswith("\n"):
            fh.write("\n")

    _emit(write, out)


def _write_state(rho, out: str | None) -> None:
    from .qstate_io import write_state

    _emit(lambda fh: write_state(rho, fh), out)


def _comma_list(text: str, flag: str, form: str, item) -> list:
    """The non-empty comma-separated entries of ``flag``, each converted by
    ``item``, which raises ValueError on an entry not of ``form``."""
    out = []
    for part in text.split(","):
        if part:
            try:
                out.append(item(part))
            except ValueError as exc:
                raise BadParameter(f"bad {flag} entry {part!r}; expected {form}") from exc
    if not out:
        raise BadParameter(f"empty {flag}")
    return out


def _pair(sep: str, value):
    """Converter of an entry ``AXIS<sep>VALUE`` to (int, value)."""

    def item(part: str):
        k, v = part.split(sep, 1)
        return int(k), value(v)

    return item


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(_comma_list(text, "--dims", "an integer", int))


def _cut_lists(cut: Bipartition) -> list:
    a, b = cut.as_lists()
    return [list(a), list(b)]


# ---------------------------------------------------------------------------
# commands

# the kinds each of gen's optional inputs applies to; given to any other
# kind, it is refused rather than ignored
_GEN_FLAG_KINDS = {
    "n": ("ghz", "w"),
    "--dims": ("haar", "ginibre", "product"),
    "--rank": ("ginibre",),
    "--cut": ("product",),
}


def _cmd_gen(args) -> int:
    from .states import (
        Bipartition,
        SubsystemLayout,
        _int,
        bell,
        enumerate_bipartitions,
        ghz,
        ginibre_mixed,
        haar_pure,
        random_product,
        substream,
        w_state,
    )

    kind = args.kind
    for flag, kinds in _GEN_FLAG_KINDS.items():
        if getattr(args, flag.lstrip("-")) is not None and kind not in kinds:
            raise BadParameter(f"{flag} does not apply to gen {kind}, only to {', '.join(kinds)}")
    seed = _int(args.seed, 0, BadParameter, "seed")  # refused for every kind, used or not
    if kind == "bell":
        rho = bell()
    elif kind in ("ghz", "w"):
        n = args.n if args.n is not None else 3
        rho = ghz(n) if kind == "ghz" else w_state(n)
    else:
        layout = SubsystemLayout(_parse_dims(args.dims or "2,2"))
        if kind == "haar":
            rho = haar_pure(layout, substream(seed, "gen-haar"))
        elif kind == "ginibre":
            rank = args.rank if args.rank is not None else layout.dim
            rho = ginibre_mixed(layout, rank, substream(seed, "gen-ginibre"))
        elif kind == "product":
            if args.cut is None:
                cut = enumerate_bipartitions(layout.n)[0]
            else:
                cut = Bipartition.of(_comma_list(args.cut, "--cut", "an integer", int), layout.n)
            rho = random_product(layout, cut, substream(seed, "gen-product"))
        else:  # pragma: no cover - argparse restricts choices
            raise BadParameter(f"unknown state kind {kind!r}")
    _write_state(rho, args.out)
    return 0


def _cmd_phi(args) -> int:
    from .divergence import LN2
    from .phi import phi

    if args.sigma == "-" and (args.out or "-") == "-":
        raise BadParameter("--sigma - needs --out FILE: stdout takes one JSON document")
    rho = _read_state(args.state)
    res = phi(rho, args.mode, probe_starts=args.probe_starts)
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
            {"cut": _cut_lists(c), "divergence": v / LN2 if args.units == "bits" else v}
            for c, v in res.per_cut
        ]
    if args.sigma:
        _write_state(res.sigma_star, args.sigma)
    _write(json.dumps(out, indent=2), args.out)
    return 0


def _cmd_dendrogram(args) -> int:
    from .dendrogram import build_dendrogram, to_dot, to_json, to_newick

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
    from .phi import phi
    from .qstate_io import _encode_matrix, state_to_dict
    from .states import substream
    from .witness import build_witness, phi_comparison, product_state_scan

    rho = _read_state(args.state)
    res = phi(rho, args.mode)
    w = build_witness(rho, res)
    scan = product_state_scan(w, args.samples, substream(args.seed, "witness-scan"))
    out = {
        "cut": _cut_lists(w.cut),
        "phi_at_construction": w.phi_at_construction,
        "matrix": _encode_matrix(w.op),
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
    from .observer import (
        local_dephasing_family,
        local_depolarizing_family,
        partial_trace_family,
    )

    if args.family == "dephasing":
        return local_dephasing_family(rho.layout)
    if args.family == "depolarizing":
        return local_depolarizing_family(rho.layout)
    if args.family == "ptrace":
        return partial_trace_family(rho.layout)
    raise BadParameter(f"unknown family {args.family!r}")


def _cmd_observe(args) -> int:
    from .observer import maximize_phi, observer_spectrum

    if args.fixed and not args.grid:
        raise BadParameter("--fixed pins grid axes and needs --grid")
    rho = _read_state(args.state)
    family = _family_for(args, rho)
    if args.grid:
        axes = _comma_list(args.grid, "--grid", "AXIS:POINTS", _pair(":", int))
        fixed = None
        if args.fixed:
            fixed = dict(_comma_list(args.fixed, "--fixed", "AXIS=VALUE", _pair("=", float)))
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
    from .blanket import blanket_scan

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
    from .qstate_io import _loads
    from .verify import VerifyConfig, run_suite

    if args.config:
        with open(args.config, "rb") as fh:
            obj = _loads(fh.read())
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
    f.add_argument("--sigma", default=None, help="write closest product state here (- needs --out)")
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
    o.add_argument("--restarts", type=int, default=8,
                   help="most restarts; as many run as the budget funds at 6 evaluations each")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--grid", default=None, help="spectrum axes, e.g. 0:64,1:64")
    o.add_argument("--fixed", default=None, help="with --grid: pinned parameters, e.g. 2=0.5")
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
        code = args.fn(args)
        # here, not at exit: a closed pipe may show only when the last
        # buffered output is flushed
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull so that the
        # interpreter's flush at exit cannot raise again (Python docs, "Note
        # on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
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
