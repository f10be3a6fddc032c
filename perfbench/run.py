"""qphi benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload library --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (wall_ref_s, setup_s,
peak_rss_mb), with times scaled to a reference host speed by ``calib.py``;
with ``--trace 1`` it runs the batch untraced and then traced in one process
and reports the per-layer metrics. Every op's output is checked against an
independent oracle outside the timed region. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "qstate_io.write_s": "s",
    "qstate_io.read_s": "s",
    "qstate_io.bytes_written": "bytes",
    "qstate_io.bytes_read": "bytes",
    "qstate_io.read_mb_per_s": "MB/s",
    "states.partial_trace_calls": "count",
    "states.partial_trace_s": "s",
    "states.product_of_marginals_s": "s",
    "states.assemble_s": "s",
    "states.validate_s": "s",
    "divergence.entropy_calls": "count",
    "divergence.entropy_s": "s",
    "divergence.entropy_share": "1",
    "divergence.entropy_dim_max": "count",
    "divergence.eig_work_d3": "count",
    "divergence.entropy_repeat_ratio": "1",
    "divergence.qjsd_calls": "count",
    "divergence.qjsd_self_s": "s",
    "phi.calls": "count",
    "phi.cuts_scored": "count",
    "phi.self_s": "s",
    "phi.full_rank_s": "s",
    "phi.low_rank_s": "s",
    "phi.pure_s": "s",
    "phi.optimized_calls": "count",
    "phi.optimized_s": "s",
    "phi.refine_qjsd_calls": "count",
    "phi.refine_improved_ratio": "1",
    "search.line_searches": "count",
    "search.line_evals": "count",
    "search.s": "s",
    "channels.apply_calls": "count",
    "channels.apply_s": "s",
    "observer.evals": "count",
    "observer.eval_ms": "ms",
    "observer.budget_used_ratio": "1",
    "blanket.petz_calls": "count",
    "blanket.petz_s": "s",
    "blanket.scan_s": "s",
    "dendrogram.build_s": "s",
    "dendrogram.phi_calls": "count",
    "witness.s": "s",
    "verify.run_suite_s": "s",
    "verify.phi_share": "1",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "1",
}


def child_env() -> dict:
    """Pinned BLAS threads and ``src`` on the path, for every child process."""
    from envinfo import BLAS_THREAD_VARS

    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_probe(env, workload: str, seed: int, clock, timeout: float) -> tuple[float, float]:
    """Seconds from spawning a fresh process until its inputs are ready, as
    measured and scaled by the calibration clock."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--probe"]
    proc = None

    def start():
        nonlocal proc
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                start_new_session=True)
        return proc.stdout.readline()

    try:
        line, error, net, ref, _ = clock.span(start, settle=lambda _: proc.wait(timeout=timeout))
    finally:
        if proc is not None:
            if proc.poll() is None:
                _stop(proc)
            proc.stdout.close()
    if error is not None or line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc and proc.returncode}): {error}")
    return net, ref


def import_probe(env, timeout: float) -> tuple[float, float]:
    from envinfo import parse_importtime

    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qphi.cli"],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if p.returncode != 0:
        raise RuntimeError(f"import probe failed: {p.stderr[-500:]}")
    return parse_importtime(p.stderr)


def run_worker(env, args, raw_path: Path, spans_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(raw_path), "--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    with open(raw_path, encoding="utf-8") as fh:
        result = json.load(fh)
    raw_path.unlink()
    return result


# -- output checks -------------------------------------------------------------

def make_checker(workload: str, seed: int):
    """check(op name, output) -> list of failures, memoized per distinct output."""
    import numpy as np

    import oracle
    import workloads as wl

    if workload == "library":
        import qphi

        cases = {name: (k, dims, mat)
                 for k, (name, dims, mat) in enumerate(wl.phi_large_inputs(seed))}
        inputs = {name: (dims, mat, kind) for name, dims, mat, kind in wl.observe_inputs(seed)}

        def check(name, out):
            if name == "verify":
                return oracle.check_verify(out, wl.VERIFY_ASSERTED)
            if name in inputs:
                dims, mat, kind = inputs[name]
                return _check_observe(qphi, oracle, out, wl.OBSERVE_BUDGET, dims, mat, kind)
            k, dims, mat = cases[name]
            return oracle.check_phi(mat, dims, out, np.random.default_rng([seed, 7, k]))

    else:
        import qphi

        bell = wl.ghz_matrix(2)

        def check(name, out):
            text = out["stdout"]
            if name.startswith("gen-bell"):
                dims, mat = oracle.decode_qstate(text)
                return oracle.check_state("gen bell", dims, mat, (2, 2), bell)
            if name == "gen-haar9-write":
                written = (ROOT / wl.haar_write_path(seed)).read_text(encoding="utf-8")
                return oracle.check_pure_file(written, (2,) * 9)
            dims, mat = oracle.decode_qstate(out["piped"])
            if name == "pipe-ghz8-phi":
                return (oracle.check_state("gen ghz 8", dims, mat, (2,) * 8, wl.ghz_matrix(8))
                        + oracle.check_cli_phi(mat, dims, json.loads(text),
                                               np.random.default_rng([seed, 8])))
            if name == "pipe-ginibre6-dendrogram":
                return oracle.check_newick(mat, dims, text)
            if name == "pipe-ghz3-blanket":
                return (oracle.check_state("gen ghz 3", dims, mat, (2,) * 3, wl.ghz_matrix(3))
                        + oracle.check_blanket(mat, dims, json.loads(text)))
            if name == "pipe-bell-observe":
                return (oracle.check_state("gen bell", dims, mat, (2, 2), bell)
                        + _check_observe(qphi, oracle, json.loads(text), wl.CLI_OBSERVE_BUDGET,
                                         dims, mat, "dephasing"))
            return [f"no check for op {name}"]

    memo: dict = {}

    def checked(name, out):
        key = (name, json.dumps(out, sort_keys=True))
        if key not in memo:
            try:
                memo[key] = check(name, out)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                memo[key] = [f"output not checkable: {type(exc).__name__}: {exc}"]
        return memo[key]

    return checked


def _check_observe(qphi, oracle, out, budget, dims, mat, kind):
    import numpy as np

    import workloads as wl

    rho = qphi.DensityMatrix(qphi.SubsystemLayout(dims), mat)
    mapped = wl.observer_family(qphi, kind, rho.layout).apply(out["best_params"], rho)
    return oracle.check_observe(out, budget, np.asarray(mapped.mat), dims)


# -- main ----------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def op_medians(ops, key: str) -> dict:
    """{op name: median of ``key`` over the op's runs}."""
    times: dict = {}
    for rec in ops:
        times.setdefault(rec["name"], []).append(rec[key])
    return {name: _median(v) for name, v in times.items()}


def workload_extras(workload: str, ref: dict) -> dict:
    """The workload's own headline timings, scaled like wall_ref_s, for the log."""
    if workload == "cli-pipeline":
        return {"cold_start_ref_s": _median([v for n, v in ref.items()
                                             if n.startswith("gen-bell")]),
                "pipe_ghz8_ref_s": ref["pipe-ghz8-phi"]}
    return {"phi_large_ref_s": sum(v for n, v in ref.items()
                                   if n.startswith(("ginibre", "haar"))),
            "verify_ref_s": ref["verify"],
            "observe_ref_s": sum(v for n, v in ref.items() if n.startswith("observe"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("library", "cli-pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "qphi" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'qphi'}", file=sys.stderr)
        return 2

    env = child_env()
    os.environ.update(env)
    sys.path.insert(0, str(ROOT / "src"))
    import calib
    import envinfo
    import selftest
    import workloads as wl

    OUT.mkdir(exist_ok=True)
    remaining = lambda: RUN_LIMIT_S - (time.perf_counter() - started)  # noqa: E731
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cpu = calib.pin_to_one_cpu()
    try:
        setups, setups_ref, imports = [], [], []
        if args.trace:
            imports = [import_probe(env, remaining()) for _ in range(IMPORT_REPEATS)]
        else:
            clock = calib.Clock()
            for _ in range(SETUP_REPEATS):
                net, ref = setup_probe(env, args.workload, args.seed, clock, remaining())
                setups.append(net)
                setups_ref.append(ref)
        result = run_worker(env, args, OUT / f"raw-{tag}.json",
                            OUT / f"spans-{args.workload}.tsv", remaining())
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    check = make_checker(args.workload, args.seed)
    attempted = failed = 0
    op_report = []
    for rec in result["ops"]:
        fails = [rec["error"]] if not rec["ok"] else check(rec["name"], rec["output"])
        attempted += 1
        failed += bool(fails)
        op_report.append({**{k: v for k, v in rec.items() if k not in ("output", "ok", "error")},
                          "failures": fails})
        for f in fails:
            print(f"FAILED {rec['name']} (batch {rec['batch']}): {f}", file=sys.stderr)
    self_fails = selftest.run_selftest()
    for f in self_fails:
        print(f"oracle self-test: {f}", file=sys.stderr)
    (ROOT / wl.haar_write_path(args.seed)).unlink(missing_ok=True)

    extra = {"failed_ratio": failed / attempted, "ops_run": attempted, "cpu": cpu}
    if args.trace:
        values = dict(result["layer_metrics"])
        values["cli.import_s"] = _median([t for t, _ in imports])
        values["cli.import_scipy_s"] = _median([s for _, s in imports])
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        extra["untraced_wall_s"] = result["untraced_wall_s"]
        extra["traced_wall_s"] = result["traced_wall_s"]
        extra["spans"] = values["trace.spans"]
    else:
        ref = op_medians(result["ops"], "ref_seconds")
        values = {"wall_ref_s": sum(ref.values()), "setup_s": _median(setups_ref),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        extra["wall_s"] = sum(op_medians(result["ops"], "seconds").values())
        extra["setup_raw_s"] = _median(setups)
        extra["measured_s"] = result["measured_s"]
        extra.update(workload_extras(args.workload, ref))

    env_record = envinfo.record(ROOT)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env_record, "metrics": metrics, "extra": extra,
                   "setup_probes_s": setups, "import_probes_s": imports,
                   "self_times_s": result.get("self_times"), "ops": op_report,
                   "selftest_failures": self_fails}, fh, indent=1)

    shown = {**{k: v["value"] for k, v in metrics.items()}, **extra}
    print(f"env: {json.dumps(env_record)}")
    print(f"{args.workload} seed={args.seed}: "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in shown.items()))
    print(json.dumps({"correct": failed == 0 and not self_fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
