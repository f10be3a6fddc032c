"""Runs one workload's fixed batch in a fresh process and writes the raw results.

Started by ``run.py``; not meant to be run by hand. One closed-loop client:
each op starts only after the previous one has finished.

    worker.py --workload W --seed S --seconds T --trace 0|1 --out FILE
    worker.py --workload W --seed S --probe   # set up, print "ready", exit
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BRACKET_BELOW_S = 20.0  # a traced run stays well inside its time limit below this


# -- set-up: import the program and build the seeded inputs -------------------

def prepare(workload: str, seed: int, in_process_cli: bool):
    """[(op name, call, to_output)]; only ``call`` is timed."""
    import qphi

    if workload == "library":
        ops = []
        for name, dims, mat in wl.phi_large_inputs(seed):
            rho = qphi.DensityMatrix(qphi.SubsystemLayout(dims), mat)
            ops.append((name, lambda rho=rho: qphi.phi(rho, "marginal"), wl.phi_output))
        config = qphi.VerifyConfig(seed=wl.VERIFY_SEED)
        ops.append(("verify", lambda: qphi.run_suite(config), lambda rep: rep.to_dict()))
        for name, dims, mat, kind in wl.observe_inputs(seed):
            rho = qphi.DensityMatrix(qphi.SubsystemLayout(dims), mat)
            family = wl.observer_family(qphi, kind, rho.layout)

            def call(rho=rho, family=family):
                return qphi.maximize_phi(rho, family, budget=wl.OBSERVE_BUDGET,
                                         restarts=wl.OBSERVE_RESTARTS, seed=seed)

            ops.append((name, call, wl.observe_output))
        return ops

    import qphi.cli  # noqa: F401  (the CLI's own import cost is part of set-up)

    run = replay_cli if in_process_cli else spawn_cli
    return [(name, lambda a=a, b=b: run(a, b), lambda out: out)
            for name, a, b in wl.cli_ops(seed)]


# -- the CLI as separate processes, or replayed in this one -------------------

def _drain(stream, sink: list):
    sink.append(stream.read())


def spawn_cli(producer, consumer):
    """Run ``qphi <producer>`` alone, or ``qphi <producer> | qphi <consumer>``.

    System calls interrupted by the calibration clock's SIGALRM are retried
    (PEP 475); the children do not inherit its timer."""
    cmd = [sys.executable, "-m", "qphi.cli"]
    if consumer is None:
        p = subprocess.run(cmd + producer, cwd=ROOT, stdin=subprocess.DEVNULL,
                           capture_output=True)
        return {"rc": [p.returncode], "stdout": p.stdout.decode(),
                "stderr": p.stderr.decode()[-2000:], "piped": None}
    p1 = subprocess.Popen(cmd + producer, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    p2 = subprocess.Popen(cmd + consumer, cwd=ROOT, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    piped: list = []

    def pump():
        try:
            for chunk in iter(lambda: p1.stdout.read(1 << 16), b""):
                piped.append(chunk)
                p2.stdin.write(chunk)
        except BrokenPipeError:
            pass
        finally:
            try:
                p2.stdin.close()
            except BrokenPipeError:
                pass

    err1: list = []
    err2: list = []
    out2: list = []
    threads = [threading.Thread(target=pump),
               threading.Thread(target=_drain, args=(p1.stderr, err1)),
               threading.Thread(target=_drain, args=(p2.stderr, err2))]
    for t in threads:
        t.start()
    _drain(p2.stdout, out2)
    for t in threads:
        t.join()
    rc = [p1.wait(), p2.wait()]
    return {"rc": rc, "stdout": out2[0].decode(),
            "stderr": (err1[0] + err2[0]).decode()[-2000:],
            "piped": b"".join(piped).decode()}


def _cli_main(argv, stdin_text: str):
    import qphi.cli

    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        try:
            rc = qphi.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
        return rc, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old


def replay_cli(producer, consumer):
    """The same argv through ``qphi.cli.main`` in this process."""
    rc1, out1, err1 = _cli_main(producer, "")
    if consumer is None:
        return {"rc": [rc1], "stdout": out1, "stderr": err1[-2000:], "piped": None}
    rc2, out2, err2 = _cli_main(consumer, out1)
    return {"rc": [rc1, rc2], "stdout": out2, "stderr": (err1 + err2)[-2000:], "piped": out1}


# -- batches ----------------------------------------------------------------

def _record(batch, name, to_output, res, error, seconds) -> dict:
    rec = {"batch": batch, "name": name, "ok": True, "error": None, "output": None,
           "seconds": seconds}
    if error is not None:  # a failed op is counted, the run goes on
        rec.update(ok=False, error=f"{type(error).__name__}: {error}")
        return rec
    rec["output"] = to_output(res)
    if "rc" in rec["output"] and any(rc != 0 for rc in rec["output"]["rc"]):
        rec.update(ok=False, error=f"exit codes {rec['output']['rc']}")
    return rec


def run_batch(ops, batch: int, tracer=None):
    """The batch once, timed by the plain clock: (records, wall seconds)."""
    records = []
    start = perf_counter()
    for k, (name, call, to_output) in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        res = error = None
        t0 = perf_counter()
        try:
            res = call()
        except Exception as exc:
            error = exc
        records.append(_record(batch, name, to_output, res, error, perf_counter() - t0))
    return records, perf_counter() - start


def measure(ops, seconds: float, in_process: bool) -> dict:
    """Run the batch's ops in order, round and round, until ``seconds`` have
    passed and every op has run at least once, each timed by the
    calibration clock."""
    import calib  # here, so that set-up probes do not pay for it

    clock = calib.Clock()
    records = []
    start = perf_counter()
    k = 0
    while k < len(ops) or perf_counter() - start < seconds:
        name, call, to_output = ops[k % len(ops)]
        res, error, net, ref, samples = clock.span(call)
        rec = _record(k // len(ops), name, to_output, res, error, net)
        rec.update(ref_seconds=ref, kernel_s=samples)
        records.append(rec)
        k += 1
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return {"ops": records, "measured_s": perf_counter() - start,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def measure_traced(ops, spans_path: str) -> dict:
    """The batch untraced, then traced, in this process; a short batch runs
    untraced once more afterwards, so that costs paid only by the first run
    in a process do not read as negative overhead."""
    from tracer import Tracer

    records, plain_s = run_batch(ops, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = run_batch(ops, 1, tracer)
    finally:
        tracer.uninstall()
    records += traced
    if plain_s < BRACKET_BELOW_S:
        again, again_s = run_batch(ops, 2)
        records += again
        plain_s = (plain_s + again_s) / 2.0
    metrics, bad_ops = tracer.layer_metrics()
    for k in bad_ops:
        traced[k].update(ok=False, error="optimized phi above its marginal value")
    net = traced_s - tracer.hook_s
    metrics["divergence.entropy_share"] = metrics["divergence.entropy_s"] / net
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain_s
    tracer.write_spans(spans_path)
    return {"ops": records, "untraced_wall_s": plain_s, "traced_wall_s": traced_s,
            "layer_metrics": metrics, "self_times": tracer.self_times()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    in_process_cli = bool(args.trace)
    ops = prepare(args.workload, args.seed, in_process_cli)
    if args.probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        result = measure_traced(ops, args.spans)
    else:
        result = measure(ops, args.seconds, in_process=args.workload == "library")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
