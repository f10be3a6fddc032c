"""Span tracing for the traced benchmark run, from outside the program.

Each traced function is replaced, in every ``qphi`` module namespace that
binds it, by a wrapper that records a span: name, start, end, parent span,
top-level op id and whether it raised. Hooks that inspect arguments or
results (fingerprinting an entropy input, classifying a state's rank) run
outside the span's own interval, and their time is subtracted from every
enclosing span, so layer times are not inflated by the tracer's bookkeeping.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
from array import array
from functools import lru_cache
from time import perf_counter

import numpy as np

RANK_TOL = 1e-10
IMPROVE_TOL = 1e-12
LARGE_DIM = 64  # phi calls at this Hilbert-space dimension or above count as large


def _rank_class(rho) -> str:
    w = np.linalg.eigvalsh(np.asarray(rho.mat))
    rank = int(np.sum(w > RANK_TOL))
    if rank == 1:
        return "pure"
    return "full" if rank == w.size else "low"


@lru_cache(maxsize=None)
def _probe(d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _fingerprint(mat: np.ndarray) -> bytes:
    """Digest of mat @ v for a fixed random v: equal inputs always match, and
    distinct ones collide with probability zero, at O(D^2) instead of hashing
    all D^2 entries."""
    v = _probe(mat.shape[1])
    return hashlib.blake2b(np.ascontiguousarray(mat @ v).tobytes(), digest_size=16).digest()


def _entropy_pre(fn, args, kwargs):
    x = args[0] if args else kwargs["rho"]
    mat = np.asarray(getattr(x, "mat", x))
    return [mat.shape[0], _fingerprint(mat)]


def _phi_pre(fn, args, kwargs):
    rho = args[0] if args else kwargs["rho"]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "marginal")
    return [mode, _rank_class(rho), rho.dim]


def _phi_post(res, info):
    info.append(len(res.per_cut))
    info.append(res.phi < res.phi_marginal - IMPROVE_TOL)
    # optimized mode may only lower the marginal value
    info.append(res.phi <= res.phi_marginal + IMPROVE_TOL)


def _golden_post(res, info):
    info.append(res[2])


def _observe_pre(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return [bound.arguments["budget"]]


def _observe_post(res, info):
    info.append(res.evaluations)


def _from_json_pre(fn, args, kwargs):
    text = args[0] if args else kwargs["text"]
    return [len(text)]


def _to_json_post(res, info):
    info.append(len(res))


# layer -> {function name: (pre hook, post hook)}
TRACED = {
    "states": {
        "partial_trace": (None, None),
        "product_of_marginals": (None, None),
        "assemble_on_subsets": (None, None),
        "validate_state": (None, None),
    },
    "divergence": {
        "von_neumann_entropy": (_entropy_pre, None),
        "qjsd": (None, None),
    },
    "phi": {"phi": (_phi_pre, _phi_post)},
    "search": {"golden_max": (None, _golden_post), "golden_min": (None, _golden_post)},
    "channels": {"apply_channel": (None, None), "apply_local": (None, None)},
    "observer": {"maximize_phi": (_observe_pre, _observe_post)},
    "blanket": {"petz_recover": (None, None), "blanket_scan": (None, None)},
    "dendrogram": {"build_dendrogram": (None, None)},
    "witness": {
        "build_witness": (None, None),
        "expectation": (None, None),
        "product_state_scan": (None, None),
        "phi_comparison": (None, None),
    },
    "verify": {"run_suite": (None, None)},
    "qstate_io": {
        "state_to_json": (None, _to_json_post),
        "state_from_json": (_from_json_pre, None),
    },
}


def _qphi_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qphi" or name.startswith("qphi."))]


class Tracer:
    """Records spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.parent = array("l")
        self.op_ids = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.hooks_inside = array("d")
        self.raised = bytearray()
        self.outer_name = bytearray()   # no enclosing span of the same function
        self.outer_layer = bytearray()  # no enclosing span of the same layer
        self.info: list = []
        self.op = -1
        self.hook_s = 0.0
        self._stack: list[int] = []
        self._active_name: dict[str, int] = {}
        self._active_layer: dict[str, int] = {}
        self._patched: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, layer, name, fn, pre, post):
        tracer = self
        stack = self._stack
        act_n = self._active_name
        act_l = self._active_layer

        def wrapper(*args, **kwargs):
            h = perf_counter()
            info = pre(fn, args, kwargs) if pre is not None else ([] if post is not None else None)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.layers.append(layer)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_ids.append(tracer.op)
            tracer.info.append(info)
            tracer.outer_name.append(act_n[name] == 0)
            tracer.outer_layer.append(act_l[layer] == 0)
            tracer.raised.append(0)
            act_n[name] += 1
            act_l[layer] += 1
            stack.append(idx)
            start = perf_counter()
            tracer.hook_s += start - h
            hooks_at_start = tracer.hook_s
            tracer.t0.append(start)
            tracer.t1.append(start)
            tracer.hooks_inside.append(0.0)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer.t1[idx] = perf_counter()
                tracer.hooks_inside[idx] = tracer.hook_s - hooks_at_start
                stack.pop()
                act_n[name] -= 1
                act_l[layer] -= 1
            if post is not None:
                h = perf_counter()
                post(res, info)
                tracer.hook_s += perf_counter() - h
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = _qphi_modules()
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"qphi.{layer}")
            for name, (pre, post) in funcs.items():
                fn = getattr(home, name)
                wrapper = self._wrap(layer, name, fn, pre, post)
                self._active_name[name] = 0
                self._active_layer[layer] = 0
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- reporting --------------------------------------------------------

    def durations(self):
        """Per span: duration net of tracer hooks, and self time."""
        n = len(self.names)
        dur = [self.t1[i] - self.t0[i] - self.hooks_inside[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def self_times(self) -> dict:
        _, self_t = self.durations()
        out: dict = {}
        for name, s in zip(self.names, self_t):
            out[name] = out.get(name, 0.0) + s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\top\traised\thook_s\n")
            base = self.t0[0] if self.names else 0.0
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{name}\t{self.t0[i] - base:.9f}\t{self.t1[i] - base:.9f}\t"
                    f"{self.parent[i]}\t{self.op_ids[i]}\t{self.raised[i]}\t"
                    f"{self.hooks_inside[i]:.9f}\n"
                )

    def layer_metrics(self):
        """The per-layer metrics, plus the ids of ops in which an optimized-mode
        phi exceeded its marginal value (the caller counts those as failed)."""
        names, info, parent, op_ids = self.names, self.info, self.parent, self.op_ids
        n = len(names)
        dur, self_t = self.durations()
        out_n, out_l = self.outer_name, self.outer_layer
        spans: dict = {}
        for i, name in enumerate(names):
            spans.setdefault(name, []).append(i)

        def of(fname):
            return spans.get(fname, [])

        def total(fname):
            return sum(dur[i] for i in of(fname) if out_n[i])

        # ancestry: innermost phi span, and whether inside a dendrogram or verify run
        anc_phi = [-1] * n
        in_dendro = bytearray(n)
        in_verify = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                anc_phi[i] = p if names[p] == "phi" else anc_phi[p]
                in_dendro[i] = in_dendro[p] or names[p] == "build_dendrogram"
                in_verify[i] = in_verify[p] or names[p] == "run_suite"

        m: dict = {}

        m["states.partial_trace_calls"] = len(of("partial_trace"))
        m["states.partial_trace_s"] = total("partial_trace")
        m["states.product_of_marginals_s"] = total("product_of_marginals")
        m["states.assemble_s"] = total("assemble_on_subsets")
        m["states.validate_s"] = total("validate_state")

        ent = of("von_neumann_entropy")
        solved = {(op_ids[i], info[i][1]) for i in ent}
        m["divergence.entropy_calls"] = len(ent)
        m["divergence.entropy_s"] = total("von_neumann_entropy")
        m["divergence.entropy_dim_max"] = max((info[i][0] for i in ent), default=0)
        m["divergence.eig_work_d3"] = sum(info[i][0] ** 3 for i in ent)
        m["divergence.entropy_repeat_ratio"] = (len(ent) - len(solved)) / len(ent) if ent else 0.0
        m["divergence.qjsd_calls"] = len(of("qjsd"))
        m["divergence.qjsd_self_s"] = sum(self_t[i] for i in of("qjsd"))

        # phi info: [mode, rank class, dim, cuts, improved, within marginal]
        phis = [i for i in of("phi") if len(info[i]) == 6]  # completed calls
        opt = [i for i in phis if info[i][0] == "optimized"]
        qjsd_under: dict = {}
        for i in of("qjsd"):
            qjsd_under[anc_phi[i]] = qjsd_under.get(anc_phi[i], 0) + 1
        m["phi.calls"] = len(of("phi"))
        m["phi.cuts_scored"] = sum(info[i][3] for i in phis)
        m["phi.self_s"] = sum(self_t[i] for i in of("phi"))
        # rank classes of the large calls only, so the many small ones made by
        # the verify suite and the observer do not mask a large-D fast path
        for cls, key in (("full", "phi.full_rank_s"), ("low", "phi.low_rank_s"),
                         ("pure", "phi.pure_s")):
            m[key] = sum(dur[i] for i in of("phi")
                         if out_n[i] and info[i][1] == cls and info[i][2] >= LARGE_DIM)
        m["phi.optimized_calls"] = len(opt)
        m["phi.optimized_s"] = sum(dur[i] for i in opt if out_n[i])
        m["phi.refine_qjsd_calls"] = sum(qjsd_under.get(i, 0) - info[i][3] for i in opt)
        m["phi.refine_improved_ratio"] = sum(info[i][4] for i in opt) / len(opt) if opt else 0.0
        bad_ops = sorted({op_ids[i] for i in opt if not info[i][5]})

        # a line search is the outermost golden-section span of its layer
        line = [i for i in of("golden_max") + of("golden_min") if out_l[i]]
        m["search.line_searches"] = len(line)
        m["search.line_evals"] = sum(info[i][0] for i in of("golden_max") if info[i])
        m["search.s"] = sum(dur[i] for i in line)

        m["channels.apply_calls"] = len(of("apply_channel")) + len(of("apply_local"))
        m["channels.apply_s"] = total("apply_channel") + total("apply_local")

        obs = [i for i in of("maximize_phi") if len(info[i]) == 2]
        evals = sum(info[i][1] for i in obs)
        budget = sum(info[i][0] for i in obs)
        m["observer.evals"] = evals
        m["observer.eval_ms"] = 1e3 * sum(dur[i] for i in obs) / evals if evals else 0.0
        m["observer.budget_used_ratio"] = evals / budget if budget else 0.0

        m["blanket.petz_calls"] = len(of("petz_recover"))
        m["blanket.petz_s"] = total("petz_recover")
        m["blanket.scan_s"] = total("blanket_scan")

        m["dendrogram.build_s"] = total("build_dendrogram")
        m["dendrogram.phi_calls"] = sum(1 for i in of("phi") if in_dendro[i])

        m["witness.s"] = sum(dur[i] for f in TRACED["witness"] for i in of(f) if out_l[i])

        suite = total("run_suite")
        m["verify.run_suite_s"] = suite
        m["verify.phi_share"] = (
            sum(dur[i] for i in of("phi") if out_n[i] and in_verify[i]) / suite if suite else 0.0
        )

        reads = of("state_from_json")
        read_s = sum(dur[i] for i in reads)
        bytes_read = sum(info[i][0] for i in reads)
        m["qstate_io.write_s"] = sum(dur[i] for i in of("state_to_json"))
        m["qstate_io.read_s"] = read_s
        m["qstate_io.bytes_written"] = sum(info[i][0] for i in of("state_to_json") if info[i])
        m["qstate_io.bytes_read"] = bytes_read
        m["qstate_io.read_mb_per_s"] = bytes_read / 1e6 / read_s if read_s else 0.0

        m["trace.spans"] = n
        return m, bad_ops
