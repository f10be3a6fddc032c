"""Workload definitions: seeded inputs and the fixed batch of operations.

Inputs are drawn here with plain numpy from the benchmark seed, so the worker
that runs the program and the oracle that checks it rebuild identical
matrices without sharing any code path inside qphi.
"""
from __future__ import annotations

import numpy as np

WORKLOADS = ("library", "cli-pipeline")

# (name, subsystem dims, kind) where kind is "full", "pure" or an integer rank
PHI_LARGE_CASES = (
    ("ginibre-full-n7", (2,) * 7, "full"),
    ("ginibre-full-n8", (2,) * 8, "full"),
    ("ginibre-rank4-n8", (2,) * 8, 4),
    ("haar-pure-n8", (2,) * 8, "pure"),
    ("ginibre-full-332222", (3, 3, 2, 2, 2, 2), "full"),
)

# The suite's own cost varies by about 20% with its config seed (refinement
# passes differ), which would widen the run-to-run spread of the library
# workload beyond what the machine already adds; the suite therefore always
# runs with this seed, and --seed drives the phi and observer inputs.
VERIFY_SEED = 0
OBSERVE_BUDGET = 1000
OBSERVE_RESTARTS = 8
CLI_OBSERVE_BUDGET = 500
COLD_START_REPEATS = 3
HAAR_WRITE_DIMS = "2,2,2,2,2,2,2,2,2"

# the nine hard assertions of the verify suite
VERIFY_ASSERTED = (
    "data_processing",
    "kblock_bipartition_equivalence",
    "local_phi_monotonicity",
    "merge_inequality",
    "metric_axioms",
    "negative_type",
    "petz_product_exactness",
    "triangle_inequality",
    "witness_algebra",
)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def random_density(dims, kind, rng: np.random.Generator) -> np.ndarray:
    """A Ginibre mixed state of the given rank, or a Haar-random pure state."""
    d = int(np.prod(dims))
    if kind == "pure":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        m = np.outer(v, v.conj())
    else:
        rank = d if kind == "full" else int(kind)
        g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        m = g @ g.conj().T
        m /= np.real(np.trace(m))
    return (m + m.conj().T) / 2.0


def ghz_matrix(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def phi_large_inputs(seed: int):
    """[(case name, dims, matrix)] for the large phi calls."""
    return [
        (name, dims, random_density(dims, kind, rng_for(seed, k)))
        for k, (name, dims, kind) in enumerate(PHI_LARGE_CASES)
    ]


def observe_inputs(seed: int):
    """[(op name, dims, matrix, family kind)] for the two maximize_phi calls."""
    return [
        ("observe-ghz3-dephasing", (2, 2, 2), ghz_matrix(3), "dephasing"),
        (
            "observe-ginibre222-depolarizing",
            (2, 2, 2),
            random_density((2, 2, 2), "full", rng_for(seed, 100)),
            "depolarizing",
        ),
    ]


def observer_family(qphi, kind: str, layout):
    """The qphi channel family an observe op searches."""
    if kind == "dephasing":
        return qphi.local_dephasing_family(layout)
    return qphi.local_depolarizing_family(layout)


def haar_write_path(seed: int) -> str:
    """Where the large QSTATE write lands, relative to the repository root."""
    return f"perfbench/out/haar9-seed{int(seed)}.json"


def cli_ops(seed: int):
    """[(op name, producer argv, consumer argv or None)] for cli-pipeline.

    A consumer reads the producer's stdout through a pipe, as in
    ``qphi gen ... | qphi cmd -``.
    """
    s = str(int(seed))
    ops = [(f"gen-bell-{k}", ["gen", "bell"], None) for k in range(COLD_START_REPEATS)]
    ops += [
        ("pipe-ghz8-phi", ["gen", "ghz", "8"], ["phi", "-"]),
        (
            "pipe-ginibre6-dendrogram",
            ["gen", "ginibre", "--dims", "2,2,2,2,2,2", "--seed", s],
            ["dendrogram", "-", "--format", "newick"],
        ),
        ("pipe-ghz3-blanket", ["gen", "ghz", "3"], ["blanket", "-", "--size", "1"]),
        (
            "pipe-bell-observe",
            ["gen", "bell"],
            ["observe", "-", "--family", "dephasing", "--budget", str(CLI_OBSERVE_BUDGET),
             "--seed", s],
        ),
        (
            "gen-haar9-write",
            ["gen", "haar", "--dims", HAAR_WRITE_DIMS, "--seed", s, "--out", haar_write_path(seed)],
            None,
        ),
    ]
    return ops


# -- program results as plain JSON data ---------------------------------------

def phi_output(res) -> dict:
    return {
        "phi": res.phi,
        "cut": sorted(res.optimal_cut.mask_a),
        "per_cut": [[sorted(c.mask_a), v] for c, v in res.per_cut],
        "phi_marginal": res.phi_marginal,
        "mode": res.mode,
    }


def observe_output(res) -> dict:
    return {
        "best_params": list(res.best_params),
        "phi_before": res.phi_before,
        "phi_after": res.phi_after,
        "evaluations": res.evaluations,
    }
