"""Integrated-information measures for multipartite quantum states.

The library computes the minimum quantum Jensen-Shannon divergence between a
density matrix and product states over bipartitions, along with the optimal
cut, the nearest product state, an algebraic witness operator, a recursive
integration dendrogram, a channel-family observer search, and a
recovery-based blanket scan. All divergences are in nats.

Every exported name, ``phi`` included, is loaded from its submodule on first
use, and ``import qphi`` itself loads no submodule, so a process pays to
import only the parts of the library it calls.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("blanket", ("BlanketResult", "blanket_scan", "petz_recover")),
        ("channels", (
            "KrausChannel", "LocalChannel", "apply_channel", "apply_local", "dephasing",
            "depolarizing", "identity_channel", "local_dephasing", "local_depolarizing",
            "partial_trace_channel", "random_channel", "random_local_channel",
        )),
        ("dendrogram", (
            "Dendrogram", "DendrogramNode", "build_dendrogram", "dendrogram_from_json",
            "dendrogram_to_json", "stability_probe", "to_dot", "to_newick",
        )),
        ("divergence", (
            "GramReport", "LN2", "delta", "negative_type_check", "qjsd", "von_neumann_entropy",
        )),
        ("errors", (
            "BadBudget", "BadParameter", "BadSize", "BudgetExceeded", "ConfigInvalid",
            "DimensionMismatch", "DisjointnessViolation", "EmptyKeepSet", "GridTooLarge",
            "IndexOutOfRange", "InvalidCut", "InvalidPartition", "LayoutMismatch",
            "NotHermitian", "NotPSD", "NumericalBreakdown", "QphiError",
            "SearchBudgetExceeded", "SingleSubsystem", "StateTooLarge", "SupportBreakdown",
            "TooFewStates", "TraceNotOne", "ValidationError",
        )),
        ("observer", (
            "ChannelFamily", "ObserverResult", "SpectrumResult", "custom_family",
            "local_dephasing_family", "local_depolarizing_family", "maximize_phi",
            "observer_spectrum", "partial_trace_family",
        )),
        ("phi", (
            "ConvexityReport", "LipschitzReport", "PartitionKBlocks", "PhiResult",
            "as_partition", "convexity_check", "divergence_for_partition",
            "enumerate_partitions", "lipschitz_check", "merge_blocks",
            "merge_inequality_check", "min_over_partitions", "partition_divergences", "phi",
        )),
        ("qstate_io", (
            "channel_from_json", "channel_to_json", "read_state", "state_from_json",
            "state_to_json", "write_state",
        )),
        ("states", (
            "Bipartition", "DensityMatrix", "SubsystemLayout", "bell", "enumerate_bipartitions",
            "ghz", "ginibre_mixed", "haar_pure", "maximally_mixed", "partial_trace",
            "product_of_block_marginals", "product_of_marginals", "pure_state",
            "random_product", "substream", "tensor", "validate_state", "w_state",
        )),
        ("verify", ("CheckResult", "VerificationReport", "VerifyConfig", "run_suite")),
        ("witness", (
            "ProductScanReport", "Witness", "build_witness", "expectation", "phi_comparison",
            "product_state_scan",
        )),
    )
    for name in names
}

# exported names that differ from the name in their submodule
_RENAMED = {"dendrogram_from_json": "from_json", "dendrogram_to_json": "to_json"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Looked up again on every access, never stored in the package namespace:
    # a function replaced in its submodule (by a tracer, say) and later
    # restored is then seen through the package in both states.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), _RENAMED.get(name, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    # Importing a submodule binds it as an attribute of its package, and
    # __getattr__ is never asked for a name the package binds. The submodule
    # qphi.phi shares its name with the function it exports, so such a
    # binding is dropped: `qphi.phi` then stays the function, resolved by
    # __getattr__, whichever module loads first.
    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
