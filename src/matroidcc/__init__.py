"""Circuits-first matroid toolkit.

Builds finite matroids from uniform/linear/graphic/named sources, computes
duals and minors, and machine-checks that every circuit-cocircuit
intersection of size k in {4, 5, 6} yields one of size k - 2, with
constructive witness chains cross-checked against brute-force oracles.

Each public name is imported from its defining module on first use, so a
process pays only for the modules it reads: ``import matroidcc.construct``
loads ``core``, ``errors`` and ``construct``, and never ``analyze``.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "CCIntersection": "analyze",
    "ConjectureReport": "analyze",
    "OxleyMinor": "analyze",
    "SuiteResult": "analyze",
    "WitnessChain": "analyze",
    "achieved_sizes": "analyze",
    "ce_family": "analyze",
    "check_ce_families": "analyze",
    "check_circuit_pairs": "analyze",
    "check_rank2_circuits": "analyze",
    "find_intersection_of_size": "analyze",
    "lift_intersection": "analyze",
    "oxley_minor": "analyze",
    "verify_conjecture": "analyze",
    "witness_k4": "analyze",
    "witness_k5": "analyze",
    "witness_k6": "analyze",
    "GraphSpec": "construct",
    "MatrixOverGF": "construct",
    "NAMED_CATALOG": "construct",
    "from_circuits": "construct",
    "from_graph": "construct",
    "from_matrix": "construct",
    "named": "construct",
    "random_linear": "construct",
    "random_matrix": "construct",
    "uniform": "construct",
    "AxiomReport": "core",
    "CircuitFamily": "core",
    "DEFAULT_PAIR_CAP": "core",
    "ElemSet": "core",
    "GroundSet": "core",
    "MAX_SCAN": "core",
    "Matroid": "core",
    "validate_circuit_axioms": "core",
    "AxiomError": "errors",
    "CapExceeded": "errors",
    "ExtractionFailed": "errors",
    "InvalidParameter": "errors",
    "LiftFailed": "errors",
    "MatroidError": "errors",
    "OverlappingSpec": "errors",
    "ParseError": "errors",
    "PreconditionViolated": "errors",
    "TheoremViolation": "errors",
    "UnknownName": "errors",
    "MinorSpec": "transform",
    "cocircuits": "transform",
    "contract": "transform",
    "delete": "transform",
    "dual": "transform",
    "minor": "transform",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
