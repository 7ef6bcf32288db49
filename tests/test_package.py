"""The package's public names and what each entry point loads."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matroidcc as mc

# Each public name under the module that defines it.
DEFINED_IN = {
    "analyze": (
        "CCIntersection ConjectureReport OxleyMinor SuiteResult WitnessChain "
        "achieved_sizes ce_family check_ce_families check_circuit_pairs "
        "check_rank2_circuits find_intersection_of_size lift_intersection "
        "oxley_minor verify_conjecture witness_k4 witness_k5 witness_k6"
    ),
    "construct": (
        "GraphSpec MatrixOverGF NAMED_CATALOG from_circuits from_graph from_matrix "
        "named random_linear random_matrix uniform"
    ),
    "core": (
        "AxiomReport CircuitFamily DEFAULT_PAIR_CAP ElemSet GroundSet MAX_SCAN "
        "Matroid validate_circuit_axioms"
    ),
    "errors": (
        "AxiomError CapExceeded ExtractionFailed InvalidParameter LiftFailed "
        "MatroidError OverlappingSpec ParseError PreconditionViolated "
        "TheoremViolation UnknownName"
    ),
    "transform": "MinorSpec cocircuits contract delete dual minor",
}
EXPORTS = sorted(name for names in DEFINED_IN.values() for name in names.split())


def test_all_lists_the_52_public_names():
    assert len(EXPORTS) == 52
    assert sorted(mc.__all__) == EXPORTS


@pytest.mark.parametrize("module", sorted(DEFINED_IN))
def test_each_export_is_its_defining_modules_object(module):
    defining = importlib.import_module(f"matroidcc.{module}")
    for name in DEFINED_IN[module].split():
        assert getattr(mc, name) is getattr(defining, name), name


def test_dir_and_star_import_cover_every_export():
    assert set(EXPORTS) <= set(dir(mc))
    namespace: dict = {}
    exec("from matroidcc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="'matroidcc' has no attribute 'no_such_name'"):
        mc.no_such_name


def test_the_pair_cap_keeps_its_old_import():
    from matroidcc.analyze import DEFAULT_PAIR_CAP
    from matroidcc.core import DEFAULT_PAIR_CAP as in_core

    assert DEFAULT_PAIR_CAP is in_core is mc.DEFAULT_PAIR_CAP


def loaded_modules(code: str) -> list[str]:
    """The matroidcc modules a fresh interpreter holds after ``code``."""
    src = Path(mc.__file__).resolve().parent.parent
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('matroidcc'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


LEAN = ["matroidcc", "matroidcc.construct", "matroidcc.core", "matroidcc.errors"]


@pytest.mark.parametrize(
    "code,want",
    [
        pytest.param("from matroidcc.construct import random_matrix", LEAN, id="construct"),
        pytest.param(
            "import matroidcc; matroidcc.DEFAULT_PAIR_CAP, matroidcc.MAX_SCAN",
            ["matroidcc", "matroidcc.core", "matroidcc.errors"],
            id="caps",
        ),
        pytest.param(
            "from matroidcc import cli; cli.main(['catalog', '--out', {out!r}])",
            sorted(LEAN + ["matroidcc.cli"]),
            id="catalog",
        ),
    ],
)
def test_entry_points_load_only_the_modules_they_use(tmp_path, code, want):
    assert loaded_modules(code.format(out=str(tmp_path / "catalog"))) == want


def test_verify_loads_analyze_and_transform(tmp_path):
    path = tmp_path / "u3_2.json"
    doc = {"format": "circuits", "ground": ["a", "b", "c"], "circuits": [["a", "b", "c"]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = loaded_modules(f"from matroidcc import cli; cli.main(['verify', {str(path)!r}])")
    assert {"matroidcc.analyze", "matroidcc.transform"} <= set(loaded)
