from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from matroidcc import analyze, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(name: str):
    """``bench/<name>.py``, loaded by path (``bench`` is not a package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_inputs():
    return _load_bench_module("inputs")


@pytest.fixture(scope="session")
def bench_tracer():
    return _load_bench_module("tracer")


@pytest.fixture(scope="session")
def catalog_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("catalog")
    rc = cli.main(["catalog", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def catalog(catalog_dir):
    """The generated catalog, parsed once: list of (filename, matroid)."""
    entries = []
    for path in sorted(catalog_dir.glob("*.json")):
        entries.append((path.name, cli.parse_matroid(path)))
    return entries


@pytest.fixture(scope="session")
def conjecture_reports(catalog):
    """verify_conjecture over the whole catalog, computed once."""
    return {name: analyze.verify_conjecture(m) for name, m in catalog}
