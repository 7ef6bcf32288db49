"""Verdicts on the benchmark's inputs that do not come from matroidcc.

Each input document gets a rank function built only from the document and
the brute-force routines in ``tests/oracles.py``:

- matrix files: ``gf_rank_oracle`` on the chosen columns;
- graph files: vertex count minus the components of the chosen edges;
- circuits files: the greedy rank over the listed circuits (a set is
  independent when it contains none of them).

``derive_verdict`` turns that into the expected achieved sizes, circuit and
cocircuit counts and out-of-range (k >= 7) oracle flags; ``pin.py`` commits
the results.  ``check_entry`` compares one ``verify --json`` report entry
with its verdict and re-checks every reported witness pair by rank.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path
from types import ModuleType
from typing import Callable

VERIFIED_KS = (4, 5, 6)


def load_oracles(root: Path) -> ModuleType:
    """Import ``tests/oracles.py`` of the checkout at ``root``."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("matroidcc_bench_oracles", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class RankModel:
    """Rank of element subsets (int masks over the document's label order)."""

    def __init__(self, doc: dict, oracles: ModuleType) -> None:
        self.doc = doc
        self.oracles = oracles
        fmt = doc["format"]
        if fmt == "matrix":
            p = doc["field"]
            rows = doc["rows"]
            self.labels = list(doc["labels"])
            columns = [[row[j] % p for row in rows] for j in range(len(self.labels))]
            self.columns = columns
            self._rank = lambda mask: (
                oracles.gf_rank_oracle([columns[i] for i in _bits(mask)], p) if mask else 0
            )
        elif fmt == "graph":
            vertices = doc["vertices"]
            self.edges = [(u, v, lab) for u, v, lab in doc["edges"]]
            self.labels = [lab for _, _, lab in self.edges]
            self._rank = lambda mask: vertices - oracles.graph_components(
                vertices, self.edges, self.full & ~mask
            )
        elif fmt == "circuits":
            self.labels = list(doc["ground"])
            index = {lab: i for i, lab in enumerate(self.labels)}
            self.listed = [sum(1 << index[x] for x in c) for c in doc["circuits"]]
            self._rank = self._greedy_rank
        else:
            raise ValueError(f"unknown format {fmt!r}")
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def _greedy_rank(self, mask: int) -> int:
        basis = 0
        for i in _bits(mask):
            cand = basis | 1 << i
            if not any(c & ~cand == 0 for c in self.listed):
                basis = cand
        return basis.bit_count()

    def rank(self, mask: int) -> int:
        return self._rank(mask)

    def mask(self, labels: list[str]) -> int:
        return sum(1 << self.index[lab] for lab in labels)

    def circuits(self) -> list[int]:
        if self.doc["format"] == "matrix":
            return self.oracles.linear_circuit_masks(self.columns, self.doc["field"])
        if self.doc["format"] == "graph":
            return self.oracles.graph_circuit_masks(self.edges)
        return _minimal_sets(self.n, lambda m: self.rank(m) < m.bit_count())

    def cocircuits(self) -> list[int]:
        if self.doc["format"] == "graph":
            return self.oracles.graph_bond_masks(self.doc["vertices"], self.edges)
        r = self.rank(self.full)
        return _minimal_sets(self.n, lambda m: self.rank(self.full & ~m) < r)


def _minimal_sets(n: int, holds: Callable[[int], bool]) -> list[int]:
    """Minimal subsets of range(n) with a monotone property, size by size."""
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            m = sum(1 << i for i in combo)
            if any(f & ~m == 0 for f in found):
                continue
            if holds(m):
                found.append(m)
    return sorted(found)


def derive_verdict(model: RankModel) -> dict:
    circuits = model.circuits()
    cocircuits = model.cocircuits()
    achieved = sorted(
        {(c & d).bit_count() for c in circuits for d in cocircuits if c & d}
    )
    return {
        "achieved": achieved,
        "circuits": len(circuits),
        "cocircuits": len(cocircuits),
        "out_of_scope": [[k, (k - 2) in achieved] for k in achieved if k >= 7],
    }


def check_entry(entry: dict, verdict: dict, model: RankModel) -> list[str]:
    """Problems found in one report entry; empty when it agrees."""
    problems = []
    achieved = verdict["achieved"]
    if entry.get("achieved_sizes") != achieved:
        problems.append(f"achieved sizes {entry.get('achieved_sizes')} != {achieved}")
    for key in ("circuits", "cocircuits"):
        if entry.get(key) != verdict[key]:
            problems.append(f"{key} {entry.get(key)} != {verdict[key]}")
    flags = [[o.get("k"), o.get("oracle_ok")] for o in entry.get("out_of_scope", [])]
    if flags != verdict["out_of_scope"]:
        problems.append(f"out-of-scope flags {flags} != {verdict['out_of_scope']}")
    chains = entry.get("conjecture", [])
    want_ks = [k for k in VERIFIED_KS if k in achieved]
    if [c.get("k") for c in chains] != want_ks:
        problems.append(f"chains for k={[c.get('k') for c in chains]}, expected {want_ks}")
    for chain in chains:
        if chain.get("oracle_ok") is not True:
            problems.append(f"k={chain.get('k')}: oracle_ok is not true")
        problems.extend(
            f"k={chain.get('k')}: {p}" for p in _witness_problems(chain, model)
        )
    return problems


def _witness_problems(chain: dict, model: RankModel) -> list[str]:
    try:
        w = chain["witness"]
        c = model.mask(w["circuit"])
        d = model.mask(w["cocircuit"])
        x = model.mask(w["intersection"])
    except (KeyError, TypeError) as exc:
        return [f"malformed witness ({exc!r})"]
    problems = []
    size = c.bit_count()
    if model.rank(c) != size - 1 or any(model.rank(c & ~(1 << i)) != size - 1 for i in _bits(c)):
        problems.append("witness circuit is not minimally dependent")
    r = model.rank(model.full)
    hyper = model.full & ~d
    if model.rank(hyper) != r - 1 or any(model.rank(hyper | 1 << i) != r for i in _bits(d)):
        problems.append("complement of the witness cocircuit is not a hyperplane")
    if x != c & d or x.bit_count() != chain["k"] - 2:
        problems.append(f"witness intersection is not a size-{chain['k'] - 2} meet")
    return problems
