"""Seeded input files for the verify benchmark.

Run as a script, this writes one workload's matroid files into a directory;
the benchmark times that run as the workload's set-up:

    python3 bench/inputs.py --workload linear_gf3 --seed 3 --out DIR

The ``catalog`` workload's files come from ``matroidcc catalog`` instead,
so they are not written here.

A benchmark seed selects one of ``POOL`` input sets (seed mod POOL).  Each
set's instance seeds, input digests, report hash and independent verdicts
are recorded in ``pinned/<workload>.json`` by ``pin.py``, so every seed has
a reference that the run's outputs are checked against.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("catalog", "linear_gf3", "scale")
POOL = 16

# Seeded files: name -> (columns n, rank r, field p) of a random_matrix.
# linear_gf3 has 15 GF(3) matrices whose n cycles 12, 13, 14 with r = n // 2;
# scale has one GF(5) 14 x 7 matrix next to two fixed inputs.
SEEDED_MATRICES: dict[str, dict[str, tuple[int, int, int]]] = {
    "linear_gf3": {f"gf3_{i:02d}": (12 + i % 3, (12 + i % 3) // 2, 3) for i in range(15)},
    "scale": {"gf5_14_7": (14, 7, 5)},
}


def slot_of(seed: int) -> int:
    return seed % POOL


def load_pinned(workload: str) -> dict:
    return json.loads((BENCH / "pinned" / f"{workload}.json").read_text(encoding="utf-8"))


def _matrix_doc(name: str, p: int, columns: tuple[tuple[int, ...], ...]) -> dict:
    n = len(columns)
    rows = len(columns[0]) if n else 0
    return {
        "format": "matrix",
        "name": name,
        "field": p,
        "labels": [str(j) for j in range(1, n + 1)],
        "rows": [[columns[j][i] for j in range(n)] for i in range(rows)],
    }


def _uniform_doc(n: int, r: int) -> dict:
    labels = [str(j) for j in range(1, n + 1)]
    return {
        "format": "circuits",
        "name": f"u{n}_{r}",
        "ground": labels,
        "circuits": [list(c) for c in itertools.combinations(labels, r + 1)],
    }


def _complete_graph_doc(v: int) -> dict:
    return {
        "format": "graph",
        "name": f"k{v}",
        "vertices": v,
        "edges": [[a, b, f"e{a + 1}{b + 1}"] for a, b in itertools.combinations(range(v), 2)],
    }


def matrix_document(name: str, shape: tuple[int, int, int], seed: int) -> dict:
    from matroidcc.construct import random_matrix

    n, r, p = shape
    return _matrix_doc(name, p, random_matrix(seed, n, r, p).columns)


def documents(workload: str, instances: dict[str, int]) -> list[tuple[str, dict]]:
    """(filename, document) pairs of one input set; ``instances`` maps each
    seeded file's name to its ``random_matrix`` seed."""
    docs = [
        (f"{name}.json", matrix_document(name, shape, instances[name]))
        for name, shape in SEEDED_MATRICES[workload].items()
    ]
    if workload == "scale":
        docs += [("u11_5.json", _uniform_doc(11, 5)), ("k6.json", _complete_graph_doc(6))]
    return docs


def write_documents(docs: list[tuple[str, dict]], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, doc in docs:
        (out_dir / filename).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDED_MATRICES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    slot = load_pinned(args.workload)["slots"][slot_of(args.seed)]
    write_documents(documents(args.workload, slot["instances"]), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
