"""Command-line surface: file ingestion, verification sweeps, catalog
generation, and inspection subcommands.

Exit codes: 0 all checks passed, 1 a theory-level assertion failed,
2 input error or an unwritable output path, 3 a desk-scale cap was
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import construct
from .core import DEFAULT_PAIR_CAP, MAX_SCAN, Matroid
from .errors import (
    CapExceeded,
    MatroidError,
    ParseError,
    TheoremViolation,
)

if TYPE_CHECKING:
    from . import analyze

REPORT_VERSION = 1

DEFAULT_RANDOM_COUNT = 20


def _printable(line: str) -> str:
    """``line`` with each lone surrogate written as a backslash escape, as
    the interpreter's own stderr writes it.  A non-UTF-8 file name decodes
    to lone surrogates, and a strict UTF-8 stream (a test's capture, a
    program embedding the CLI) cannot print them."""
    return line.encode("utf-8", "backslashreplace").decode("utf-8")


def _exit_code_for(err: MatroidError) -> int:
    if isinstance(err, CapExceeded):
        return 3
    if isinstance(err, TheoremViolation):
        return 1
    return 2


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc[key]


def _is_text(x: Any) -> bool:
    """A string that encodes as UTF-8.  JSON escapes can spell lone
    surrogates ("\\ud800"), which would only fail once the report is
    printed."""
    if not isinstance(x, str):
        return False
    try:
        x.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _is_label_list(x: Any) -> bool:
    return isinstance(x, list) and all(map(_is_text, x))


def parse_matroid(path: str | Path) -> Matroid:
    """Read a matroid file (circuits, matrix or graph format) and build the
    validated matroid.  Degenerate inputs (empty ground set, rank 0) are
    rejected here, and a circuits file with more than ``MAX_SCAN``
    elements is refused with ``CapExceeded`` before any circuit is built."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:
        # An integer literal longer than the interpreter's digit limit.
        raise ParseError(f"{path}: unreadable JSON number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    fmt = _require(doc, "format", str(path))
    name = doc.get("name")
    if name is not None and not _is_text(name):
        raise ParseError(f"{path}: name must be a string without lone surrogates")
    if not name:
        # A file name that is not UTF-8 decodes to lone surrogates.
        name = path.stem
        if not _is_text(name):
            raise ParseError(
                f"{path}: the file name is not UTF-8; add a \"name\" field"
            )

    if fmt == "circuits":
        ground = _require(doc, "ground", str(path))
        circuits = _require(doc, "circuits", str(path))
        if not _is_label_list(ground):
            raise ParseError(
                f"{path}: ground must be a list of strings without lone surrogates"
            )
        if not ground:
            raise ParseError(f"{path}: empty ground set")
        if len(ground) > MAX_SCAN:
            raise CapExceeded(
                f"{path}: ground set has {len(ground)} elements; "
                f"this command takes at most {MAX_SCAN}"
            )
        if not isinstance(circuits, list) or not all(map(_is_label_list, circuits)):
            raise ParseError(f"{path}: circuits must be a list of label lists")
        m = construct.from_circuits(ground, circuits, name=name)
    elif fmt == "matrix":
        p = _require(doc, "field", str(path))
        labels = _require(doc, "labels", str(path))
        rows = _require(doc, "rows", str(path))
        if not _is_label_list(labels) or not labels:
            raise ParseError(
                f"{path}: labels must be a non-empty list of strings without lone surrogates"
            )
        if not isinstance(rows, list):
            raise ParseError(f"{path}: rows must be a list of int lists")
        for row in rows:
            if not isinstance(row, list) or len(row) != len(labels):
                raise ParseError(f"{path}: each row must list one entry per label")
        # Without rows every label is a zero column; one zero row keeps the width.
        matrix = construct.MatrixOverGF.from_rows(p, rows or [[0] * len(labels)])
        m = construct.from_matrix(matrix, labels=labels, name=name)
    elif fmt == "graph":
        vertices = _require(doc, "vertices", str(path))
        edges = _require(doc, "edges", str(path))
        if not construct._is_int(vertices) or not isinstance(edges, list):
            raise ParseError(f"{path}: graph needs an int vertex count and edge list")
        parsed = []
        for e in edges:
            if (
                not isinstance(e, list)
                or len(e) != 3
                or not construct._is_int(e[0])
                or not construct._is_int(e[1])
                or not _is_text(e[2])
            ):
                raise ParseError(
                    f"{path}: edges must be [u, v, label] triples, "
                    "the label a string without lone surrogates"
                )
            parsed.append((e[0], e[1], e[2]))
        m = construct.from_graph(
            construct.GraphSpec(vertex_count=vertices, edges=tuple(parsed)),
            name=name,
        )
    else:
        raise ParseError(f"{path}: unknown format {fmt!r}")
    if m.rank() == 0:
        raise ParseError(f"{path}: degenerate rank-0 matroid rejected")
    return m


def matroid_doc(m: Matroid, name: str | None = None) -> dict:
    """Circuits-format document for a matroid, canonical member order."""
    doc: dict[str, Any] = {"format": "circuits"}
    label = name if name is not None else m.name
    if label:
        doc["name"] = label
    doc["ground"] = list(m.ground.labels)
    doc["circuits"] = [list(c.labels()) for c in m.circuits]
    return doc


# Writers of the scalars a report holds, looked up by exact type so that
# a bool is not written as an int.
_SCALAR_WRITERS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
}


# Each key as written before its value, filled as keys are first met.
_KEY_PREFIXES: dict[str, str] = {}


def _indented(value: Any, pad: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, where ``pad`` is
    the newline and indent of the line ``value`` starts on.  The standard
    library writes indented JSON through its pure-Python encoder; joining
    each container's items at once, writing scalar items in place and
    encoding each key once take about a third of its time."""
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            key = _KEY_PREFIXES.get(k)
            if key is None:
                key = _KEY_PREFIXES[k] = encode_basestring(k) + ": "
            writer = _SCALAR_WRITERS.get(type(v))
            items.append(key + (writer(v) if writer is not None else _indented(v, inner)))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for v in value:
            writer = _SCALAR_WRITERS.get(type(v))
            items.append(writer(v) if writer is not None else _indented(v, inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    writer = _SCALAR_WRITERS.get(type(value))
    if writer is not None:
        return writer(value)
    return json.dumps(value)


def _dump(doc: dict) -> str:
    return _indented(doc, "\n") + "\n"


def write_matroid(m: Matroid, path: str | Path) -> None:
    Path(path).write_text(_dump(matroid_doc(m)), encoding="utf-8")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def matrix_doc(matrix: construct.MatrixOverGF, name: str) -> dict:
    """Matrix-format document with the default labels "1".."n"."""
    n = len(matrix.columns)
    return {
        "format": "matrix",
        "name": name,
        "field": matrix.p,
        "labels": list(construct.default_labels(n)),
        "rows": [[col[i] for col in matrix.columns] for i in range(matrix.rows)],
    }


def graph_doc(spec: construct.GraphSpec, name: str) -> dict:
    """Graph-format document listing the spec's edges in order."""
    return {
        "format": "graph",
        "name": name,
        "vertices": spec.vertex_count,
        "edges": [[u, v, lab] for u, v, lab in spec.edges],
    }


def catalog_documents(seed: int = 1) -> list[tuple[str, dict]]:
    """The standard catalog as (filename, document) pairs, seed-stable.
    Each uniform matroid u{n}_{k} is written as its (k+1)-subsets of the
    labels "1".."n" in lex order, which is the canonical order of one
    size, without building it.  Each named matroid is written from
    ``construct.named_source``: as its matrix, its graph, or (Vámos) its
    circuits."""
    out: list[tuple[str, dict]] = []
    for n in range(4, 11):
        labels = list(construct.default_labels(n))
        for k in range(1, n):
            name = f"u{n}_{k}"
            circuits = [list(c) for c in itertools.combinations(labels, k + 1)]
            doc = {"format": "circuits", "name": name, "ground": labels, "circuits": circuits}
            out.append((f"{name}.json", doc))
    for name in construct.NAMED_CATALOG:
        source = construct.named_source(name)
        if isinstance(source, construct.MatrixOverGF):
            doc = matrix_doc(source, name)
        elif isinstance(source, construct.GraphSpec):
            doc = graph_doc(source, name)
        else:
            doc = matroid_doc(construct.named(name), name)
        out.append((f"{name}.json", doc))
    for i in range(DEFAULT_RANDOM_COUNT):
        p = 2 if i % 2 == 0 else 3
        n = 6 + (i % 4)
        r = 2 + ((i // 2) % 3)
        name = f"rand{i:02d}"
        matrix = construct.random_matrix(seed * 1000 + i, n, r, p)
        out.append((f"{name}.json", matrix_doc(matrix, name)))
    return out


def cmd_catalog(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = catalog_documents(seed=args.seed)
    for filename, doc in docs:
        (out_dir / filename).write_text(_dump(doc), encoding="utf-8")
    print(_printable(f"wrote {len(docs)} matroid files to {out_dir}"))
    return 0


# ---------------------------------------------------------------------------
# Verification sweep
# ---------------------------------------------------------------------------


def _witness_dict(cc: analyze.CCIntersection) -> dict:
    return {
        "circuit": list(cc.circuit.labels()),
        "cocircuit": list(cc.cocircuit.labels()),
        "intersection": list(cc.intersection.labels()),
    }


def report_entry_dict(
    report: analyze.ConjectureReport, ms: float | None = None
) -> dict:
    entry: dict[str, Any] = {
        "name": report.name,
        "elements": report.elements,
        "rank": report.rank,
        "circuits": report.circuit_count,
        "cocircuits": report.cocircuit_count,
        "achieved_sizes": list(report.achieved),
        # verify_conjecture raises unless size k - 2 is achieved, so every
        # chain it returns passed the oracle check.
        "conjecture": [
            {"k": chain.k, "oracle_ok": True, "witness": _witness_dict(chain.final)}
            for chain in report.entries
        ],
        "out_of_scope": [
            {"k": k, "oracle_ok": ok} for k, ok in report.out_of_scope
        ],
        "property_suites": {
            name: suite.status for name, suite in report.suites.items()
        },
        "property_exercised": {
            name: dict(sorted(suite.exercised.items()))
            for name, suite in report.suites.items()
        },
    }
    if ms is not None:
        entry["ms"] = round(ms, 3)
    return entry


def _chain_text(chain: analyze.WitnessChain) -> str:
    ox = chain.minor
    # witness_k6 finds its pair by oracle search inside the minor.
    found = "oracle" if chain.k == 6 else "witness"
    return (
        f"extract[|E|={ox.minor.size}, del={ox.spec.deleted!r}, "
        f"con={ox.spec.contracted!r}] -> {found}[{chain.inner.intersection!r}] -> lift"
    )


def report_text(report: analyze.ConjectureReport, ms: float) -> str:
    lines = [
        f"== {report.name} ({report.elements} elements, rank {report.rank}, "
        f"{report.circuit_count} circuits, {report.cocircuit_count} cocircuits)"
    ]
    sizes = ",".join(str(s) for s in report.achieved) or "none"
    lines.append(f"   achieved sizes: {sizes}")
    if report.vacuous:
        lines.append("   conjecture vacuous: no intersection of size 4 or more")
    for chain in report.entries:
        cc = chain.final
        lines.append(
            f"   k={chain.k}: oracle ok; {_chain_text(chain)}; "
            f"final circuit={cc.circuit!r} cocircuit={cc.cocircuit!r} "
            f"intersection={cc.intersection!r} (size {cc.size})"
        )
    for k, ok in report.out_of_scope:
        lines.append(
            f"   k={k}: beyond verified range; oracle size-{k - 2} check: "
            f"{'ok' if ok else 'NOT ACHIEVED'}"
        )
    if report.entries:
        suites = " ".join(
            f"{name}={suite.status}" for name, suite in report.suites.items()
        )
        lines.append(f"   suites: {suites}")
    lines.append(f"   ({ms:.1f} ms)")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    # Imported here, not at module level, so that ``catalog`` never loads
    # analyze or transform.  Calls go through the module object, whose
    # attributes bench/tracer.py wraps.
    from . import analyze

    if args.json:
        # An unwritable report path fails before any input is read.  Append
        # mode creates the file but never truncates it, so the path may also
        # name an input.
        open(args.json, "a", encoding="utf-8").close()
    entries = []
    first_error: tuple[str, MatroidError] | None = None
    for path in sorted(str(p) for p in args.paths):
        start = time.perf_counter()
        try:
            m = parse_matroid(path)
            report = analyze.verify_conjecture(m, cap=args.cap)
        except MatroidError as err:
            if first_error is None:
                first_error = (path, err)
            continue
        ms = (time.perf_counter() - start) * 1000.0
        print(report_text(report, ms))
        entries.append(report_entry_dict(report, ms if args.timings else None))
    if args.json:
        doc = {"report_version": REPORT_VERSION, "entries": entries}
        Path(args.json).write_text(_dump(doc), encoding="utf-8")
    if first_error is not None:
        path, err = first_error
        print(_printable(f"{path}: {type(err).__name__}: {err}"), file=sys.stderr)
        return _exit_code_for(err)
    print(f"verified {len(entries)} matroid(s); all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


def _parse_label_sets(arg: str, keys: tuple[str, ...], what: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for chunk in arg.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParseError(f"{what}: expected key=labels, got {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"{what}: unknown key {key!r} (expected {keys})")
        out[key] = [x.strip() for x in value.split(",") if x.strip()]
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_inspect(args: argparse.Namespace) -> int:
    from . import analyze, transform

    m = parse_matroid(args.path)
    if args.circuits:
        for c in m.circuits:
            print(repr(c))
    elif args.cocircuits:
        for d in transform.cocircuits(m):
            print(repr(d))
    elif args.hyperplanes:
        for h in m.hyperplanes():
            print(repr(h))
    elif args.cc_sizes:
        sizes = analyze.achieved_sizes(m, cap=args.cap)
        print(",".join(str(s) for s in sizes))
    elif args.dual:
        _emit(_dump(matroid_doc(transform.dual(m))), args.out)
    elif args.minor:
        spec_sets = _parse_label_sets(args.minor, ("del", "con"), "--minor")
        spec = transform.MinorSpec(
            m.ground.subset(spec_sets.get("del", [])),
            m.ground.subset(spec_sets.get("con", [])),
        )
        sub = transform.minor(m, spec)
        _emit(_dump(matroid_doc(sub, name=f"{m.name}_minor")), args.out)
    elif args.oxley:
        sets = _parse_label_sets(args.oxley, ("circuit", "cocircuit"), "--oxley")
        if "circuit" not in sets or "cocircuit" not in sets:
            raise ParseError("--oxley needs circuit=... and cocircuit=...")
        ox = analyze.oxley_minor(
            m, m.ground.subset(sets["circuit"]), m.ground.subset(sets["cocircuit"])
        )
        print(f"minor: {ox.minor.size} elements, rank {ox.minor.rank()}, k={ox.k}")
        print(f"deleted: {ox.spec.deleted!r}")
        print(f"contracted: {ox.spec.contracted!r}")
        print(f"X: {ox.x!r}")
        print(f"Y: {ox.y!r}")
    else:
        co = transform.cocircuits(m)
        print(
            f"{m.name}: {m.size} elements, rank {m.rank()}, "
            f"{len(m.circuits)} circuits, {len(co)} cocircuits"
        )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _pair_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` runs once from
    the command line but many times in tests and embedding programs."""
    parser = argparse.ArgumentParser(
        prog="matroidcc",
        description="Matroid toolkit: circuit-cocircuit intersection verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify inputs and report")
    p_verify.add_argument("paths", nargs="+", help="matroid JSON files")
    p_verify.add_argument("--json", help="write the machine report here")
    p_verify.add_argument(
        "--threads", type=int, default=0,
        help="accepted for compatibility; has no effect (files run one by one)",
    )
    p_verify.add_argument(
        "--cap", type=_pair_cap, default=DEFAULT_PAIR_CAP,
        help="max circuit-cocircuit pairs per matroid",
    )
    p_verify.add_argument(
        "--timings", action="store_true",
        help="include per-entry ms in the JSON report (breaks byte determinism)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_catalog = sub.add_parser("catalog", help="emit the standard matroid catalog")
    p_catalog.add_argument("--out", required=True, help="output directory")
    p_catalog.add_argument("--seed", type=int, default=1, help="random-instance seed base")
    p_catalog.set_defaults(func=cmd_catalog)

    p_inspect = sub.add_parser("inspect", help="inspect one matroid file")
    p_inspect.add_argument("path")
    # At most one mode; with none, inspect prints a one-line summary.
    mode = p_inspect.add_mutually_exclusive_group()
    mode.add_argument("--circuits", action="store_true")
    mode.add_argument("--cocircuits", action="store_true")
    mode.add_argument("--hyperplanes", action="store_true")
    mode.add_argument("--cc-sizes", dest="cc_sizes", action="store_true")
    mode.add_argument("--dual", action="store_true")
    mode.add_argument("--minor", help='minor spec, e.g. "del=a,b;con=c"')
    mode.add_argument(
        "--oxley", help='extraction input, e.g. "circuit=a,b,c,d;cocircuit=c,d,e,f"'
    )
    p_inspect.add_argument("--out", help="write file output here instead of stdout")
    p_inspect.add_argument(
        "--cap", type=_pair_cap, default=DEFAULT_PAIR_CAP,
        help="max circuit-cocircuit pairs",
    )
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatroidError as err:
        print(_printable(f"{type(err).__name__}: {err}"), file=sys.stderr)
        return _exit_code_for(err)
    except OSError as err:
        # An output path that cannot be written is a usage error.
        print(_printable(f"{type(err).__name__}: {err}"), file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
