"""Outside-in per-layer trace of an in-process ``matroidcc verify`` run.

``Tracer.installed()`` replaces public functions at the module (or class)
attributes through which the pipeline calls them with timing wrappers, and
restores them on exit; nothing under ``src/`` is edited.  ``analyze``
imports the ``transform`` functions by name, so those are replaced in both
modules, and ``analyze._SUITES`` is rebound to wrapped suite functions.

Every call becomes a span (file id, span id, parent id, name, start, end),
kept in memory; spans of one input file share its file id.  A span's self
time is its duration minus its children's.  The stack is shared by all
threads, so trace only ``--threads 1`` runs: the one pool worker and the
main thread then never run traced code at the same time.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Per-layer metric -> the span names whose self time it sums.
TIME_METRICS: dict[str, tuple[str, ...]] = {
    "core.validate_ms": ("core.validate_circuit_axioms",),
    "core.hyperplanes_ms": ("core.Matroid.hyperplanes",),
    "construct.enumerate_ms": (
        "construct.from_matrix",
        "construct.from_graph",
        "construct.from_circuits",
    ),
    "construct.gf_rank_ms": ("construct.gf_rank",),
    "transform.delete_ms": ("transform.delete",),
    "transform.contract_ms": ("transform.contract",),
    "transform.minor_ms": ("transform.minor",),
    "transform.dual_ms": ("transform.dual", "transform.cocircuits"),
    "analyze.extract_ms": ("analyze.oxley_minor",),
    "analyze.pair_scan_ms": ("analyze.achieved_sizes", "analyze.find_intersection_of_size"),
    "analyze.witness_ms": ("analyze.witness_k4", "analyze.witness_k5", "analyze.witness_k6"),
    "analyze.lift_ms": ("analyze.lift_intersection",),
    "analyze.suites_ms": (
        "analyze.check_ce_families",
        "analyze.check_circuit_pairs",
        "analyze.check_rank2_circuits",
    ),
    "analyze.verify_ms": ("analyze.verify_conjecture",),
    "cli.parse_ms": ("cli.parse_matroid",),
    "cli.report_ms": ("cli.report_entry_dict", "cli.report_text"),
}

COUNT_METRICS = (
    "core.circuits_validated",
    "core.hyperplane_scans",
    "construct.gf_rank_calls",
    "transform.minors_built",
    "transform.dual_calls",
    "analyze.extractions",
    "analyze.pair_scans",
    "analyze.pairs_scanned",
    "cli.files",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self.file = -1
        self._file_ids: dict[str, int] = {}
        self.missing: list[str] = []  # planned functions that were not found

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
        before: Callable[["Tracer", tuple], None] | None = None,
    ) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.self_s[name] += took - frame[1]
                self.spans.append((self.file, sid, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        from matroidcc import analyze, cli, construct, core, transform

        # The pair counts read cocircuits through the unwrapped dual, so the
        # hooks add no spans or dual calls of their own.
        original_dual = transform.dual

        def count(metric: str, amount: Callable[[tuple, Any], int] = lambda a, r: 1):
            def after(tracer: Tracer, args: tuple, result: Any) -> None:
                tracer.counts[metric] += amount(args, result)
            return after

        def enter_file(tracer: Tracer, args: tuple) -> None:
            tracer.file = tracer._file_ids.setdefault(str(args[0]), len(tracer._file_ids))

        def report_file(tracer: Tracer, args: tuple) -> None:
            tracer.file = tracer._file_ids.get("name:" + args[0].name, -1)

        def parsed(tracer: Tracer, args: tuple, m: Any) -> None:
            tracer.counts["cli.files"] += 1
            tracer._file_ids["name:" + str(m.name)] = tracer.file

        def built(tracer: Tracer, args: tuple, m: Any) -> None:
            if m is not args[0]:
                tracer.counts["transform.minors_built"] += 1

        def pairs_all(args: tuple, result: Any) -> int:
            return len(args[0].circuits) * len(original_dual(args[0]).circuits)

        def pairs_until(args: tuple, found: Any) -> int:
            m = args[0]
            cocircuit_masks = original_dual(m).circuits.masks
            if found is None:
                return len(m.circuits) * len(cocircuit_masks)
            i = m.circuits.masks.index(found.circuit.mask)
            return i * len(cocircuit_masks) + cocircuit_masks.index(found.cocircuit.mask) + 1

        def both(*hooks):
            def after(tracer: Tracer, args: tuple, result: Any) -> None:
                for hook in hooks:
                    hook(tracer, args, result)
            return after

        pair_scan = count("analyze.pair_scans")
        plan: list[tuple[str, list, str, Any, Any]] = [
            ("cli.parse_matroid", [cli], "parse_matroid", parsed, enter_file),
            ("cli.report_entry_dict", [cli], "report_entry_dict", None, report_file),
            ("cli.report_text", [cli], "report_text", None, report_file),
            ("construct.from_matrix", [construct], "from_matrix", None, None),
            ("construct.from_graph", [construct], "from_graph", None, None),
            ("construct.from_circuits", [construct], "from_circuits", None, None),
            ("construct.gf_rank", [construct], "gf_rank", count("construct.gf_rank_calls"), None),
            (
                "core.validate_circuit_axioms", [core], "validate_circuit_axioms",
                count("core.circuits_validated", lambda a, r: len(a[0])), None,
            ),
            ("core.Matroid.hyperplanes", [core.Matroid], "hyperplanes",
             count("core.hyperplane_scans"), None),
            ("transform.delete", [transform, analyze], "delete", built, None),
            ("transform.contract", [transform, analyze], "contract", built, None),
            ("transform.minor", [transform, analyze], "minor", None, None),
            ("transform.dual", [transform, analyze], "dual", count("transform.dual_calls"), None),
            ("transform.cocircuits", [transform, analyze], "cocircuits", None, None),
            (
                "analyze.achieved_sizes", [analyze], "achieved_sizes",
                both(pair_scan, count("analyze.pairs_scanned", pairs_all)), None,
            ),
            (
                "analyze.find_intersection_of_size", [analyze], "find_intersection_of_size",
                both(pair_scan, count("analyze.pairs_scanned", pairs_until)), None,
            ),
            ("analyze.oxley_minor", [analyze], "oxley_minor", count("analyze.extractions"), None),
            ("analyze.witness_k4", [analyze], "witness_k4", None, None),
            ("analyze.witness_k5", [analyze], "witness_k5", None, None),
            ("analyze.witness_k6", [analyze], "witness_k6", None, None),
            ("analyze.lift_intersection", [analyze], "lift_intersection", None, None),
            ("analyze.verify_conjecture", [analyze], "verify_conjecture", None, None),
        ]
        saved: list[tuple[Any, str, Any]] = []
        try:
            for name, owners, attr, after, before in plan:
                # A function a later version renames or removes is recorded
                # in ``missing``, which makes the run incorrect.
                fn = getattr(owners[0], attr, None)
                if fn is None:
                    self.missing.append(name)
                    continue
                wrapped = self.wrap(name, fn, after, before)
                for owner in owners:
                    if getattr(owner, attr, None) is fn:
                        saved.append((owner, attr, fn))
                        setattr(owner, attr, wrapped)
            suites = getattr(analyze, "_SUITES", None)
            if suites:
                saved.append((analyze, "_SUITES", suites))
                analyze._SUITES = tuple(
                    (suite, self.wrap(f"analyze.{check.__name__}", check))
                    for suite, check in suites
                )
            else:
                self.missing.append("analyze._SUITES")
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer ms and counts, plus the wall time no span covers."""
        out: dict[str, float] = {
            metric: 1000.0 * sum(self.self_s.get(n, 0.0) for n in names)
            for metric, names in TIME_METRICS.items()
        }
        out.update({metric: self.counts.get(metric, 0) for metric in COUNT_METRICS})
        out["trace.unattributed_ms"] = 1000.0 * (wall_s - sum(self.self_s.values()))
        return out

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for file_id, sid, parent, name, start, end in self.spans:
                fh.write(f'[{file_id},{sid},{parent},"{name}",{start:.7f},{end:.7f}]\n')
