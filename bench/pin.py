"""Regenerate the benchmark's pinned references, ``pinned/<workload>.json``.

    python3 bench/pin.py --workload linear_gf3

For each of the ``inputs.POOL`` input sets this records:

- the instance seeds.  A ``linear_gf3`` file takes the first candidate
  seed whose oracle verdict reaches sizes 4, 5 and 6, so every file runs
  all three chains.  The ``scale`` GF(5) matrix takes the first candidate
  with 700 to 740 circuits, which keeps the C3 cost of the input sets close;
- each input file's digest and its verdict, derived by ``verdicts.py`` from
  ``tests/oracles.py`` and never from matroidcc's output;
- the sha256 of the ``verify --json`` report, which must be byte-identical
  at ``--threads 1`` and 2, and a digest of each report entry.

It refuses to pin a report that disagrees with a verdict.  Run it at the
commit whose reports are the reference; the file then pins that commit's
output, and a later change to any report byte fails the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import inputs
import run
import verdicts

GF5_CIRCUITS = (700, 740)
CANDIDATES = 100


def candidate_seeds(workload: str, slot: int, index: int) -> range:
    base = {"linear_gf3": 1_000_000, "scale": 2_000_000}[workload]
    start = base + slot * 10_000 + index * CANDIDATES
    return range(start, start + CANDIDATES)


class Pinner:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.oracles = verdicts.load_oracles(inputs.ROOT)
        self.cache: dict[str, dict] = {}

    def verdict(self, doc: dict) -> dict:
        key = run.digest(json.dumps(doc, sort_keys=True).encode())
        if key not in self.cache:
            self.cache[key] = verdicts.derive_verdict(verdicts.RankModel(doc, self.oracles))
        return self.cache[key]

    def instances(self, slot: int) -> dict[str, int]:
        if self.workload == "linear_gf3":
            accept = lambda v: {4, 5, 6} <= set(v["achieved"])
        else:
            accept = lambda v: GF5_CIRCUITS[0] <= v["circuits"] <= GF5_CIRCUITS[1]
        chosen = {}
        for index, (name, shape) in enumerate(inputs.SEEDED_MATRICES[self.workload].items()):
            for seed in candidate_seeds(self.workload, slot, index):
                if accept(self.verdict(inputs.matrix_document(name, shape, seed))):
                    chosen[name] = seed
                    break
            else:
                raise SystemExit(f"no accepted candidate for {name} in input set {slot}")
        return chosen

    def pin_slot(self, slot: int, work: Path) -> dict:
        out = work / f"slot{slot}"
        record: dict = {"slot": slot}
        if self.workload == "catalog":
            record["catalog_seed"] = slot
            code = run.run_child(run.setup_command("catalog", slot, out), work / "setup.log").code
            if code != 0:
                raise SystemExit((work / "setup.log").read_text())
        else:
            record["instances"] = self.instances(slot)
            inputs.write_documents(inputs.documents(self.workload, record["instances"]), out)
        files = sorted(out.glob("*.json"))
        reports = []
        for threads in (1, 2):
            report = work / f"report-{slot}-t{threads}.json"
            code = run.run_child(run.verify_command(files, report, threads), work / "verify.log").code
            if code != 0:
                raise SystemExit((work / "verify.log").read_text())
            reports.append(report.read_bytes())
        if reports[0] != reports[1]:
            raise SystemExit(f"slot {slot}: reports differ between 1 and 2 threads")
        record["report_sha256"] = run.digest(reports[0])
        entries = {e["name"]: e for e in json.loads(reports[0])["entries"]}
        record["files"] = {}
        for path in files:
            doc = json.loads(path.read_bytes())
            verdict = self.verdict(doc)
            entry = entries[path.stem]
            problems = verdicts.check_entry(entry, verdict, verdicts.RankModel(doc, self.oracles))
            if problems:
                raise SystemExit(f"slot {slot} {path.name}: report disagrees with the oracle: {problems}")
            record["files"][path.stem] = {
                "input": run.digest(path.read_bytes())[:16],
                "entry": run.entry_digest(entry),
                "verdict": verdict,
            }
        return record


def dump(workload: str, slots: list[dict]) -> str:
    """One line per input file, so a changed reference shows as a small diff."""
    lines = ["{", f' "workload": {json.dumps(workload)},', f' "pool": {inputs.POOL},', ' "slots": [']
    for i, record in enumerate(slots):
        head = {k: v for k, v in record.items() if k != "files"}
        lines.append("  " + json.dumps(head)[:-1] + ', "files": {')
        names = sorted(record["files"])
        for j, name in enumerate(names):
            comma = "," if j < len(names) - 1 else ""
            lines.append(f"   {json.dumps(name)}: {json.dumps(record['files'][name])}{comma}")
        lines.append("  }}" + ("," if i < len(slots) - 1 else ""))
    lines += [" ]", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description="regenerate pinned/<workload>.json")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    args = parser.parse_args()
    pinner = Pinner(args.workload)
    run.BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        slots = []
        for slot in range(inputs.POOL):
            slots.append(pinner.pin_slot(slot, Path(tmp)))
            print(f"{args.workload}: pinned input set {slot}", flush=True)
    target = inputs.BENCH / "pinned" / f"{args.workload}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(dump(args.workload, slots), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(inputs.SRC))
    raise SystemExit(main())
