"""Mutation checks: every mutant below must make its targeted tests fail.

For each mutant the script copies ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` to a temporary directory, applies one exact-text patch
and runs the mutant's tests there with pytest.  It exits 1 if a mutant
survives (its tests pass), if a patch's anchor text does not occur exactly
once in its file (so a stale mutant cannot pass silently), or if the
unpatched copy already fails a test selection.  It needs only the standard
library and pytest, and is not part of the tier-1 suite:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")

ANALYZE = "src/matroidcc/analyze.py"
CLI = "src/matroidcc/cli.py"
CONSTRUCT = "src/matroidcc/construct.py"
CORE = "src/matroidcc/core.py"
INIT = "src/matroidcc/__init__.py"
TRANSFORM = "src/matroidcc/transform.py"

# pytest selections the mutants run.
EXTRACTION = ("tests/test_analyze.py", "-k", "extract or search_viable")
PAIR_SCAN = ("tests/test_analyze.py", "-k", "achieved or count_planes")
TABLE_DUAL = ("tests/test_core.py", "-k", "table_dual")
VALIDATION = ("tests/test_core.py", "-k", "validation or outcome")
DUAL = ("tests/test_transform.py", "-k", "dual or cocircuits")
TABLE_COUNT = ("tests/test_cli.py", "-k", "one_dependency_table")
HANDED = ("tests/test_core.py", "-k", "every_built or only_when_asked or one_bit_per")
ENUMERATION = ("tests/test_construct.py", "-k", "oracle")
MINIMALITY = ("tests/test_construct.py", "tests/test_transform.py", "-k", "oracle")
INGEST = ("tests/test_cli.py", "-k", "rejects or non_utf8")
INGEST_CAP = ("tests/test_cli.py", "-k", "refuses_large_circuits_file")
TEXT_REPORT = ("tests/test_cli.py", "-k", "text_report")
WITNESS_K5 = ("tests/test_analyze.py", "-k", "witness_k5")
CE_FAMILIES = ("tests/test_analyze.py", "-k", "ce_famil")
CIRCUIT_PAIRS = (
    "tests/test_analyze.py", "tests/test_acceptance.py", "-k", "circuit_pairs or criterion_4"
)
LIFT = ("tests/test_analyze.py", "-k", "lift")
SUITE_LAWS = ("tests/test_analyze.py", "-k", "one_law")
INVARIANTS = ("tests/test_analyze.py", "-k", "invariant_failures")
MINOR = ("tests/test_transform.py", "-k", "minor or contract_circuits")
THEOREM_CHECKS = ("tests/test_analyze.py", "-k", "theorem_checks")
CLOSED_STDOUT = ("tests/test_cli.py", "-k", "closed")
EXPORTS = ("tests/test_package.py",)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "dual-skips-the-bit-reversal",
        CORE,
        "codependent = reversed_bits >> (8 * len(nonspanning) - size)",
        'codependent = int.from_bytes(nonspanning, "little")',
        TABLE_DUAL,
    ),
    Mutant(
        "bases-taken-as-all-independent-sets",
        CORE,
        "spanning = _close_up(n, independent & ~extendable)  # the bases, closed up",
        "spanning = _close_up(n, independent)  # the bases, closed up",
        TABLE_DUAL,
    ),
    Mutant(
        # The minimal sets are read off the members, shifted once, instead
        # of their upward closure.
        "minimal-members-shifts-the-members",
        TRANSFORM,
        "table = dependency_table(kept.bit_count(), compress_masks(reduced, kept))",
        "from .core import _member_bits, _table_bytes\n"
        "    table = _table_bytes(\n"
        "        kept.bit_count(), _member_bits(kept.bit_count(), compress_masks(reduced, kept))\n"
        "    )",
        MINIMALITY,
    ),
    Mutant(
        # Taking every member, not only those through e, changes nothing:
        # C3 reads S + e only for independent S, and any member inside such
        # a set goes through e.  Taking those that miss e must be caught.
        "c3-counts-the-members-that-miss-e",
        CORE,
        "one = members & ~e_lack",
        "one = members & e_lack",
        VALIDATION,
    ),
    Mutant(
        "minor-keeps-circuits-through-the-deleted-set",
        TRANSFORM,
        "reduced = {c & ~contracted for c in m.circuits.masks if not c & deleted}",
        "reduced = {c & ~contracted for c in m.circuits.masks}",
        MINOR,
    ),
    Mutant(
        # A circuit inside C then leaves the empty set, not nothing.
        "minor-keeps-the-contracted-bits",
        TRANSFORM,
        "reduced = {c & ~contracted for c in m.circuits.masks if not c & deleted}",
        "reduced = {c for c in m.circuits.masks if not c & deleted}",
        MINOR,
    ),
    Mutant(
        "dual-handed-the-parents-own-table",
        TRANSFORM,
        "table = m._co_table or dual_table(m.size, m._table)",
        "table = m._co_table or m._table",
        DUAL,
    ),
    Mutant(
        # Same matroids, but every handed-over table is closed again.
        "handed-table-rebuilt-from-the-circuits",
        CORE,
        "        if table is None:\n            table = dependency_table(ground.size, fam.masks)",
        "        if True:\n            table = dependency_table(ground.size, fam.masks)",
        TABLE_COUNT,
    ),
    Mutant(
        "handed-table-length-unchecked",
        CORE,
        "if circuits != () or len(table) != max(1, (1 << ground.size) >> 3):",
        "if circuits != ():",
        HANDED,
    ),
    Mutant(
        "odometer-skips-the-offset-update-on-a-carry",
        CONSTRUCT,
        "levels[:i] = [levels[i]] * i",
        "pass",
        ENUMERATION,
    ),
    Mutant(
        # The row branch hands M*'s table, the closure of the row space's
        # supports, as M's: M's circuits become the cocircuits.
        "row-space-supports-taken-as-circuits",
        CONSTRUCT,
        "table=dual_table(n, co_table)",
        "table=co_table",
        ENUMERATION,
    ),
    Mutant(
        # The dual's table the row branch keeps for M is M's own table.
        "row-branch-keeps-its-own-table-as-the-dual",
        CONSTRUCT,
        "m._co_table = co_table",
        "m._co_table = m._table",
        HANDED,
    ),
    Mutant(
        "ranks-without-contracted-set",
        ANALYZE,
        "return r_m(s | contracted) - r_con",
        "return r_m(s) - r_con",
        EXTRACTION,
    ),
    Mutant(
        "rank-memo-keyed-without-contracted-set",
        ANALYZE,
        "return r_m(s | contracted) - r_con",
        "r = ranks.get(s)\n"
        "        if r is None:\n"
        "            r = ranks[s] = m._greedy_basis_mask(s | contracted).bit_count()\n"
        "        return r - r_con",
        EXTRACTION,
    ),
    Mutant(
        "counter-drops-its-last-carry",
        ANALYZE,
        "p4 ^= add",
        "pass",
        PAIR_SCAN,
    ),
    Mutant(
        "size-one-test-on-the-first-circuit-only",
        ANALYZE,
        "if p0 & ~(p1 | p2 | p3 | p4):",
        "if cm == cmasks[0] and p0 & ~(p1 | p2 | p3 | p4):",
        PAIR_SCAN,
    ),
    Mutant(
        "first-pair-taken-from-a-later-circuit",
        ANALYZE,
        "want = ((2 << size) - 4) & ~seen",
        "want = (2 << size) - 4",
        PAIR_SCAN,
    ),
    Mutant(
        "zeros-branch-reads-the-plane-uncomplemented",
        ANALYZE,
        "mask &= planes[d] if v >> d & 1 else ~planes[d]",
        "mask &= planes[d] if v >> d & 1 else planes[d]",
        PAIR_SCAN,
    ),
    Mutant(
        "outside-elements-contracted-first",
        ANALYZE,
        "_CHOICES_OUTSIDE = (_DELETE, _KEEP, _CONTRACT)",
        "_CHOICES_OUTSIDE = (_CONTRACT, _KEEP, _DELETE)",
        EXTRACTION,
    ),
    Mutant(
        "no-circuit-inside-x-test",
        ANALYZE,
        "if rank(x_mask & ~bit) < k - 1:",
        "if False:",
        EXTRACTION,
    ),
    Mutant(
        "no-cocircuit-inside-x-test",
        ANALYZE,
        "if rank(rest | bit) < r_cur:",
        "if False:",
        EXTRACTION,
    ),
    Mutant(
        "weaker-circuit-inside-x-bound",
        ANALYZE,
        "if rank(x_mask & ~bit) < k - 1:",
        "if rank(x_mask & ~bit) < k - 2:",
        EXTRACTION,
    ),
    Mutant(
        # A size-4 circuit with two Y elements meets X in two, not three.
        "witness-k5-direct-branch-skips-the-one-y-test",
        ANALYZE,
        "if size == 4 and (c & y).bit_count() == 1:",
        "if size == 4:",
        WITNESS_K5,
    ),
    Mutant(
        # c2 is then checked as a third member of its own pair.
        "ce-families-third-member-skips-only-c1",
        ANALYZE,
        "if c == c1 or c == c2:",
        "if c == c1:",
        CE_FAMILIES,
    ),
    Mutant(
        "circuit-pairs-clause-1-applied-when-x-is-covered",
        ANALYZE,
        "            if x & ~union:\n",
        "            if True:\n",
        CIRCUIT_PAIRS,
    ),
    Mutant(
        "circuit-pairs-witness-y-part-shrunk",
        ANALYZE,
        "and (m & y) == uni_y",
        "and (m & y) == uni_y & ~diff",
        CIRCUIT_PAIRS,
    ),
    Mutant(
        "circuit-pairs-squeezed-circuit-may-be-the-union",
        ANALYZE,
        "sym & ~m == 0 and m & ~union == 0 and m != union",
        "sym & ~m == 0 and m & ~union == 0",
        SUITE_LAWS,
    ),
    Mutant(
        # Canonical order puts the circuit with the smaller X-part first, so
        # cx <= cpx is the only direction that can hold; testing the other
        # one drops it.
        "circuit-pairs-nesting-tested-one-way",
        ANALYZE,
        "nested = cx & ~cpx == 0",
        "nested = cpx & ~cx == 0",
        SUITE_LAWS,
    ),
    Mutant(
        "circuit-pairs-witness-carries-the-smaller-difference",
        ANALYZE,
        "diff = cp & ~c",
        "diff = c & ~cp",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-circuits-flat-test-dropped",
        ANALYZE,
        "if n._closure_mask(c) != c:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-families-two-member-criterion-dropped",
        ANALYZE,
        "if (len(members) == 2) != pair_meets_only_e:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-families-member-size-unchecked",
        ANALYZE,
        "if not 3 <= c.bit_count() <= k:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-families-member-rank-unchecked",
        ANALYZE,
        "if not 2 <= rc <= k - 1:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-family-of-one-member-allowed",
        ANALYZE,
        "if len(members) < 2:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-families-pair-union-unchecked",
        ANALYZE,
        "if (c1 | c2) != union_target:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "ce-families-third-member-law-dropped",
        ANALYZE,
        "if required & ~(c & ~ebit):",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-circuits-rank-unchecked",
        ANALYZE,
        "if n._greedy_basis_mask(c).bit_count() != 2:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-circuits-one-y-test-dropped",
        ANALYZE,
        "if (c & ox.y.mask).bit_count() != 1:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-pairs-meet-unchecked",
        ANALYZE,
        "if meet.bit_count() != 1:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-pairs-union-y-part-unchecked",
        ANALYZE,
        "if ((c | cp) & ox.y.mask).bit_count() != 2:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "rank2-pairs-symmetric-difference-unchecked",
        ANALYZE,
        "if sym.bit_count() != 4 or sym not in n.circuits:",
        "if False:",
        SUITE_LAWS,
    ),
    Mutant(
        "invariants-skip-the-simplicity-check",
        ANALYZE,
        "if not n.is_simple():",
        "if False:",
        INVARIANTS,
    ),
    Mutant(
        "invariants-skip-the-x-uniform-check",
        ANALYZE,
        "if len(self.x) != k or [c for c in n.circuits.masks if c & ~x == 0] != [x]:",
        "if False:",
        INVARIANTS,
    ),
    Mutant(
        "invariants-skip-the-y-free-check",
        ANALYZE,
        "if len(self.y) != k - 2 or n._dependent_mask(y):",
        "if False:",
        INVARIANTS,
    ),
    Mutant(
        "invariants-skip-the-y-flat-check",
        ANALYZE,
        "if n._closure_mask(y) != y:",
        "if False:",
        INVARIANTS,
    ),
    Mutant(
        "pair-of-disjoint-sets-accepted",
        ANALYZE,
        "if self.size == 0:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "pair-meeting-in-one-accepted",
        ANALYZE,
        "if self.size == 1:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "lift-of-disjoint-inputs-accepted",
        ANALYZE,
        "if not circuit_n.mask & cocircuit_n.mask:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "lift-without-a-parent-circuit-unchecked",
        ANALYZE,
        "if lifted_c is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "lift-without-a-parent-cocircuit-unchecked",
        ANALYZE,
        "if lifted_d is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "lift-keeps-a-changed-intersection",
        ANALYZE,
        "if lifted_c & lifted_d != cn & dn:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "extraction-takes-a-non-cocircuit",
        ANALYZE,
        "if cocircuit not in cocircuits(m):",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "extraction-on-a-too-small-ground",
        ANALYZE,
        "if removals < 0:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "exhausted-extraction-returns-none",
        ANALYZE,
        "if result is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "verify-skips-the-k-minus-2-oracle",
        ANALYZE,
        "if (k - 2) not in first:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "verify-skips-the-final-size",
        ANALYZE,
        "if final.size != k - 2:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k4-skips-the-y-plus-x1-test",
        ANALYZE,
        "if not n.is_independent(base):",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k4-skips-the-x1-test",
        ANALYZE,
        "if x1 not in circ:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k4-skips-the-meet-test",
        ANALYZE,
        "if meet.labels() != (x1, x2):",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-runs-at-any-k",
        ANALYZE,
        "if ox.k != 5:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-skips-the-size-4-circuit-meet",
        ANALYZE,
        'if found.size != 3:\n                raise TheoremViolation("size-4 circuit',
        'if False:\n                raise TheoremViolation("size-4 circuit',
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-skips-the-size-4-cocircuit-meet",
        ANALYZE,
        'if found.size != 3:\n                raise TheoremViolation("size-4 cocircuit',
        'if False:\n                raise TheoremViolation("size-4 cocircuit',
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-without-a-size-5-cocircuit",
        ANALYZE,
        "if c0 is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-skips-the-one-missing-x-test",
        ANALYZE,
        "if missing.bit_count() != 1:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-without-a-member-through-x1",
        ANALYZE,
        "if not through:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-skips-the-first-member-size",
        ANALYZE,
        "if through[0].bit_count() not in (3, 5):",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-without-a-size-5-member",
        ANALYZE,
        "if chosen is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k5-skips-the-final-meet",
        ANALYZE,
        'if found.size != 3:\n        raise TheoremViolation(\n            f"witness pair meets',
        'if False:\n        raise TheoremViolation(\n            f"witness pair meets',
        THEOREM_CHECKS,
    ),
    Mutant(
        "witness-k6-returns-none",
        ANALYZE,
        "if inner is None:",
        "if False:",
        THEOREM_CHECKS,
    ),
    Mutant(
        "lift-cocircuit-matched-whole",
        ANALYZE,
        "if d & ~del_mask == dn)",
        "if d == dn)",
        LIFT,
    ),
    Mutant(
        "export-taken-from-a-module-without-it",
        INIT,
        '"random_matrix": "construct",',
        '"random_matrix": "core",',
        EXPORTS,
    ),
    Mutant(
        # Same object, since analyze imports it, but reading the cap then
        # loads analyze and transform.
        "pair-cap-exported-from-its-old-home",
        INIT,
        '"DEFAULT_PAIR_CAP": "core",',
        '"DEFAULT_PAIR_CAP": "analyze",',
        EXPORTS,
    ),
    Mutant(
        "no-rows-list-check",
        CLI,
        "if not isinstance(rows, list):",
        "if False:",
        INGEST,
    ),
    Mutant(
        # GroundSet still refuses the file, but only inside from_circuits.
        "element-cap-left-to-the-ground-set",
        CLI,
        "if len(ground) > MAX_SCAN:",
        "if False:",
        INGEST_CAP,
    ),
    Mutant(
        "long-json-integers-uncaught",
        CLI,
        "except ValueError as exc:",
        "except ArithmeticError as exc:",
        INGEST,
    ),
    Mutant(
        "file-name-fallback-unchecked",
        CLI,
        "name = path.stem\n        if not _is_text(name):",
        "name = path.stem\n        if False:",
        INGEST,
    ),
    Mutant(
        # A closed stdout then also ends the JSON report.
        "closed-stdout-drops-the-json-report",
        CLI,
        "if not args.json:\n                break",
        "break",
        CLOSED_STDOUT,
    ),
    Mutant(
        "closed-stdout-left-pointing-at-the-pipe",
        CLI,
        "os.dup2(devnull, sys.stdout.fileno())",
        "pass",
        CLOSED_STDOUT,
    ),
    Mutant(
        "k6-chain-labelled-witness",
        CLI,
        'found = "oracle" if chain.k == 6 else "witness"',
        'found = "witness"',
        TEXT_REPORT,
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else proc.stderr.strip()


def check(mutant: Mutant, work: Path) -> str | None:
    """None if the mutant is killed, else why the check failed."""
    tree = work / mutant.name
    copy_tree(tree)
    target = tree / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"anchor occurs {found} times in {mutant.path}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    rc, summary = run_tests(tree, mutant.tests)
    if rc == 0:
        return f"survived ({summary})"
    if rc != 1:
        # 2-5 mean an interrupted run, a usage error or no tests collected.
        return f"pytest exited {rc} ({summary})"
    return None


def main() -> int:
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="matroidcc-mutants-") as tmp:
        work = Path(tmp)
        clean = work / "unpatched"
        copy_tree(clean)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            rc, summary = run_tests(clean, tests)
            print(f"unpatched {' '.join(tests)}: {summary}")
            if rc != 0:
                problems.append(f"unpatched tree fails {' '.join(tests)}")
        for mutant in MUTANTS:
            start = time.perf_counter()
            problem = check(mutant, work)
            took = time.perf_counter() - start
            print(f"{mutant.name}: {problem or 'killed'} ({took:.1f} s)")
            if problem:
                problems.append(f"{mutant.name}: {problem}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if not problems:
        print(f"all {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
