"""The verify benchmark: times ``matroidcc verify`` end to end and per layer.

One run:

    python3 bench/run.py --workload catalog --seed 1 --seconds 50 --trace 0

1. Set-up: writes the workload's input files in a fresh subprocess.  With
   ``--trace 0`` it sets up four more times, spread over the timed
   repetitions below, checks that each repeat writes the same files, and
   reports the median wall time of the five as ``setup_s``.  Here and below,
   commands that lost much of their time to CPU steal are left out of the
   medians (see ``least_stolen``).
2. ``--trace 0``: repeats ``matroidcc verify FILES --json OUT`` as a
   subprocess, once at ``--threads`` = the usable CPUs and once at
   ``--threads 1``, until ``--seconds`` have passed.  Reports medians of
   wall time, CPU time and peak RSS, the last two from ``os.wait4``.
   ``--trace 1``: runs ``cli.main(["verify", ..., "--threads", "1"])`` in
   process, untraced and then traced (see tracer.py), on the same schedule,
   and reports per-layer medians.  The run is not ``correct`` if a traced
   function is missing or named spans cover less than 0.95 of the traced
   wall time.  The spans of the last traced run go to
   ``.bench_build/trace-<workload>-<seed>.jsonl``.
3. Outside the timed regions, every report is checked against the pinned
   report hash and entry digests (pinned/<workload>.json) and against the
   independent verdicts, including a rank re-check of each witness pair.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (input files, counted once per verify command)
and ``metrics``.  ``--steadiness`` instead runs the benchmark as two sets
of runs over seeds 1..10 per workload and prints each end-to-end metric's
median, quartiles, spread and bound per set, and ``--all`` runs every
workload untraced and traced and prints all their metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import inputs
import verdicts
from tracer import COUNT_METRICS, TIME_METRICS, Tracer

ROOT = inputs.ROOT
SRC = inputs.SRC
BUILD = ROOT / ".bench_build"
SETUP_RUNS = 5
STEAL_LIMIT = 0.05
ATTRIBUTED_FLOOR = 0.95
FIRST_SEED = 1
STEADINESS_RUNS = 10

END_TO_END_UNITS = {
    "verify_s": "s",
    "verify_t1_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry_digest(entry: dict) -> str:
    return digest(json.dumps(entry, sort_keys=True, separators=(",", ":")).encode())[:16]


def environment(threads: list[int]) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "threads": threads,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child(NamedTuple):
    wall: float  # seconds
    code: int
    cpu: float  # user + system seconds
    rss_mb: float  # peak resident set
    steal: float  # seconds the hypervisor took from this machine's CPUs meanwhile

    @property
    def disturbed(self) -> bool:
        return self.steal > STEAL_LIMIT * self.wall


def steal_seconds() -> float:
    """CPU time taken by the hypervisor so far, from /proc/stat (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_child(cmd: list[str], log: Path) -> Child:
    """Run a command to completion, its output discarded and its errors logged."""
    with log.open("wb") as err:
        stolen = steal_seconds()
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, steal_seconds() - stolen)


def least_stolen(children: list[Child]) -> list[Child]:
    """The commands not disturbed by CPU steal, or if they are fewer than
    half, the half that lost the smallest share of its wall time to steal.

    A disturbed command measures the host, not the program.  Keeping at
    least half of the commands stops a run that falls in a long slow period
    from resting its median on one or two of them.
    """
    kept = [c for c in children if not c.disturbed]
    if 2 * len(kept) < len(children):
        kept = sorted(children, key=lambda c: c.steal / c.wall)[: (len(children) + 1) // 2]
    return kept


def set_up(workload: str, seed: int, out: Path, log: Path) -> Child:
    """Write the workload's input files into ``out``, timed."""
    child = run_child(setup_command(workload, seed, out), log)
    if child.code != 0:
        raise BenchError("input set-up failed: " + log.read_text(errors="replace")[-500:])
    return child


def setup_command(workload: str, seed: int, out: Path) -> list[str]:
    if workload == "catalog":
        return [sys.executable, "-m", "matroidcc", "catalog", "--out", str(out),
                "--seed", str(inputs.slot_of(seed))]
    return [sys.executable, str(inputs.BENCH / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)]


def verify_command(files: list[Path], report: Path, threads: int) -> list[str]:
    return [sys.executable, "-m", "matroidcc", "verify", *map(str, files),
            "--json", str(report), "--threads", str(threads)]


class Checker:
    """Compares reports with the pinned references and the verdicts."""

    def __init__(self, workload: str, seed: int, files: list[Path]) -> None:
        pinned = inputs.load_pinned(workload)
        if pinned.get("pool") != inputs.POOL:
            raise BenchError(f"pinned/{workload}.json was made for another pool size")
        self.slot = pinned["slots"][inputs.slot_of(seed)]
        self.files = files
        self.oracles = verdicts.load_oracles(ROOT)
        self.models: dict[str, verdicts.RankModel] = {}
        self.input_problems: dict[str, str] = {}
        expected = self.slot["files"]
        for path in files:
            name = path.stem
            want = expected.get(name)
            data = path.read_bytes()
            if want is None or digest(data)[:16] != want["input"]:
                self.input_problems[name] = "input differs from the pinned input set"
            self.models[name] = verdicts.RankModel(json.loads(data), self.oracles)
        for name in expected.keys() - {p.stem for p in files}:
            self.input_problems[name] = "input file missing"
        self._seen: dict[str, tuple[dict[str, str], dict]] = {}
        self.failures: dict[str, str] = {}  # file -> first reason it failed

    def check(self, exit_code: int, report: Path) -> tuple[int, int, bool, dict]:
        """(files attempted, files failed, report hash matches, coverage)."""
        names = set(self.slot["files"]) | {p.stem for p in self.files}
        if exit_code != 0 or not report.exists():
            failed, coverage = dict.fromkeys(names, f"verify exited with {exit_code}"), {}
            key = None
        else:
            data = report.read_bytes()
            key = digest(data)
            if key not in self._seen:
                self._seen[key] = self._check_report(data, names)
            failed, coverage = self._seen[key]
        for name, reason in failed.items():
            self.failures.setdefault(name, reason)
        return len(names), len(failed), key == self.slot["report_sha256"], coverage

    def _check_report(self, data: bytes, names: set[str]) -> tuple[dict[str, str], dict]:
        failed = dict(self.input_problems)
        try:
            entries = {e["name"]: e for e in json.loads(data)["entries"]}
        except (ValueError, KeyError, TypeError):
            return dict.fromkeys(names, "unreadable report"), {}
        for name in names - failed.keys():
            entry = entries.get(name)
            pinned = self.slot["files"][name]
            if entry is None:
                failed[name] = "report entry missing"
                continue
            problems = verdicts.check_entry(entry, pinned["verdict"], self.models[name])
            if entry_digest(entry) != pinned["entry"]:
                problems.insert(0, "entry differs from the pinned entry")
            if problems:
                failed[name] = "; ".join(problems)
        chains = [[c.get("k") for c in e.get("conjecture", [])] for e in entries.values()]
        lines = [o.get("k") for e in entries.values() for o in e.get("out_of_scope", [])]
        coverage = {f"k{k}_chains": sum(k in ks for ks in chains) for k in verdicts.VERIFIED_KS}
        coverage["all_three_chains"] = sum(ks == list(verdicts.VERIFIED_KS) for ks in chains)
        coverage |= {f"k{k}_lines": lines.count(k) for k in (7, 8)}
        return failed, coverage


def measure_end_to_end(files, work, threads, seconds, checker, tally, set_up_again):
    """Verify metrics; ``set_up_again`` is called SETUP_RUNS - 1 times, once
    after each repetition and the rest at the end, so that the set-up times
    sample the same stretch of the host's load as the verify times."""
    runs: dict[int, list[Child]] = {threads: [], 1: []}
    setups_left = SETUP_RUNS - 1
    start = perf_counter()
    while True:
        for t in (threads, 1):
            report = work / f"report-t{t}.json"
            report.unlink(missing_ok=True)
            child = run_child(verify_command(files, report, t), work / "verify.log")
            runs[t].append(child)
            tally(checker.check(child.code, report), f"verify --threads {t}")
        if setups_left:
            set_up_again()
            setups_left -= 1
        if perf_counter() - start >= seconds:
            break
    for _ in range(setups_left):
        set_up_again()
    main, single = least_stolen(runs[threads]), least_stolen(runs[1])
    metrics = {
        "verify_s": statistics.median(c.wall for c in main),
        "verify_t1_s": statistics.median(c.wall for c in single),
        "cpu_s": statistics.median(c.cpu for c in main),
        "peak_rss_mb": statistics.median(c.rss_mb for c in main),
    }
    disturbed = sum(c.disturbed for t in (threads, 1) for c in runs[t])
    return metrics, len(runs[1]), disturbed


def measure_trace(workload, seed, files, work, seconds, checker, tally, env):
    from matroidcc import cli

    argv = ["verify", *map(str, files), "--threads", "1", "--json"]

    def in_process(report: Path) -> tuple[float, int]:
        report.unlink(missing_ok=True)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = perf_counter()
            code = cli.main(argv + [str(report)])
            return perf_counter() - start, code

    per_rep: list[dict[str, float]] = []
    start = perf_counter()
    while True:
        tracer = Tracer()
        # Alternate which run goes first, so neither always runs warm.
        for traced in (len(per_rep) % 2 == 1, len(per_rep) % 2 == 0):
            report = work / f"report-{'traced' if traced else 'plain'}.json"
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, code = in_process(report)
            tally(checker.check(code, report), "traced verify" if traced else "in-process verify")
            if traced:
                traced_wall = wall
            else:
                plain_wall = wall
        metrics = tracer.metrics(traced_wall)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        metrics["trace.attributed_frac"] = 1.0 - metrics["trace.unattributed_ms"] / (1000.0 * traced_wall)
        per_rep.append(metrics)
        if perf_counter() - start >= seconds:
            break
    BUILD.mkdir(exist_ok=True)
    tracer.write(BUILD / f"trace-{workload}-{seed}.jsonl",
                 {"workload": workload, "seed": seed, "environment": env,
                  "span": ["file", "id", "parent", "name", "start_s", "end_s"]})
    out = {k: statistics.median([m[k] for m in per_rep]) for k in per_rep[0]}
    out.update({k: per_rep[-1][k] for k in COUNT_METRICS})
    return out, len(per_rep), tracer.missing


def run_once(args) -> dict:
    if not (SRC / "matroidcc" / "__init__.py").exists():
        raise BenchError(f"matroidcc sources not found under {SRC}")
    threads = args.threads or usable_cpus()
    if not 1 <= threads <= usable_cpus():
        raise BenchError(f"--threads {threads} is outside 1..{usable_cpus()}, the usable CPUs")
    env = environment([threads, 1] if not args.trace else [1])
    print("environment: " + json.dumps(env))
    BUILD.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        # Compile the package's bytecode before anything is timed.
        code = run_child([sys.executable, "-m", "matroidcc", "--help"], work / "warm.log").code
        if code != 0:
            raise BenchError("python -m matroidcc --help failed: "
                             + (work / "warm.log").read_text(errors="replace")[-500:])
        setups = [set_up(args.workload, args.seed, work / "inputs", work / "setup.log")]
        files = sorted((work / "inputs").glob("*.json"))

        def set_up_again() -> None:
            again = work / "inputs-again"
            setups.append(set_up(args.workload, args.seed, again, work / "setup.log"))
            same = [p.name for p in sorted(again.glob("*.json"))] == [p.name for p in files]
            same = same and all((again / p.name).read_bytes() == p.read_bytes() for p in files)
            shutil.rmtree(again)
            if not same:
                raise BenchError("a repeated set-up wrote other input files than the first")

        checker = Checker(args.workload, args.seed, files)
        totals = {"attempted": 0, "failed": 0, "hash_mismatch": [], "coverage": {}}

        def tally(result, what: str) -> None:
            attempted, failed, hash_ok, coverage = result
            totals["attempted"] += attempted
            totals["failed"] += failed
            if not hash_ok:
                totals["hash_mismatch"].append(what)
            totals["coverage"] = coverage or totals["coverage"]

        if args.trace:
            sys.path.insert(0, str(SRC))
            disturbed = None
            metrics, reps, missing = measure_trace(args.workload, args.seed, files, work,
                                                   args.seconds, checker, tally, env)
            units = {k: "ms" for k in TIME_METRICS} | {k: "count" for k in COUNT_METRICS}
            units |= {"trace.unattributed_ms": "ms", "trace.overhead_frac": "ratio"}
        else:
            missing = []
            metrics, reps, disturbed = measure_end_to_end(files, work, threads, args.seconds,
                                                          checker, tally, set_up_again)
            metrics["setup_s"] = statistics.median(c.wall for c in least_stolen(setups))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cov = totals["coverage"]
    print(f"workload {args.workload}: seed {args.seed} -> pinned input set "
          f"{inputs.slot_of(args.seed)} of {inputs.POOL}, {len(files)} files, {reps} repetition(s)")
    if disturbed is not None:
        print(f"cpu steal: {disturbed} of {2 * reps} verify commands lost more than "
              f"{STEAL_LIMIT:.0%} of their wall time to the hypervisor")
    print(f"coverage {args.workload}: " + ", ".join(f"{k}={v}" for k, v in cov.items()))
    seeded = checker.slot.get("instances", {})
    if seeded:
        print("seeded inputs: " + ", ".join(
            f"{name} (seed {seed}, {checker.slot['files'][name]['verdict']['circuits']} circuits)"
            for name, seed in seeded.items()))
    fail_frac = totals["failed"] / totals["attempted"]
    hashes = ("report sha256 matches the pinned hash in every run"
              if not totals["hash_mismatch"]
              else "report sha256 differs from the pinned hash in: "
              + ", ".join(sorted(set(totals["hash_mismatch"]))))
    print(f"correctness: fail_frac={fail_frac:.4f} ({totals['failed']} of "
          f"{totals['attempted']} file verifications); {hashes}")
    for name, reason in sorted(checker.failures.items())[:10]:
        print(f"  failed {name}: {reason}")
    trace_ok = True
    if args.trace:
        attributed = metrics.pop("trace.attributed_frac")
        trace_ok = attributed >= ATTRIBUTED_FLOOR and not missing
        status = "ok" if attributed >= ATTRIBUTED_FLOOR else f"BELOW the {ATTRIBUTED_FLOOR} floor"
        print(f"trace: {attributed:.4f} of traced wall time in named spans ({status})")
        if missing:
            print("trace: functions not found, so not traced: " + ", ".join(missing))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    return {
        "correct": totals["failed"] == 0 and not totals["hash_mismatch"] and trace_ok,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: int):
    """One run in a subprocess: (its lines before the result, result or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return lines[:-1], result, proc.stderr


def run_all(args) -> int:
    """Every workload, untraced then traced: all metrics by name and unit."""
    ok = True
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            lines, result, stderr = run_benchmark(workload, args.seed, args.seconds, trace)
            print(f"== {workload} --trace {trace}")
            print("\n".join(lines) or stderr[-2000:])
            ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def steadiness(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + STEADINESS_RUNS)
    ok = True
    raw: dict = {}
    for workload in workloads:
        sets = []
        for _ in (1, 2):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in seeds:
                _, result, stderr = run_benchmark(workload, seed, spec["run_seconds"], 0)
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed or incorrect\n{stderr[-2000:]}")
                    ok = False
                    continue
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        raw[workload] = sets
        print(f"== {workload}: {STEADINESS_RUNS} seeds from {FIRST_SEED}, two sets")
        for name, metric in bounds.items():
            if any(len(values[name]) < 2 for values in sets):
                continue
            stats = []
            for values in sets:
                q1, _, q3 = statistics.quantiles(values[name], n=4)
                stats.append((statistics.median(values[name]), q1, q3))
            bound = metric["bound"]
            parts = []
            for i, (med, q1, q3) in enumerate(stats, 1):
                spread = (q3 - q1) / med
                parts.append(f"set{i} median={med:.4f} q1={q1:.4f} q3={q3:.4f} spread={spread:.4f}")
                if spread > bound:
                    ok = False
            # Positive drift means the second set is worse.
            drift = stats[1][0] / stats[0][0] - 1.0
            if metric["better"] == "higher":
                drift = -drift
            if abs(drift) > bound:
                ok = False
            print(f"  {name:12s} bound={bound:.3f} " + " | ".join(parts) + f" | drift={drift:+.4f}")
    BUILD.mkdir(exist_ok=True)
    (BUILD / "steadiness.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print("steadiness: " + ("every spread and drift within its bound" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="matroidcc verify benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="threads of the verify_s command (default: usable CPUs)")
    parser.add_argument("--steadiness", action="store_true",
                        help="run two sets of ten seeds per workload and print spreads")
    parser.add_argument("--all", action="store_true",
                        help="run every workload with --trace 0 and 1 and print all metrics")
    args = parser.parse_args(argv)
    try:
        if args.steadiness:
            return steadiness(args)
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_once(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
