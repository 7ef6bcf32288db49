"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The catalog and the per-matroid verification reports are built
once per session (see conftest.py).
"""

from __future__ import annotations

import random
import time

import matroidcc as mc
from matroidcc import analyze, cli, cocircuits, dual, minor, MinorSpec

import oracles


def _announce(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_orthogonality_suite(catalog_dir):
    start = time.perf_counter()
    paths = sorted(catalog_dir.glob("*.json"))
    assert len(paths) >= 30
    checked_pairs = 0
    for path in paths:
        m = cli.parse_matroid(path)
        co = cocircuits(m)
        for c in m.circuits.masks:
            for d in co.masks:
                meet = c & d
                assert meet.bit_count() != 1, f"{path.name}: orthogonality broken"
                if meet:
                    checked_pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"orthogonality sweep took {elapsed:.1f}s"
    _announce(
        1,
        f"no size-1 intersection among {checked_pairs} meeting pairs "
        f"across {len(paths)} matroids in {elapsed:.1f}s",
    )


def test_criterion_2_conjecture_reproduction(catalog, conjecture_reports):
    matroids = dict(catalog)
    chains = 0
    for name, report in conjecture_reports.items():
        m = matroids[name]
        achieved = set(report.achieved)
        co = cocircuits(m)
        for k in (4, 5, 6):
            if k not in achieved:
                continue
            chain = next(c for c in report.entries if c.k == k)
            assert (k - 2) in achieved
            final = chain.final
            assert final.size == k - 2
            assert final.circuit in m.circuits
            assert final.cocircuit in co
            assert final.intersection == final.circuit & final.cocircuit
            chains += 1
    # Known anchors.
    assert conjecture_reports["fano.json"].achieved == (2, 4)
    assert conjecture_reports["k4.json"].achieved == (2, 4)
    u105 = conjecture_reports["u10_5.json"]
    assert u105.achieved == (2, 3, 4, 5, 6)
    assert [c.k for c in u105.entries] == [4, 5, 6]
    _announce(2, f"{chains} witness chains terminate at size k-2 inside the parent")


def test_criterion_3_extraction_invariants(conjecture_reports):
    minors = 0
    for name, report in conjecture_reports.items():
        for chain in report.entries:
            failures = chain.minor.invariant_failures()
            assert failures == (), f"{name} k={chain.k}: {failures}"
            minors += 1
    assert minors > 0
    _announce(3, f"all {minors} extracted minors satisfy every invariant; "
                 "zero extraction failures")


def test_criterion_4_property_suites(conjecture_reports):
    size2_sources = []
    gt2_sources = []
    intersecting_rank2 = []
    for name, report in conjecture_reports.items():
        # A broken law raises inside verify_conjecture; each suite ran once
        # per extracted minor, and C_e once per Y element.
        assert list(report.suites) == ["ce_families", "circuit_pairs", "rank2_circuits"]
        ce = report.suites["ce_families"]
        assert ce.get("families", 0) == sum(chain.k - 2 for chain in report.entries), name
        if ce.get("families_size_2"):
            size2_sources.append(name)
        if ce.get("families_size_gt_2"):
            gt2_sources.append(name)
        r2 = report.suites["rank2_circuits"]
        if r2.get("intersecting_pairs"):
            intersecting_rank2.append(name)
    assert size2_sources, "no catalog instance exercised the two-member case"
    assert gt2_sources, "no catalog instance exercised the larger-family case"
    _announce(
        4,
        f"suites pass everywhere; two-member families from {size2_sources[0]}, "
        f"larger families from {gt2_sources[0]}, k>=5 rank-2 pair clause "
        + (f"exercised by {intersecting_rank2[0]}" if intersecting_rank2
           else "vacuous on this catalog"),
    )


def test_criterion_5_dual_and_minor_algebra(catalog):
    involutions = 0
    basis_checked = 0
    contract_checked = 0
    for _, m in catalog:
        assert dual(dual(m)) == m
        involutions += 1
    for _, m in catalog:
        if m.size > 8:
            continue
        d = dual(m)
        g = m.ground
        for sub in oracles.submasks(g.full_mask):
            s = g.from_mask(sub)
            co = g.from_mask(g.full_mask & ~sub)
            assert oracles.is_basis(m, s) == oracles.is_basis(d, co)
            basis_checked += 1
    for _, m in catalog:
        if m.size > 7:
            continue
        g = m.ground
        for tmask in oracles.submasks(g.full_mask):
            t = g.from_mask(tmask)
            sub = mc.contract(m, t)
            rt = m.rank(t)
            for smask in oracles.submasks(g.full_mask & ~tmask):
                s = g.from_mask(smask)
                want = m.rank(g.from_mask(smask | tmask)) - rt
                assert sub.rank(s.to_ground(sub.ground)) == want
                contract_checked += 1
    for _, m in catalog:
        t = m.ground.subset([m.ground.labels[0]])
        assert dual(mc.delete(m, t)) == mc.contract(dual(m), t)
    _announce(
        5,
        f"dual involution on {involutions} matroids; "
        f"{basis_checked} basis complement checks; "
        f"{contract_checked} contraction rank agreements; "
        f"deletion dualizes to contraction throughout",
    )


def test_criterion_6_minor_heredity(catalog):
    rng = random.Random(20260808)
    minors_checked = 0
    lifts_checked = 0
    for _, m in catalog:
        parent_sizes = set(analyze.achieved_sizes(m))
        g = m.ground
        for _ in range(20):
            dels, cons = [], []
            for lab in g.labels:
                roll = rng.random()
                if roll < 0.15:
                    dels.append(lab)
                elif roll < 0.30:
                    cons.append(lab)
            spec = MinorSpec(g.subset(dels), g.subset(cons))
            sub = minor(m, spec)
            minors_checked += 1
            if sub.size == 0:
                continue
            child_sizes = analyze.achieved_sizes(sub)
            assert set(child_sizes) <= parent_sizes, (
                f"{m.name}: minor achieves {child_sizes} vs parent {parent_sizes}"
            )
            for size in child_sizes:
                cc = analyze.find_intersection_of_size(sub, size)
                lifted_c, lifted_d = analyze.lift_intersection(
                    m, spec, sub, cc.circuit, cc.cocircuit
                )
                assert (lifted_c & lifted_d).labels() == cc.intersection.labels()
                lifts_checked += 1
    _announce(
        6,
        f"{minors_checked} random minors hereditary; "
        f"{lifts_checked} lifts preserved their intersection exactly",
    )


def test_criterion_7_determinism_across_threads(catalog_dir, tmp_path, capsys):
    paths = [str(p) for p in sorted(catalog_dir.glob("*.json"))]
    out1 = tmp_path / "sweep1.json"
    out2 = tmp_path / "sweep2.json"
    rc1 = cli.main(["verify", *paths, "--json", str(out1), "--threads", "1"])
    rc2 = cli.main(["verify", *paths, "--json", str(out2), "--threads", "8"])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    _announce(
        7,
        f"two full sweeps (1 thread vs 8) produced byte-identical "
        f"{len(b1)}-byte reports",
    )
