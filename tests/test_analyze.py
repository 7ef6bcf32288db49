"""Intersection enumeration, minor extraction, property suites, witnesses."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import matroidcc as mc
from matroidcc import analyze, cli
from matroidcc import (
    MinorSpec,
    achieved_sizes,
    ce_family,
    check_ce_families,
    check_circuit_pairs,
    check_rank2_circuits,
    cocircuits,
    find_intersection_of_size,
    lift_intersection,
    oxley_minor,
    verify_conjecture,
    witness_k4,
    witness_k5,
    witness_k6,
)

import oracles
from oracles import cc_intersections
from test_construct import columns_with_loops_and_parallels


def first_pair(m: mc.Matroid, k: int) -> mc.CCIntersection:
    found = find_intersection_of_size(m, k)
    assert found is not None
    return found


def extract(m: mc.Matroid, k: int) -> mc.OxleyMinor:
    cc = first_pair(m, k)
    return oxley_minor(m, cc.circuit, cc.cocircuit)


# ---------------------------------------------------------------------------
# Oracle enumeration
# ---------------------------------------------------------------------------


def test_achieved_sizes_examples():
    assert achieved_sizes(mc.uniform(4, 2)) == (2, 3)
    assert achieved_sizes(mc.named("fano")) == (2, 4)
    assert achieved_sizes(mc.named("k4")) == (2, 4)
    assert achieved_sizes(mc.uniform(10, 5)) == (2, 3, 4, 5, 6)
    # The lone circuit of the triangle meets every 2-element cocircuit in
    # exactly two elements.
    assert achieved_sizes(mc.uniform(3, 2)) == (2,)


def check_first_pairs(m: mc.Matroid) -> None:
    """The scan's sizes and first pairs against the pair loop's order."""
    first: dict[int, mc.CCIntersection] = {}
    for cc in cc_intersections(m):
        first.setdefault(cc.size, cc)
    assert achieved_sizes(m) == tuple(sorted(first))
    for k in range(m.size + 2):
        assert find_intersection_of_size(m, k) == first.get(k)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(0, 5),
    n=st.integers(1, 10),
)
def test_achieved_sizes_match_the_pairs_on_random_matrices(data, p, rows, n):
    columns = data.draw(columns_with_loops_and_parallels(p, rows, n))
    check_first_pairs(mc.from_matrix(mc.MatrixOverGF(p, rows, tuple(columns))))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), vertices=st.integers(1, 7))
def test_achieved_sizes_match_the_pairs_on_random_multigraphs(data, vertices):
    ends = st.integers(min_value=0, max_value=vertices - 1)
    pairs = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=12))
    edges = tuple((u, v, f"e{i}") for i, (u, v) in enumerate(pairs))
    check_first_pairs(mc.from_graph(mc.GraphSpec(vertices, edges)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    cm=st.integers(0, 2**20 - 1),
    dmasks=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=70),
    full=st.booleans(),
)
@example(cm=0, dmasks=[0, 0, 0, 0, 0], full=True)
def test_count_planes_match_popcount_on_random_masks(cm, dmasks, full):
    # Full masks make counts of 16..20 occur, which only the fifth plane holds.
    if full:
        cm = 2**20 - 1
        dmasks = [d | (2**20 - 1) >> (j % 5) for j, d in enumerate(dmasks)]
    columns = [sum(1 << j for j, d in enumerate(dmasks) if d >> e & 1) for e in range(20)]
    planes = analyze._count_planes(columns, cm)
    for j, d in enumerate(dmasks):
        count = sum((plane >> j & 1) << bit for bit, plane in enumerate(planes))
        assert count == (cm & d).bit_count()


def test_achieved_sizes_refuses_a_size_one_pair_at_the_last_circuit(monkeypatch):
    # Two disjoint triangles; a planted cocircuit {4} meets only the last
    # circuit {4, 5, 6}, and in one element.
    m = mc.from_graph(mc.GraphSpec(6, (
        (0, 1, "1"), (1, 2, "2"), (0, 2, "3"), (3, 4, "4"), (4, 5, "5"), (3, 5, "6"),
    )))
    assert m.circuits.masks == (0b000111, 0b111000)
    assert achieved_sizes(m) == (2,)
    real = cocircuits(m)

    class Planted(tuple):
        # What the pair scan reads of a cocircuit family: len() and masks.
        masks = property(tuple)

    monkeypatch.setattr(analyze, "cocircuits", lambda _: Planted(real.masks + (0b001000,)))
    with pytest.raises(mc.TheoremViolation, match="size 1"):
        achieved_sizes(m)


def test_cc_intersections_enumerates_all_meeting_pairs():
    m = mc.named("fano")
    pairs = cc_intersections(m)
    co = cocircuits(m)
    expected = sum(
        1 for c in m.circuits for d in co if c.mask & d.mask
    )
    assert len(pairs) == expected
    for cc in pairs:
        assert cc.circuit in m.circuits
        assert cc.cocircuit in co
        assert cc.intersection == cc.circuit & cc.cocircuit
        assert cc.size >= 2


def test_cc_intersections_cap():
    with pytest.raises(mc.CapExceeded):
        cc_intersections(mc.uniform(10, 5), cap=100)


def test_find_intersection_of_size():
    f7 = mc.named("fano")
    found = first_pair(f7, 4)
    # The canonical-first size-4 pair is a 4-circuit with itself as the
    # matching cocircuit (the complement of the first line).
    assert found.circuit == found.cocircuit
    assert len(found.circuit) == 4
    assert find_intersection_of_size(f7, 4) == found  # deterministic
    assert find_intersection_of_size(f7, 3) is None
    assert find_intersection_of_size(f7, 1) is None


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def test_extraction_when_the_matroid_is_already_minimal():
    u105 = mc.uniform(10, 5)
    cc = first_pair(u105, 6)
    ox = oxley_minor(u105, cc.circuit, cc.cocircuit)
    assert ox.minor == u105
    assert ox.spec.is_empty()
    assert ox.k == 6
    assert ox.invariant_failures() == ()


def test_extraction_u63():
    u63 = mc.uniform(6, 3)
    cc = first_pair(u63, 4)
    ox = oxley_minor(u63, cc.circuit, cc.cocircuit)
    assert ox.minor == u63
    assert ox.y == ox.x.complement()
    assert ox.invariant_failures() == ()


def test_extraction_fano():
    ox = extract(mc.named("fano"), 4)
    assert (ox.minor.size, ox.minor.rank(), ox.k) == (6, 3, 4)
    assert ox.invariant_failures() == ()
    # X stays a circuit and a cocircuit of the minor.
    assert ox.x in ox.minor.circuits
    assert ox.x in cocircuits(ox.minor)


@pytest.mark.parametrize(
    "name,k",
    [("k4", 4), ("k5", 4), ("vamos", 4), ("vamos", 5), ("nonfano", 4)],
)
def test_extraction_across_named_matroids(name, k):
    ox = extract(mc.named(name), k)
    assert ox.invariant_failures() == ()
    assert ox.minor.size == 2 * k - 2


def assert_extraction_matches_the_reference(m: mc.Matroid, k: int) -> None:
    cc = first_pair(m, k)
    want = oracles.oxley_minor_by_minors(m, cc.circuit, cc.cocircuit)
    assert oxley_minor(m, cc.circuit, cc.cocircuit) == want, (m, k)


def test_extracted_minors_match_their_spec(catalog, conjecture_reports):
    # The reference search builds every state as a minor, one removal at a
    # time; the extraction must pick the same spec, and minor(m, spec) must
    # equal the minor the reference built.
    checked = 0
    for name, m in catalog:
        for chain in conjecture_reports[name].entries:
            cc = first_pair(m, chain.k)
            want = oracles.oxley_minor_by_minors(m, cc.circuit, cc.cocircuit)
            assert chain.minor == want, (name, chain.k)
            checked += 1
    assert checked == 33


def test_scale_extractions_match_the_reference(bench_inputs, tmp_path):
    pinned = bench_inputs.load_pinned("scale")["slots"][bench_inputs.slot_of(1)]
    bench_inputs.write_documents(bench_inputs.documents("scale", pinned["instances"]), tmp_path)
    checked = 0
    for path in sorted(tmp_path.glob("*.json")):
        m = cli.parse_matroid(path)
        for k in (4, 5, 6):
            if find_intersection_of_size(m, k) is not None:
                assert_extraction_matches_the_reference(m, k)
                checked += 1
    assert checked == 8


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**31), p=st.sampled_from([2, 3]), n=st.integers(8, 10))
def test_extraction_matches_the_reference_on_random_matrices(data, seed, p, n):
    # Seeded matrices, not drawn entries: hypothesis favours zeros, whose
    # loops and parallel columns rarely leave an intersection of size 4.
    m = mc.random_linear(seed, n, data.draw(st.integers(3, n - 3)), p)
    sizes = [k for k in achieved_sizes(m) if k >= 4]
    assume(sizes)
    for k in sizes:
        assert_extraction_matches_the_reference(m, k)


@pytest.mark.parametrize(
    "m",
    [mc.uniform(7, 3), mc.named("fano"), mc.named("k4"), mc.named("nonfano")],
    ids=["u7_3", "fano", "k4", "nonfano"],
)
def test_search_viable_matches_the_minor_reference_on_every_state(m):
    # Every (deleted, contracted) pair and every X of size >= 4 among the
    # survivors, at the one count of removals the extraction DFS can reach
    # there: the survivors beyond 2k - 2.  Of these four, only the non-Fano
    # plane has a state that just the cocircuit-inside-X test prunes.  Each
    # state is checked with a fresh rank memo and with one memo shared by
    # every state, as the extraction DFS shares one across its search.
    g = m.ground
    outcomes = set()
    shared: dict[int, int] = {}
    for choice in itertools.product((0, 1, 2), repeat=m.size):
        deleted = oracles.mask_of(i for i, c in enumerate(choice) if c == 1)
        contracted = oracles.mask_of(i for i, c in enumerate(choice) if c == 2)
        cur = mc.minor(m, MinorSpec(mc.ElemSet(g, deleted), mc.ElemSet(g, contracted)))
        kept = g.full_mask & ~(deleted | contracted)
        for x_mask in oracles.submasks(kept):
            k = x_mask.bit_count()
            removals_left = kept.bit_count() - (2 * k - 2)
            if k < 4 or removals_left < 0:
                continue
            x_cur = mc.ElemSet(g, x_mask).to_ground(cur.ground).mask
            got = analyze._search_viable(m, deleted, contracted, x_mask, k, {})
            want = oracles.search_viable_by_minors(cur, x_cur, k, removals_left)
            assert got == want, (deleted, contracted, x_mask, removals_left)
            assert analyze._search_viable(m, deleted, contracted, x_mask, k, shared) == want
            outcomes.add(got)
    assert outcomes == {False, True}


def test_extraction_preconditions():
    u63 = mc.uniform(6, 3)
    g = u63.ground
    not_circuit = g.subset(["1", "2"])
    with pytest.raises(mc.PreconditionViolated):
        oxley_minor(u63, not_circuit, g.subset(["1", "2", "3", "4"]))
    # |X| = 4 is required: a self-paired circuit meets itself in 4, but two
    # circuits meeting in fewer elements are rejected.
    c = g.subset(["1", "2", "3", "4"])
    d = g.subset(["1", "2", "5", "6"])
    with pytest.raises(mc.PreconditionViolated):
        oxley_minor(u63, c, d)


# ---------------------------------------------------------------------------
# C_e families
# ---------------------------------------------------------------------------


def test_ce_family_uniform_members():
    ox = extract(mc.uniform(6, 3), 4)
    e = ox.y.labels()[0]
    fam = ce_family(ox, e)
    # Circuits are 4-subsets, so members are e plus any 3 of the 4 X elements.
    assert len(fam) == 4
    for c in fam:
        assert (c & ox.y).labels() == (e,)
        assert len(c) == 4


def test_ce_family_u84():
    ox = extract(mc.uniform(8, 4), 5)
    fam = ce_family(ox, ox.y.labels()[0])
    assert len(fam) == 5
    assert all(len(c) == 5 for c in fam)


def test_ce_family_requires_y_element():
    ox = extract(mc.uniform(6, 3), 4)
    with pytest.raises(mc.PreconditionViolated):
        ce_family(ox, ox.x.labels()[0])


@pytest.mark.parametrize("source", ["u6_3", "u8_4", "fano"])
def test_ce_families_suite_passes(source):
    if source.startswith("u"):
        n, k = map(int, source[1:].split("_"))
        ox = extract(mc.uniform(n, k), k + 1)
    else:
        ox = extract(mc.named(source), 4)
    report = check_ce_families(ox)
    assert report.status == "pass", report.failure


def test_ce_families_exercises_both_cardinality_cases():
    fano_stats = check_ce_families(extract(mc.named("fano"), 4)).exercised
    assert fano_stats["families_size_2"] >= 1
    uniform_stats = check_ce_families(extract(mc.uniform(6, 3), 4)).exercised
    assert uniform_stats["families_size_gt_2"] >= 1


# ---------------------------------------------------------------------------
# Circuit-pair and rank-2-circuit suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source,k", [("u6_3", 4), ("u8_4", 5), ("fano", 4)])
def test_circuit_pairs_suite_passes(source, k):
    m = mc.uniform(*map(int, source[1:].split("_"))) if source.startswith("u") else mc.named(source)
    report = check_circuit_pairs(extract(m, k))
    assert report.status == "pass", report.failure


def test_rank2_suite_vacuous_on_uniform_k5():
    ox = extract(mc.uniform(8, 4), 5)
    report = check_rank2_circuits(ox)
    assert report.status == "pass"
    assert report.exercised["rank2_circuits"] == 0


def test_rank2_suite_nonvacuous_on_fano_minor():
    ox = extract(mc.named("fano"), 4)
    report = check_rank2_circuits(ox)
    assert report.status == "pass", report.failure
    assert report.exercised["rank2_circuits"] == 4


def test_rank2_suite_intersecting_pairs_at_k5():
    # rand11 of the default catalog: its k=5 minor has rank-2 circuits that
    # meet, so the symmetric-difference clause runs non-vacuously.
    m = mc.random_linear(1011, 9, 4, 3)
    ox = extract(m, 5)
    report = check_rank2_circuits(ox)
    assert report.status == "pass", report.failure
    assert report.exercised["intersecting_pairs"] >= 1


def broken_minor(k: int, circuits: list[str]) -> mc.OxleyMinor:
    """An OxleyMinor over X = x1..xk and Y = y1..y(k-2) whose circuits are
    ``circuits`` (labels split on spaces), built without axiom checks, so
    that a family can break one suite law and keep the others."""
    xs = [f"x{i}" for i in range(1, k + 1)]
    g = mc.GroundSet(xs + [f"y{i}" for i in range(1, k - 1)])
    m = mc.Matroid(g, [g.subset(c.split()) for c in circuits], name="broken", validate=False)
    x = g.subset(xs)
    return mc.OxleyMinor(MinorSpec.empty(g), m, x, x.complement(), k)


@pytest.mark.parametrize(
    "suite,circuits,message",
    [
        pytest.param(
            # C_y1's two members meet in x3 as well as in y1.
            check_ce_families,
            ["x1 x2 x3 y1", "x3 x4 y1", "x1 x2 y2", "x3 x4 y2"],
            "two-member criterion fails for C_y1: size 2, pair-meets-only-e False",
            id="ce-two-member-criterion",
        ),
        pytest.param(
            # The only circuit between the symmetric difference and the
            # union is the union itself, which does not squeeze.
            check_circuit_pairs,
            ["x1 x2 y1", "x2 x3 y2", "x1 x2 x3 y1 y2"],
            "no nesting and no squeezed circuit for {x1,x2,y1}, {x2,x3,y2}",
            id="pairs-squeezed-circuit-is-the-union",
        ),
        pytest.param(
            # The circuit inside the union carries the smaller side's
            # difference (y1), not the larger side's (x2, y2).
            check_circuit_pairs,
            ["x1 y1", "x1 x2 y2", "x1 y1 y2"],
            "no witness circuit inside {x1,x2,y2} | {x1,y1} carrying its Y-part "
            "and the difference",
            id="pairs-witness-misses-the-larger-difference",
        ),
        pytest.param(
            # The X-parts nest, so clause 1 holds; clause 2 then needs the
            # Y-parts to differ.
            check_circuit_pairs,
            ["x1 y1", "x1 x2 y1"],
            "{x1,x2,y1} and {x1,y1} share their Y-part despite strictly nested X-parts",
            id="pairs-nested-x-parts-share-y",
        ),
        pytest.param(
            # Each 3-circuit spans the other's Y element.
            check_rank2_circuits,
            ["x1 x2 y1", "x1 x2 y2"],
            "rank-2 circuit {x1,x2,y1} is not a flat",
            id="rank2-circuit-not-a-flat",
        ),
    ],
)
def test_suites_fail_on_a_family_that_breaks_one_law(suite, circuits, message):
    report = suite(broken_minor(4, circuits))
    assert (report.status, report.failure) == ("fail", message)


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------


def test_witness_k4_uniform():
    ox = extract(mc.uniform(6, 3), 4)
    w = witness_k4(ox)
    y1, y2 = ox.y.labels()
    x1, x2 = ox.x.labels()[:2]
    assert w.circuit == ox.minor.ground.subset([y1, y2, x1, x2])
    assert w.cocircuit == ox.x
    assert w.intersection.labels() == (x1, x2)
    assert w.size == 2


@pytest.mark.parametrize("name", ["fano", "k4", "nonfano"])
def test_witness_k4_found_in_oracle(name):
    ox = extract(mc.named(name), 4)
    w = witness_k4(ox)
    assert w.size == 2
    assert any(
        cc.circuit == w.circuit and cc.cocircuit == w.cocircuit
        for cc in cc_intersections(ox.minor)
    )


def test_witness_k4_requires_k4():
    ox = extract(mc.uniform(8, 4), 5)
    with pytest.raises(mc.PreconditionViolated):
        witness_k4(ox)


def test_witness_k5_uniform_takes_the_general_branch():
    ox = extract(mc.uniform(8, 4), 5)
    w = witness_k5(ox)
    assert w.size == 3
    # Branch (b): neither side of the pair is X itself.
    assert w.circuit != ox.x and w.cocircuit != ox.x
    assert any(
        cc.circuit == w.circuit and cc.cocircuit == w.cocircuit
        for cc in cc_intersections(ox.minor)
    )


def test_witness_k5_vamos_takes_the_direct_branch():
    ox = extract(mc.named("vamos"), 5)
    w = witness_k5(ox)
    assert w.size == 3
    # Branch (a): a size-4 circuit with one Y element pairs with X.
    assert w.cocircuit == ox.x and len(w.circuit) == 4


def test_witness_k5_random_instance():
    ox = extract(mc.random_linear(1011, 9, 4, 3), 5)
    w = witness_k5(ox)
    assert w.size == 3
    assert any(
        cc.circuit == w.circuit and cc.cocircuit == w.cocircuit
        for cc in cc_intersections(ox.minor)
    )


def test_witness_k5_direct_branch_cocircuit_side():
    # This seeded instance's minor has a one-Y size-4 cocircuit but no
    # one-Y size-4 circuit, so the direct branch pairs X with a cocircuit.
    ox = extract(mc.random_linear(24, 8, 4, 3), 5)
    assert not any(
        len(c) == 4 and len(c & ox.y) == 1 for c in ox.minor.circuits
    )
    w = witness_k5(ox)
    assert w.size == 3
    assert w.circuit == ox.x and len(w.cocircuit) == 4
    assert any(
        cc.circuit == w.circuit and cc.cocircuit == w.cocircuit
        for cc in cc_intersections(ox.minor)
    )


def test_witness_k6_chain():
    u105 = mc.uniform(10, 5)
    ox = extract(u105, 6)
    inner = witness_k6(ox)
    assert inner == find_intersection_of_size(ox.minor, 4)
    lifted_c, lifted_d = lift_intersection(
        u105, ox.spec, ox.minor, inner.circuit, inner.cocircuit
    )
    assert len(lifted_c & lifted_d) == 4
    assert lifted_c in u105.circuits
    assert lifted_d in cocircuits(u105)
    chain = verify_conjecture(u105).entries[-1]
    assert chain.k == 6 and chain.final.size == 4
    assert chain.minor == ox
    assert chain.inner == inner
    assert (chain.final.circuit, chain.final.cocircuit) == (lifted_c, lifted_d)


def test_witness_k6_needs_size_6():
    with pytest.raises(mc.PreconditionViolated):
        witness_k6(extract(mc.uniform(10, 5), 5))


def test_witness_k6_on_random_binary_matroid():
    # Seeded GF(2) instance achieving sizes (2, 4, 6) and nothing odd.
    m = mc.random_linear(2, 12, 6, 2)
    assert mc.achieved_sizes(m) == (2, 4, 6)
    ox = extract(m, 6)
    inner = witness_k6(ox)
    assert inner.size == 4
    lifted_c, lifted_d = lift_intersection(
        m, ox.spec, ox.minor, inner.circuit, inner.cocircuit
    )
    assert len(lifted_c & lifted_d) == 4
    assert lifted_c in m.circuits
    assert lifted_d in cocircuits(m)
    report = verify_conjecture(m)
    assert [(c.k, c.final.size) for c in report.entries] == [(4, 2), (6, 4)]


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


def test_lift_through_empty_spec_is_identity():
    f7 = mc.named("fano")
    cc = first_pair(f7, 4)
    spec = MinorSpec.empty(f7.ground)
    lifted_c, lifted_d = lift_intersection(f7, spec, f7, cc.circuit, cc.cocircuit)
    assert lifted_c == cc.circuit and lifted_d == cc.cocircuit


def test_lift_through_deletion():
    u63 = mc.uniform(6, 3)
    spec = MinorSpec(u63.ground.subset(["6"]), u63.ground.empty())
    sub = mc.minor(u63, spec)
    cc = cc_intersections(sub)[0]
    lifted_c, lifted_d = lift_intersection(u63, spec, sub, cc.circuit, cc.cocircuit)
    assert lifted_c in u63.circuits
    assert lifted_d in cocircuits(u63)
    assert (lifted_c & lifted_d).labels() == cc.intersection.labels()


def test_lift_through_contraction():
    f7 = mc.named("fano")
    spec = MinorSpec(f7.ground.empty(), f7.ground.subset(["1"]))
    sub = mc.minor(f7, spec)
    cc = cc_intersections(sub)[0]
    lifted_c, lifted_d = lift_intersection(f7, spec, sub, cc.circuit, cc.cocircuit)
    assert lifted_c in f7.circuits
    assert lifted_d in cocircuits(f7)
    assert (lifted_c & lifted_d).labels() == cc.intersection.labels()


def test_lift_rejects_non_circuits():
    u63 = mc.uniform(6, 3)
    spec = MinorSpec(u63.ground.subset(["6"]), u63.ground.empty())
    sub = mc.minor(u63, spec)
    with pytest.raises(mc.PreconditionViolated):
        lift_intersection(
            u63, spec, sub, sub.ground.subset(["1", "2"]), sub.ground.subset(["1", "2"])
        )
    # In U(3,5) the 4-sets are circuits and the 3-sets are cocircuits.
    four = sub.ground.subset(["1", "2", "3", "4"])
    with pytest.raises(mc.PreconditionViolated):
        lift_intersection(u63, spec, sub, four, four)


def test_lift_rejects_a_minor_over_other_elements():
    u63 = mc.uniform(6, 3)
    spec = MinorSpec(u63.ground.subset(["6"]), u63.ground.empty())
    other = mc.minor(u63, MinorSpec(u63.ground.empty(), u63.ground.subset(["5"])))
    cc = cc_intersections(other)[0]
    with pytest.raises(mc.PreconditionViolated):
        lift_intersection(u63, spec, other, cc.circuit, cc.cocircuit)


# ---------------------------------------------------------------------------
# Whole-matroid verification
# ---------------------------------------------------------------------------


def test_verify_fano():
    report = verify_conjecture(mc.named("fano"))
    assert report.achieved == (2, 4)
    assert [(c.k, c.final.size) for c in report.entries] == [(4, 2)]
    assert all(s.status == "pass" for s in report.suites.values())
    assert not report.vacuous


def test_verify_u105_all_three_chains():
    report = verify_conjecture(mc.uniform(10, 5))
    assert [(c.k, c.final.size) for c in report.entries] == [
        (4, 2), (5, 3), (6, 4),
    ]
    m = mc.uniform(10, 5)
    for chain in report.entries:
        final = chain.final
        assert final.circuit in m.circuits
        assert final.cocircuit in cocircuits(m)


def test_verify_triangle_is_vacuous():
    report = verify_conjecture(mc.uniform(3, 2))
    assert report.entries == ()
    assert report.vacuous
    assert all(s.status == "vacuous" for s in report.suites.values())


def test_verify_is_deterministic():
    a = verify_conjecture(mc.named("vamos"))
    b = verify_conjecture(mc.named("vamos"))
    assert a == b


def test_verify_reports_sizes_beyond_six_without_asserting():
    # U_12^6 achieves size 7.  Built directly from the circuit list to skip
    # constructor validation, which is slow at this size and covered by the
    # axiom checks of smaller uniforms.
    import itertools

    from matroidcc.core import GroundSet, Matroid

    g = GroundSet(str(i + 1) for i in range(12))
    masks = []
    for combo in itertools.combinations(range(12), 7):
        m = 0
        for i in combo:
            m |= 1 << i
        masks.append(m)
    u126 = Matroid(g, masks, name="u12_6", validate=False)
    report = verify_conjecture(u126)
    assert report.achieved == (2, 3, 4, 5, 6, 7)
    assert [(c.k, c.final.size) for c in report.entries] == [
        (4, 2), (5, 3), (6, 4),
    ]
    assert report.out_of_scope == ((7, True),)


def test_duality_keeps_sizes_chains_and_extracted_minors(
    catalog, conjecture_reports, bench_inputs, tmp_path
):
    # The circuits of M* are the cocircuits of M, so M and M* achieve the
    # same sizes; and if N = M \ D / C realizes X as a circuit and a
    # cocircuit of rank k - 1, so does N* = M* / D \ C (Oxley, Matroid
    # Theory, §2.1 and §3.1).  This checks the table dual, the handed-over
    # tables, minor and extraction against each other on the seed-1
    # catalog and the slot-1 scale and linear_gf3 inputs.
    inputs = [(m, conjecture_reports[name]) for name, m in catalog]
    for workload in ("scale", "linear_gf3"):
        pinned = bench_inputs.load_pinned(workload)["slots"][bench_inputs.slot_of(1)]
        out = tmp_path / workload
        bench_inputs.write_documents(bench_inputs.documents(workload, pinned["instances"]), out)
        for path in sorted(out.glob("*.json")):
            m = cli.parse_matroid(path)
            inputs.append((m, verify_conjecture(m)))
    chains = 0
    for m, report in inputs:
        d = mc.dual(m)
        assert achieved_sizes(d) == report.achieved, m.name
        dual_report = verify_conjecture(d)
        assert "fail" not in [s.status for s in dual_report.suites.values()], m.name
        for chain in report.entries:
            ox = chain.minor
            swapped = MinorSpec(ox.spec.contracted, ox.spec.deleted)
            n_star = mc.minor(d, swapped)
            assert n_star == mc.dual(ox.minor), (m.name, chain.k)
            x = n_star.ground.subset(ox.x)
            dual_ox = mc.OxleyMinor(swapped, n_star, x, x.complement(), chain.k)
            assert dual_ox.invariant_failures() == (), (m.name, chain.k)
            chains += 1
    assert chains == 33 + 8 + 45
