"""Ground sets, subsets, axiom validation, and the derived rank machinery."""

from __future__ import annotations

import contextlib
import itertools
import random
from typing import Iterator

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import matroidcc as mc
from matroidcc import GroundSet, Matroid, MinorSpec, core

import oracles
from test_construct import columns_with_loops_and_parallels


def ground(n: int) -> GroundSet:
    return GroundSet(str(i + 1) for i in range(n))


# ---------------------------------------------------------------------------
# Ground sets and element sets
# ---------------------------------------------------------------------------


def test_ground_set_index_bijection():
    g = ground(5)
    for i, lab in enumerate(g.labels):
        assert g.index(lab) == i
        assert g.label(i) == lab
    assert len(g) == 5


def test_ground_set_rejects_duplicates_and_bad_labels():
    with pytest.raises(mc.InvalidParameter):
        GroundSet(["a", "a"])
    with pytest.raises(mc.InvalidParameter):
        GroundSet(["a", ""])


def test_ground_sets_and_uniform_matroids_take_at_most_max_scan_elements():
    assert len(ground(mc.MAX_SCAN)) == mc.MAX_SCAN
    with pytest.raises(mc.CapExceeded):
        ground(mc.MAX_SCAN + 1)
    with pytest.raises(mc.InvalidParameter):
        mc.uniform(mc.MAX_SCAN + 1, 3)


def test_elemset_operations_closed_over_ground():
    g = ground(6)
    a = g.subset(["1", "2", "3"])
    b = g.subset(["3", "4"])
    assert (a | b).labels() == ("1", "2", "3", "4")
    assert (a & b).labels() == ("3",)
    assert (a - b).labels() == ("1", "2")
    assert (a ^ b).labels() == ("1", "2", "4")
    assert a.complement().labels() == ("4", "5", "6")
    assert b <= a | b and not (a <= b)
    assert "2" in a and "5" not in a
    other = ground(6)
    assert a == other.subset(["1", "2", "3"])  # equality is by labels


def test_elemset_ground_mismatch_raises():
    a = ground(3).subset(["1"])
    b = GroundSet(["x", "y", "z"]).subset(["x"])
    with pytest.raises(mc.InvalidParameter):
        a | b


OTHER = GroundSet(["x", "y", "z"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: core.dependency_table(2, [0b100]), "mask 0x4 has bits outside 2 elements"),
        (lambda: mc.from_circuits(["a", "b", "c"], [["a", "z"]]), "unknown element label 'z'"),
        (lambda: core.ElemSet(ground(3), 0b1000), "subset mask has bits outside its ground set"),
        (lambda: core.ElemSet(ground(3), -1), "subset mask has bits outside its ground set"),
        (lambda: mc.CircuitFamily(ground(3), [0b1000]),
         "subset mask has bits outside its ground set"),
        (lambda: mc.CircuitFamily(ground(3), [OTHER.full()]),
         "circuit over a different ground set"),
        (lambda: mc.validate_circuit_axioms([0b1]), "ground set required for a raw circuit list"),
        (lambda: Matroid(ground(3), mc.CircuitFamily(OTHER, [])),
         "circuit family belongs to a different ground set"),
        (lambda: mc.uniform(3, 2).rank(OTHER.full()), "subset belongs to a different ground set"),
    ],
    ids=["table-mask", "unknown-label", "elemset-mask", "elemset-negative", "family-mask",
         "family-ground", "raw-list-ground", "matroid-family-ground", "foreign-subset"],
)
def test_core_refuses_bad_input_with_its_message(call, message):
    with pytest.raises(mc.InvalidParameter) as exc:
        call()
    assert type(exc.value) is mc.InvalidParameter and str(exc.value) == message


def test_value_types_hash_compare_and_print():
    g = ground(3)
    a, b = g.subset(["1"]), g.subset(["1", "2"])
    assert a < b and not b < a and not a < a
    assert hash(a) == hash(ground(3).subset(["1"])) and hash(g) == hash(ground(3))
    assert repr(g) == "GroundSet(['1', '2', '3'])"
    m = mc.uniform(3, 2)
    assert hash(m) == hash(mc.uniform(3, 2)) and hash(m.circuits) == hash(m.circuits)
    assert repr(m.circuits) == "CircuitFamily(1 circuits)"
    assert repr(m) == "Matroid('u3_2' |E|=3 rank=2 circuits=1)"
    assert "1" not in m.circuits  # neither an element set nor a mask
    report = mc.AxiomReport(True)
    assert report == mc.AxiomReport(True) and hash(report) == hash(mc.AxiomReport(True))
    assert report != "circuit axioms hold"
    assert repr(report) == "AxiomReport(ok=True, axiom=None, witnesses=(), element=None)"
    assert repr(MinorSpec(a, g.subset(["2"]))) == "MinorSpec(del={1}, con={2})"


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


def test_axioms_single_circuit_ok():
    g = ground(3)
    report = mc.validate_circuit_axioms([g.subset(["1", "2", "3"])], g)
    assert report.ok


def test_axioms_containment_is_c2():
    g = ground(2)
    report = mc.validate_circuit_axioms(
        [g.subset(["1"]), g.subset(["1", "2"])], g
    )
    assert not report.ok
    assert report.axiom == "C2"
    assert [w.labels() for w in report.witnesses] == [("1",), ("1", "2")]


def test_axioms_weak_elimination():
    g = ground(3)
    broken = mc.validate_circuit_axioms(
        [g.subset(["1", "2"]), g.subset(["2", "3"])], g
    )
    assert not broken.ok and broken.axiom == "C3" and broken.element == "2"
    fixed = mc.validate_circuit_axioms(
        [g.subset(["1", "2"]), g.subset(["2", "3"]), g.subset(["1", "3"])], g
    )
    assert fixed.ok


def test_axioms_empty_circuit_is_c1():
    g = ground(2)
    report = mc.validate_circuit_axioms([g.empty()], g)
    assert not report.ok and report.axiom == "C1"


def test_matroid_constructor_rejects_bad_family():
    g = ground(2)
    with pytest.raises(mc.AxiomError):
        Matroid(g, [g.subset(["1"]), g.subset(["1", "2"])])


# ---------------------------------------------------------------------------
# Canonical order and re-indexing against their former versions
# ---------------------------------------------------------------------------


def test_mask_sort_key_orders_like_index_tuples_exhaustively():
    for n in range(11):
        masks = list(range(1 << n))
        random.Random(n).shuffle(masks)
        assert sorted(masks, key=mc.core.mask_sort_key) == sorted(
            masks, key=oracles.mask_sort_key
        )


def test_mask_sort_key_orders_like_index_tuples_on_wide_masks():
    rng = random.Random(20)
    for bits in (20, 64):
        masks = [rng.getrandbits(bits) for _ in range(4000)]
        # Same-size masks that differ only high up, and only low down.
        masks += [m ^ (1 << (bits - 1)) for m in masks[:200]]
        masks += [m ^ 3 for m in masks[:200]]
        assert sorted(masks, key=mc.core.mask_sort_key) == sorted(
            masks, key=oracles.mask_sort_key
        )


def _index_map(kept: int) -> dict[int, int]:
    return {old: new for new, old in enumerate(oracles.indices_of(kept))}


def test_compress_masks_matches_index_map_exhaustively():
    for n in range(11):
        for kept in range(1 << n):
            inside = list(oracles.submasks(kept))
            index_map = _index_map(kept)
            assert mc.core.compress_masks(inside, kept) == [
                oracles.compress_mask(m, index_map) for m in inside
            ]


def test_compress_masks_matches_index_map_on_random_20_bit_masks():
    rng = random.Random(7)
    for _ in range(300):
        kept = rng.getrandbits(20)
        masks = [rng.getrandbits(20) & kept for _ in range(30)]
        index_map = _index_map(kept)
        assert mc.core.compress_masks(masks, kept) == [
            oracles.compress_mask(m, index_map) for m in masks
        ]


# ---------------------------------------------------------------------------
# Dependency table and validation against the scan oracle
# ---------------------------------------------------------------------------


@st.composite
def circuit_families(draw, min_n: int = 0, max_n: int = 9):
    """(n, masks): circuits of a uniform or linear matroid, a small
    matroid's circuits padded with coloops, or arbitrary masks, then up to
    three random edits, so that C1, C2 and C3 violations all occur."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    top = (1 << n) - 1
    kind = draw(st.sampled_from(["arbitrary", "uniform", "linear", "padded"]))
    if kind == "uniform" and n <= 9:
        r = draw(st.integers(min_value=0, max_value=n))
        masks = [oracles.mask_of(c) for c in itertools.combinations(range(n), r + 1)]
    elif kind == "linear" and 1 <= n <= 9:
        p = draw(st.sampled_from([2, 3, 5]))
        rows = draw(st.integers(min_value=1, max_value=4))
        columns = draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=p - 1)] * rows),
                min_size=n, max_size=n,
            )
        )
        masks = list(mc.from_matrix(mc.MatrixOverGF(p, rows, tuple(columns))).circuits.masks)
    elif kind == "padded":
        masks = list(mc.named(draw(st.sampled_from(["fano", "k4", "vamos"]))).circuits.masks)
        masks = [m for m in masks if m <= top]
    else:
        masks = draw(st.lists(st.integers(min_value=0, max_value=top), max_size=12))
    edits = st.tuples(
        st.sampled_from(["drop", "add", "flip"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=top),
    )
    for op, at, value in draw(st.lists(edits, max_size=3)):
        if op == "add":
            masks.append(value)
        elif masks and op == "drop":
            masks.pop(at % len(masks))
        elif masks and n:
            masks[at % len(masks)] ^= 1 << (at % n)
    return n, masks


@settings(max_examples=100, derandomize=True, deadline=None)
@given(circuit_families(max_n=8))
def test_dependency_table_matches_brute_force_on_every_subset(family):
    n, masks = family
    table = mc.core.dependency_table(n, masks)
    assert len(table) == max(1, 2**n // 8)
    for s in range(2**n):
        want = any(m & ~s == 0 for m in masks)
        assert bool(table[s >> 3] >> (s & 7) & 1) == want


@st.composite
def nested_families(draw, min_n: int, max_n: int) -> tuple[int, list[int]]:
    """Unions of two masks from a small pool: members repeat, nest often,
    and the pool may hold the empty set."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    pool = draw(st.lists(masks, min_size=1, max_size=6))
    pairs = st.tuples(st.sampled_from(pool), st.sampled_from(pool))
    return n, [a | b for a, b in draw(st.lists(pairs, max_size=16))]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(nested_families(0, 8))
@example((3, [0b011, 0b011, 0b111, 0b100, 0b110]))
@example((4, [0b1010, 0, 0b1010, 0]))
@example((8, [0b11 << 6, 0b11 << 6, 1 << 7 | 1, 1 << 7]))
def test_minimal_members_matches_brute_force(family):
    # The minimal sets of a family's dependency table are its members that
    # contain no other member.
    n, masks = family
    table = mc.core.dependency_table(n, masks)
    got = mc.core._minimal_sets(n, table)
    assert got == sorted(got)
    want = {m for m in masks if not any(o & ~m == 0 and o != m for o in masks)}
    assert len(got) == len(want) and set(got) == want


def assert_same_report(n: int, masks: list[int]) -> mc.AxiomReport:
    g = ground(n)
    got = mc.validate_circuit_axioms(masks, g)
    want = oracles.validate_circuit_axioms_scan(masks, g)
    assert got == want
    assert got.describe() == want.describe()
    if want.axiom in (None, "C3"):
        # The bitset pass must decide C3 itself, not defer to the pair scan.
        table = mc.core.dependency_table(n, masks)
        assert mc.core._weak_elimination_holds(n, masks, table) == want.ok
    return want


@settings(max_examples=600, derandomize=True, deadline=None)
@given(circuit_families())
def test_validation_matches_scan_oracle(family):
    assert_same_report(*family)


@pytest.mark.parametrize("axiom", ["C1", "C2", "C3", None])
def test_family_strategy_covers_every_outcome(axiom):
    def outcome(family):
        return oracles.validate_circuit_axioms_scan(family[1], ground(family[0])).axiom

    found = find(
        circuit_families(),
        lambda f: outcome(f) == axiom,
        settings=settings(derandomize=True, database=None, phases=[Phase.generate]),
    )
    assert_same_report(*found)


# ---------------------------------------------------------------------------
# Rank
# ---------------------------------------------------------------------------


def test_rank_uniform_examples():
    u42 = mc.uniform(4, 2)
    assert u42.rank(u42.ground.subset(["1", "2", "3"])) == 2
    assert u42.rank(u42.ground.empty()) == 0
    assert u42.rank() == 2


def test_rank_fano_full_matches_brute_force():
    f7 = mc.named("fano")
    assert f7.rank() == 3
    assert oracles.brute_rank(f7, f7.ground.full_mask) == 3


SMALL_MATROIDS = [
    "uniform(4,2)",
    "uniform(5,3)",
    "uniform(3,3)",
    "named(fano)",
    "named(k4)",
    "named(wheel3)",
]


def small_matroid(spec: str) -> Matroid:
    if spec.startswith("uniform"):
        n, k = map(int, spec[8:-1].split(","))
        return mc.uniform(n, k)
    return mc.named(spec[6:-1])


@pytest.mark.parametrize("spec", SMALL_MATROIDS)
def test_greedy_rank_equals_brute_force_everywhere(spec):
    m = small_matroid(spec)
    for sub in oracles.submasks(m.ground.full_mask):
        assert m.rank(m.ground.from_mask(sub)) == oracles.brute_rank(m, sub)


def test_greedy_rank_matches_brute_force_on_small_catalog_members(catalog):
    checked = 0
    for name, m in catalog:
        if m.size > 7:
            continue
        for sub in oracles.submasks(m.ground.full_mask):
            assert m.rank(m.ground.from_mask(sub)) == oracles.brute_rank(m, sub), (
                f"{name}: greedy rank diverges on mask {sub:b}"
            )
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("spec", ["uniform(5,3)", "named(fano)", "named(k4)"])
def test_rank_monotone_and_submodular_exhaustive(spec):
    m = small_matroid(spec)
    g = m.ground
    subs = list(oracles.submasks(g.full_mask))
    ranks = {s: m.rank(g.from_mask(s)) for s in subs}
    for a in subs:
        for b in subs:
            if a & ~b == 0:
                assert ranks[a] <= ranks[b]
            assert ranks[a] + ranks[b] >= ranks[a | b] + ranks[a & b]


def test_rank_monotone_and_submodular_random_large():
    m = mc.uniform(10, 5)
    rng = random.Random(7)
    g = m.ground
    for _ in range(300):
        a = rng.getrandbits(10)
        b = rng.getrandbits(10)
        ra, rb = m.rank(g.from_mask(a)), m.rank(g.from_mask(b))
        assert ra + rb >= m.rank(g.from_mask(a | b)) + m.rank(g.from_mask(a & b))
        if a & ~b == 0:
            assert ra <= rb


def test_rank_unit_increase():
    m = mc.named("fano")
    g = m.ground
    for sub in oracles.submasks(g.full_mask):
        r = m.rank(g.from_mask(sub))
        for i in range(g.size):
            if not (sub >> i) & 1:
                grown = m.rank(g.from_mask(sub | (1 << i)))
                assert grown in (r, r + 1)


# ---------------------------------------------------------------------------
# Closure and hyperplanes
# ---------------------------------------------------------------------------


def test_closure_uniform_examples():
    u42 = mc.uniform(4, 2)
    g = u42.ground
    assert u42.closure(g.subset(["1"])) == g.subset(["1"])
    assert u42.closure(g.subset(["1", "2"])) == g.full()


def test_closure_of_fano_line_pair_is_the_line():
    f7 = mc.named("fano")
    g = f7.ground
    for line in oracles.fano_line_label_sets():
        labs = sorted(line, key=g.index)
        pair = g.subset(labs[:2])
        assert f7.closure(pair) == g.subset(labs)


@pytest.mark.parametrize("spec", ["uniform(5,2)", "named(fano)", "named(k4)"])
def test_closure_laws_exhaustive(spec):
    m = small_matroid(spec)
    g = m.ground
    for sub in oracles.submasks(g.full_mask):
        s = g.from_mask(sub)
        cl = m.closure(s)
        assert s <= cl
        assert m.closure(cl) == cl
        assert m.rank(cl) == m.rank(s)


@settings(max_examples=50, derandomize=True)
@given(a=st.integers(min_value=0, max_value=255), b=st.integers(min_value=0, max_value=255))
def test_closure_monotone_on_vamos(a, b):
    m = mc.named("vamos")
    g = m.ground
    small, large = g.from_mask(a & b), g.from_mask(a | b)
    assert m.closure(small) <= m.closure(large)


def test_hyperplanes_uniform_and_free():
    u42 = mc.uniform(4, 2)
    assert [h.labels() for h in u42.hyperplanes()] == [("1",), ("2",), ("3",), ("4",)]
    u33 = mc.uniform(3, 3)
    assert {h.labels() for h in u33.hyperplanes()} == {
        ("1", "2"), ("1", "3"), ("2", "3")
    }


def test_hyperplanes_of_fano_are_the_seven_lines():
    f7 = mc.named("fano")
    got = {frozenset(h.labels()) for h in f7.hyperplanes()}
    assert got == set(oracles.fano_line_label_sets())
    assert len(got) == 7


def test_hyperplanes_of_rank_zero_matroid_empty():
    g = ground(2)
    loops = Matroid(g, [g.subset(["1"]), g.subset(["2"])])
    assert loops.rank() == 0
    assert loops.hyperplanes() == ()


def table_dual_cocircuits(m: Matroid) -> list[int]:
    """The cocircuits, in increasing mask value, that the table dual reads
    off a dependency table rebuilt from m's circuits."""
    table = mc.core.dual_table(m.size, mc.core.dependency_table(m.size, m.circuits.masks))
    return mc.core._minimal_sets(m.size, table)


def assert_table_dual_matches_the_closure_scan(m: Matroid) -> None:
    hyperplanes = oracles.hyperplanes_by_closures(m)
    assert [h.mask for h in m.hyperplanes()] == hyperplanes
    complements = sorted(m.ground.full_mask ^ h for h in hyperplanes)
    assert table_dual_cocircuits(m) == complements
    assert sorted(mc.cocircuits(m).masks) == complements


@pytest.mark.parametrize("name", mc.NAMED_CATALOG)
def test_table_dual_matches_the_closure_scan_on_named_matroids(name):
    assert_table_dual_matches_the_closure_scan(mc.named(name))


@pytest.mark.parametrize("n", range(1, 11))
def test_table_dual_of_free_and_rank_zero_matroids(n):
    # Fewer than three elements give tables shorter than one byte.
    free, loops = mc.uniform(n, n), mc.uniform(n, 0)
    assert_table_dual_matches_the_closure_scan(free)
    assert_table_dual_matches_the_closure_scan(loops)
    assert table_dual_cocircuits(free) == [1 << i for i in range(n)]
    assert table_dual_cocircuits(loops) == []
    with built_matroids() as built:
        for m in (mc.uniform(n, n), mc.uniform(n, 0)):
            mc.dual(mc.dual(m))
    assert len(built) == 6
    assert_tables_rebuild_from_circuits(built)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(0, 10),
    n=st.integers(1, 10),
)
def test_table_dual_matches_the_closure_scan_on_random_matrices(data, p, rows, n):
    # Zero rows give rank 0; rows >= n often give full rank.
    columns = data.draw(columns_with_loops_and_parallels(p, rows, n))
    assert_table_dual_matches_the_closure_scan(
        mc.from_matrix(mc.MatrixOverGF(p, rows, tuple(columns)))
    )


@contextlib.contextmanager
def built_matroids() -> Iterator[list[Matroid]]:
    """Every ``Matroid`` constructed inside the block, in order."""
    built: list[Matroid] = []
    init = Matroid.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matroid, "__init__", recording)
        yield built


def assert_tables_rebuild_from_circuits(matroids: list[Matroid]) -> None:
    # The table a matroid keeps, handed over or built, is the one its
    # circuits close to.
    for m in matroids:
        assert m._table == mc.core.dependency_table(m.size, m.circuits.masks)
        if m._co_table is not None:
            assert m._co_table == mc.core.dual_table(m.size, m._table)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(0, 10),
    n=st.integers(1, 10),
)
def test_every_built_matroid_holds_the_table_of_its_circuits(data, p, rows, n):
    # Zero rows give rank 0 and rows >= n often full rank; rank r < n / 2
    # takes from_matrix's row branch, which keeps the dual's table for dual.
    columns = data.draw(columns_with_loops_and_parallels(p, rows, n))
    removed = data.draw(st.integers(0, (1 << n) - 1))
    with built_matroids() as built:
        m = mc.from_matrix(mc.MatrixOverGF(p, rows, tuple(columns)))
        contracted = mc.contract(m, m.ground.from_mask(removed))
        for x in (m, contracted):
            mc.dual(mc.dual(x))
    assert len(built) >= 3  # m, its dual and their dual at least
    assert_tables_rebuild_from_circuits(built)


def test_matroid_takes_its_circuits_or_a_table_of_one_bit_per_subset():
    g = GroundSet(["a", "b", "c"])
    table = mc.core.dependency_table(3, [0b011])
    assert Matroid(g, (), table=table).circuits.masks == (0b011,)
    with pytest.raises(TypeError):
        Matroid(g)  # no circuits, no table
    for circuits, bad in (([0b011], table), ((), table * 2), ((), b"")):
        with pytest.raises(mc.InvalidParameter):
            Matroid(g, circuits, table=bad)


def test_row_branch_builds_its_dual_only_when_asked():
    # Rank 1 on 4 columns takes from_matrix's row branch; the dual's table
    # it closed is kept, and the dual matroid is built by ``dual`` alone.
    with built_matroids() as built:
        m = mc.from_matrix(mc.MatrixOverGF.from_rows(2, [[1, 1, 1, 1]]))
    assert built == [m] and m._dual_cache is None
    assert m._co_table == mc.core.dual_table(4, m._table)
    assert mc.dual(m)._table is m._co_table


# ---------------------------------------------------------------------------
# Fundamental circuits, simplicity, restriction, uniform test
# ---------------------------------------------------------------------------


def test_fundamental_circuit_uniform():
    u42 = mc.uniform(4, 2)
    g = u42.ground
    c = u42.fundamental_circuit(g.subset(["1", "2"]), "3")
    assert c == g.subset(["1", "2", "3"])


def test_fundamental_circuit_fano_line():
    f7 = mc.named("fano")
    g = f7.ground
    line = sorted(oracles.fano_line_label_sets()[0], key=g.index)
    c = f7.fundamental_circuit(g.subset(line[:2]), line[2])
    assert c == g.subset(line)


def test_fundamental_circuit_unique_by_brute_scan():
    f7 = mc.named("fano")
    g = f7.ground
    for sub in oracles.submasks(g.full_mask):
        s = g.from_mask(sub)
        if not f7.is_independent(s):
            continue
        for lab in g.labels:
            if lab in s:
                continue
            grown = s | g.singleton(lab)
            if f7.is_independent(grown):
                continue
            c = f7.fundamental_circuit(s, lab)
            inside = [
                d for d in f7.circuits if lab in d and d <= grown
            ]
            assert inside == [c]


def test_fundamental_circuit_preconditions():
    u42 = mc.uniform(4, 2)
    g = u42.ground
    with pytest.raises(mc.PreconditionViolated):
        u42.fundamental_circuit(g.subset(["1"]), "2")  # stays independent
    with pytest.raises(mc.PreconditionViolated):
        u42.fundamental_circuit(g.subset(["1", "2", "3"]), "4")  # base dependent
    with pytest.raises(mc.PreconditionViolated):
        u42.fundamental_circuit(g.subset(["1", "2"]), "2")  # already inside


def test_fundamental_circuit_of_a_broken_family_is_not_unique():
    # {1,2} and {1,3} break C3, and both lie in {2,3} + 1.
    g = ground(3)
    broken = Matroid(g, [0b011, 0b101], validate=False)
    with pytest.raises(mc.TheoremViolation) as exc:
        broken.fundamental_circuit(g.subset(["2", "3"]), "1")
    assert str(exc.value) == (
        "fundamental circuit not unique (2 candidates); circuit axioms are broken"
    )


def test_is_simple():
    assert mc.uniform(4, 2).is_simple()
    assert mc.named("fano").is_simple()
    g = ground(3)
    loop = Matroid(g, [g.subset(["1"])])
    assert not loop.is_simple()
    parallel = Matroid(g, [g.subset(["1", "2"])])
    assert not parallel.is_simple()


def test_restriction_uniform_cases():
    u53 = mc.uniform(5, 3)
    g = u53.ground
    free = mc.delete(u53, g.subset(["1", "2", "3"]).complement())
    assert (free.size, free.circuits.masks) == (3, mc.uniform(3, 3).circuits.masks)
    u43 = mc.delete(u53, g.subset(["1", "2", "3", "4"]).complement())
    assert (u43.size, u43.circuits.masks) == (4, mc.uniform(4, 3).circuits.masks)


def test_restriction_of_fano_to_a_line():
    f7 = mc.named("fano")
    g = f7.ground
    line = sorted(oracles.fano_line_label_sets()[0], key=g.index)
    restricted = mc.delete(f7, g.subset(line).complement())
    assert (restricted.size, restricted.circuits.masks) == (3, mc.uniform(3, 2).circuits.masks)


def test_matroids_are_value_equal():
    assert mc.uniform(4, 2) == mc.uniform(4, 2)
    assert mc.uniform(4, 2) != mc.uniform(4, 3)


def test_mask_paths_make_no_elem_set(monkeypatch):
    # Inside the package subsets are masks; an ElemSet is made only where a
    # public function hands one out, and none of these does.
    labels = [str(i) for i in range(1, 8)]
    circuits = [list(c) for c in itertools.combinations(labels, 4)]
    row_space, kernel = mc.random_matrix(5, 9, 2, 3), mc.random_matrix(5, 9, 6, 3)
    m = mc.from_matrix(row_space)
    assert m._co_table is not None and mc.from_matrix(kernel)._co_table is None
    spec = MinorSpec(m.ground.subset(["1", "2"]), m.ground.subset(["3"]))
    made: list[int] = []
    init = core.ElemSet.__init__

    def counting(self, ground, mask):
        made.append(mask)
        init(self, ground, mask)

    monkeypatch.setattr(core.ElemSet, "__init__", counting)
    m.circuits[0]
    assert len(made) == 1  # the count sees a construction
    calls = {
        "from_circuits": lambda: mc.from_circuits(labels, circuits),
        "from_matrix, row space": lambda: mc.from_matrix(row_space),
        "from_matrix, kernel": lambda: mc.from_matrix(kernel),
        "dual": lambda: mc.dual(m),
        "minor": lambda: mc.minor(m, spec),
        "validate_circuit_axioms": lambda: mc.validate_circuit_axioms(m.circuits),
        "achieved_sizes": lambda: mc.achieved_sizes(m),
    }
    for name, call in calls.items():
        made.clear()
        call()
        assert made == [], name
    assert mc.validate_circuit_axioms(m.circuits).ok  # the family above is valid
