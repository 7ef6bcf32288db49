"""Duality and minors: involution, cocircuit oracles, deletion, contraction."""

from __future__ import annotations

import itertools
import random

import pytest

import matroidcc as mc
from matroidcc import MinorSpec, cocircuits, contract, delete, dual, minor

import oracles

SAMPLE = ["u4_2", "u5_2", "u6_3", "u3_3", "fano", "nonfano", "k4", "wheel3", "vamos"]


def build(name: str) -> mc.Matroid:
    if name.startswith("u"):
        n, k = map(int, name[1:].split("_"))
        return mc.uniform(n, k)
    return mc.named(name)


# ---------------------------------------------------------------------------
# Dual
# ---------------------------------------------------------------------------


def test_dual_of_u42_is_itself():
    u42 = mc.uniform(4, 2)
    assert dual(u42) == u42


@pytest.mark.parametrize("name", SAMPLE)
def test_dual_is_an_involution(name):
    m = build(name)
    assert dual(dual(m)) == m
    assert dual(m).rank() == m.size - m.rank()


@pytest.mark.parametrize("name", ["u4_2", "u5_2", "u6_3", "fano", "k4", "vamos"])
def test_dual_circuits_match_corank_oracle(name):
    m = build(name)
    assert sorted(cocircuits(m).masks) == oracles.brute_dual_circuit_masks(m)


def test_cocircuits_of_uniform_and_free():
    u42 = mc.uniform(4, 2)
    assert all(len(d) == 3 for d in cocircuits(u42))
    assert len(cocircuits(u42)) == 4
    u33 = mc.uniform(3, 3)
    assert [d.labels() for d in cocircuits(u33)] == [("1",), ("2",), ("3",)]


def test_fano_cocircuits_are_line_complements():
    f7 = mc.named("fano")
    labels = frozenset(f7.ground.labels)
    got = {frozenset(d.labels()) for d in cocircuits(f7)}
    assert got == {labels - line for line in oracles.fano_line_label_sets()}


def test_k4_cocircuits_are_the_bonds():
    k4 = mc.named("k4")
    edges = (
        (0, 1, "e12"), (0, 2, "e13"), (0, 3, "e14"),
        (1, 2, "e23"), (1, 3, "e24"), (2, 3, "e34"),
    )
    assert sorted(cocircuits(k4).masks) == oracles.graph_bond_masks(4, edges)
    by_size = sorted(len(d) for d in cocircuits(k4))
    assert by_size == [3, 3, 3, 3, 4, 4, 4]  # four vertex stars, three 2-2 cuts


@pytest.mark.parametrize("name", ["u4_2", "u6_3", "fano", "k4", "vamos"])
def test_basis_complementation(name):
    m = build(name)
    d = dual(m)
    g = m.ground
    for sub in oracles.submasks(g.full_mask):
        s = g.from_mask(sub)
        co = g.from_mask(g.full_mask & ~sub)
        assert oracles.is_basis(m, s) == oracles.is_basis(d, co)


# ---------------------------------------------------------------------------
# Deletion and contraction
# ---------------------------------------------------------------------------


def test_delete_uniform():
    u42 = mc.uniform(4, 2)
    assert delete(u42, u42.ground.subset(["4"])).circuits.masks == mc.uniform(3, 2).circuits.masks
    assert delete(u42, u42.ground.empty()) is u42


def test_delete_fano_point():
    f7 = mc.named("fano")
    m = delete(f7, f7.ground.subset(["1"]))
    assert (m.size, m.rank()) == (6, 3)
    triangles = [c for c in m.circuits if len(c) == 3]
    lines_avoiding = [
        line for line in oracles.fano_line_label_sets() if "1" not in line
    ]
    assert len(triangles) == len(lines_avoiding) == 4
    assert {frozenset(c.labels()) for c in triangles} == set(lines_avoiding)


def test_contract_uniform():
    u42 = mc.uniform(4, 2)
    assert contract(u42, u42.ground.subset(["4"])).circuits.masks == mc.uniform(3, 1).circuits.masks
    assert contract(u42, u42.ground.empty()) is u42


def test_contract_fano_point_gives_three_parallel_pairs():
    f7 = mc.named("fano")
    m = contract(f7, f7.ground.subset(["1"]))
    assert (m.size, m.rank()) == (6, 2)
    pairs = [c for c in m.circuits if len(c) == 2]
    assert len(pairs) == 3  # the three lines through the point collapse


@pytest.mark.parametrize("name", SAMPLE)
def test_contract_circuits_match_rank_oracle_for_every_removed_set(name):
    m = build(name)
    g = m.ground
    for tmask in oracles.submasks(g.full_mask):
        got = contract(m, g.from_mask(tmask))
        want = oracles.contraction_circuit_masks(m.circuits.masks, m.size, tmask)
        assert sorted(got.circuits.masks) == want


@pytest.mark.parametrize("name", ["u5_3", "fano", "k4"])
def test_contract_rank_formula_exhaustive(name):
    m = build(name)
    g = m.ground
    for tmask in oracles.submasks(g.full_mask):
        t = g.from_mask(tmask)
        sub = contract(m, t)
        rt = m.rank(t)
        for smask in oracles.submasks(g.full_mask & ~tmask):
            s = g.from_mask(smask)
            expected = m.rank(g.from_mask(smask | tmask)) - rt
            assert sub.rank(s.to_ground(sub.ground)) == expected


# ---------------------------------------------------------------------------
# Minor composition
# ---------------------------------------------------------------------------


def test_minor_identity():
    m = mc.named("fano")
    assert minor(m, MinorSpec.empty(m.ground)) is m


def test_minor_overlap_rejected():
    g = mc.uniform(4, 2).ground
    with pytest.raises(mc.OverlappingSpec):
        MinorSpec(g.subset(["1", "2"]), g.subset(["2"]))


def test_minor_uniform_arithmetic():
    u63 = mc.uniform(6, 3)
    spec = MinorSpec(u63.ground.subset(["6"]), u63.ground.subset(["5"]))
    assert minor(u63, spec).circuits.masks == mc.uniform(4, 2).circuits.masks


def delete_then_contract(m: mc.Matroid, spec: MinorSpec) -> mc.Matroid:
    """M \\ D / C as two steps: a restriction, then a contraction."""
    deleted = delete(m, spec.deleted)
    return contract(deleted, spec.contracted.to_ground(deleted.ground))


@pytest.mark.parametrize("name", ["fano", "k4", "u6_3", "vamos"])
def test_minor_orders_commute_on_random_specs(name):
    m = build(name)
    g = m.ground
    rng = random.Random(2024)
    for _ in range(50):
        dels, cons = [], []
        for lab in g.labels:
            roll = rng.random()
            if roll < 0.2:
                dels.append(lab)
            elif roll < 0.4:
                cons.append(lab)
        spec = MinorSpec(g.subset(dels), g.subset(cons))
        d_first = delete_then_contract(m, spec)
        c_first = delete(
            contract(m, spec.contracted),
            spec.deleted.to_ground(contract(m, spec.contracted).ground),
        )
        assert d_first == c_first
        assert minor(m, spec) == d_first


@pytest.mark.parametrize("name", ["fano", "nonfano", "k4", "wheel3", "vamos", "u6_3"])
def test_minor_equals_delete_then_contract_on_every_split(name):
    m = build(name)
    g = m.ground
    # Each element is kept, deleted or contracted: all 3^|E| splits.
    for roles in itertools.product(range(3), repeat=m.size):
        dels = sum(1 << i for i, role in enumerate(roles) if role == 1)
        cons = sum(1 << i for i, role in enumerate(roles) if role == 2)
        spec = MinorSpec(g.from_mask(dels), g.from_mask(cons))
        assert minor(m, spec) == delete_then_contract(m, spec), spec


@pytest.mark.parametrize("name", ["fano", "k4", "u5_2", "vamos"])
def test_deletion_dualizes_to_contraction(name):
    m = build(name)
    g = m.ground
    for lab in g.labels[:3]:
        t = g.subset([lab])
        left = dual(delete(m, t))
        right = contract(dual(m), t)
        assert left == right


def test_minors_validate_even_without_construction_check():
    # Derived matroids skip constructor-time validation; the families must
    # still satisfy the axioms.
    for name in SAMPLE:
        m = build(name)
        g = m.ground
        t = g.subset([g.labels[0]])
        for derived in (delete(m, t), contract(m, t), dual(m)):
            assert mc.validate_circuit_axioms(derived.circuits).ok


def test_delete_everything_degenerates():
    u42 = mc.uniform(4, 2)
    m = delete(u42, u42.ground.full())
    assert m.size == 0 and m.rank() == 0 and len(m.circuits) == 0


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SAMPLE)
def test_no_circuit_meets_a_cocircuit_in_one_element(name):
    m = build(name)
    for c in m.circuits:
        for d in cocircuits(m):
            assert len(c & d) != 1


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

U42 = mc.uniform(4, 2)
OTHER = mc.GroundSet(["a", "b", "c", "d"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MinorSpec(U42.ground.empty(), OTHER.empty()),
         "delete and contract sets over different grounds"),
        (lambda: delete(U42, OTHER.subset(["a"])), "removed set over a different ground set"),
        (lambda: contract(U42, OTHER.subset(["a"])), "removed set over a different ground set"),
        (lambda: minor(U42, MinorSpec.empty(OTHER)), "minor spec over a different ground set"),
    ],
    ids=["spec", "delete", "contract", "minor"],
)
def test_transforms_refuse_sets_over_another_ground(call, message):
    with pytest.raises(mc.InvalidParameter) as exc:
        call()
    assert type(exc.value) is mc.InvalidParameter and str(exc.value) == message


def test_dual_of_a_broken_family_fails_its_rank_check():
    # {1,2} and {1,3} break C3: the greedy rank of the table is 1, and
    # that of its dual table 1 as well, not 3 - 1.
    g = mc.GroundSet(["1", "2", "3"])
    broken = mc.Matroid(g, [0b011, 0b101], validate=False)
    with pytest.raises(mc.TheoremViolation) as exc:
        dual(broken)
    assert str(exc.value) == (
        "dual rank differs from |E| - rank; cocircuit enumeration is buggy"
    )
