"""Duality and minor operations: dual, cocircuits, deletion, contraction.

Each result closes one dependency table, and a table handed over gives
the circuits as its minimal sets: the dual's holds the sets whose
complement does not span (``core.dual_table`` of the parent's), and a
minor's the closure of the parent's circuits that miss the deleted set,
less the contracted set.  Basis complementation and the closure scan over
(r-1)-sets are kept out of the package on purpose: the test suite uses
them as independent oracles against this construction.
"""

from __future__ import annotations

from .core import (
    CircuitFamily,
    ElemSet,
    GroundSet,
    Matroid,
    Record,
    compress_masks,
    dependency_table,
    dual_table,
)
from .errors import InvalidParameter, OverlappingSpec, TheoremViolation


class MinorSpec(Record):
    """Disjoint (deleted, contracted) pair over one parent ground set."""

    __slots__ = ("deleted", "contracted")

    def __init__(self, deleted: ElemSet, contracted: ElemSet) -> None:
        if deleted.ground != contracted.ground:
            raise InvalidParameter("delete and contract sets over different grounds")
        if not deleted.isdisjoint(contracted):
            raise OverlappingSpec(
                f"delete and contract sets overlap: {deleted & contracted!r}"
            )
        self.deleted = deleted
        self.contracted = contracted

    @classmethod
    def empty(cls, ground: GroundSet) -> "MinorSpec":
        return cls(ground.empty(), ground.empty())

    def is_empty(self) -> bool:
        return not self.deleted and not self.contracted

    def __repr__(self) -> str:
        return f"MinorSpec(del={self.deleted!r}, con={self.contracted!r})"


def dual(m: Matroid) -> Matroid:
    """Dual matroid: its dependency table holds the sets S whose complement
    E - S does not span m: the one ``from_matrix``'s row branch closed, or
    ``core.dual_table`` of m's.  Its rank is checked against |E| - r(m).
    The result is cached on the input, but not the reverse link, so
    dual(dual(m)) exercises a fresh computation."""
    d = m._dual_cache
    if d is None:
        table = m._co_table or dual_table(m.size, m._table)
        name = f"dual({m.name})" if m.name else None
        d = Matroid(m.ground, (), name=name, validate=False, table=table)
        if d.rank() != m.size - m.rank():
            raise TheoremViolation(
                "dual rank differs from |E| - rank; cocircuit enumeration is buggy"
            )
        m._dual_cache = d
    return d


def cocircuits(m: Matroid) -> CircuitFamily:
    """Circuits of the dual, in canonical order."""
    return dual(m).circuits


def delete(m: Matroid, removed: ElemSet) -> Matroid:
    """Deletion: keep exactly the circuits avoiding the removed set."""
    if removed.ground != m.ground:
        raise InvalidParameter("removed set over a different ground set")
    if not removed:
        return m
    kept = m.ground.full_mask & ~removed.mask
    masks = compress_masks((c for c in m.circuits.masks if c & ~kept == 0), kept)
    return Matroid(GroundSet(m.ground.labels_of(kept)), masks, validate=False)


def contract(m: Matroid, removed: ElemSet) -> Matroid:
    """Contraction: the minor that deletes nothing and contracts the
    removed set T, an ``ElemSet`` over m's ground set."""
    if removed.ground != m.ground:
        raise InvalidParameter("removed set over a different ground set")
    return minor(m, MinorSpec(m.ground.empty(), removed))


def minor(m: Matroid, spec: MinorSpec) -> Matroid:
    """Apply a minor spec: M \\ D / C in one closure.

    The circuits of M \\ D / C are the minimal nonempty sets C' - C over
    the circuits C' of M that miss D (Oxley, Matroid Theory, §3.1),
    so those sets, moved onto the survivors and closed upwards, are the
    minor's dependency table.  The order of deletion and contraction does
    not matter; the tests check both orders against this.
    """
    if spec.deleted.ground != m.ground:
        raise InvalidParameter("minor spec over a different ground set")
    if spec.is_empty():
        return m
    deleted, contracted = spec.deleted.mask, spec.contracted.mask
    kept = m.ground.full_mask & ~(deleted | contracted)
    reduced = {c & ~contracted for c in m.circuits.masks if not c & deleted}
    reduced.discard(0)  # a circuit inside C leaves nothing
    table = dependency_table(kept.bit_count(), compress_masks(reduced, kept))
    return Matroid(GroundSet(m.ground.labels_of(kept)), (), validate=False, table=table)
