"""Core matroid machinery: ground sets, bitmask subsets, circuit families.

A matroid is stored as the full list of its circuits (minimal dependent
sets) over a labelled ground set of at most ``MAX_SCAN`` elements, and one
``dependency_table``, a bitset over all subsets marking those that contain
a circuit.  Inside the package subsets are int bitmasks; an ``ElemSet``,
a mask with its ground set, is made only where a public function, a
report or the CLI hands one out.  Every derived query -- axiom
validation, rank, closure, simplicity -- is a lookup in that table.  The
table is closed upwards from the circuits, or handed over by a producer
that has closed it already, and then its minimal sets are the circuits.
The dual's table comes from the matroid's in a few whole-table shift-and-mask
passes (``dual_table``).  The canonical order used everywhere is by
cardinality, then lexicographically by element index; every deterministic
tie-break in the package relies on it.  No object is changed after
construction (caches fill idempotently).
"""

from __future__ import annotations

import re
from math import comb
from typing import Callable, Iterable, Iterator

from .errors import (
    AxiomError,
    CapExceeded,
    InvalidParameter,
    PreconditionViolated,
    TheoremViolation,
)

# Every ground set has at most this many elements: a dependency table has
# 2^n bits, 128 KiB at this size.
MAX_SCAN = 20

# The default cap on the circuit-cocircuit pairs one matroid may have.
DEFAULT_PAIR_CAP = 10_000_000


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# Byte b bit-reversed, for reversing the bits of a mask one byte at a time.
_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def mask_sort_key(mask: int) -> int:
    """Canonical comparison key: cardinality, then lex on ascending indices.

    Of two sets of one size, A comes first iff the lowest element of A ^ B
    is in A, that is, iff A reversed over the 64 mask bits is the larger.
    The key is cardinality * 2^64 minus that reversal.
    """
    reversed_mask = int.from_bytes(
        mask.to_bytes(8, "little").translate(_BYTE_REVERSED), "big"
    )
    return (mask.bit_count() << 64) - reversed_mask


def compress_masks(masks: Iterable[int], kept: int) -> list[int]:
    """Re-index masks lying inside ``kept`` onto its elements in ascending
    order (the i-th element of ``kept`` becomes bit i).  Each maximal run
    of kept positions moves down by one shift."""
    runs: list[tuple[int, int]] = []
    rest = kept
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)  # the lowest run of consecutive kept bits
        below = kept.bit_count() - rest.bit_count()
        runs.append((run, low.bit_length() - 1 - below))
        rest ^= run
    out = []
    for m in masks:
        c = 0
        for run, shift in runs:
            c |= (m & run) >> shift
        out.append(c)
    return out


def _lacking(n: int) -> Iterator[tuple[int, int]]:
    """For each element i of an n-element ground set: (2^i, the 2^n-bit
    int marking the subsets that lack i).  Those are the low 2^i bits of
    every 2^(i+1)-bit period, built by doubling."""
    size = 1 << n
    for i in range(n):
        width = 1 << i
        lacking = (1 << width) - 1
        period = width << 1
        while period < size:
            lacking |= lacking << period
            period <<= 1
        yield width, lacking


def _member_bits(n: int, masks: Iterable[int]) -> int:
    raw = bytearray(max(1, (1 << n) >> 3))
    for m in masks:
        if m < 0 or m >> n:
            raise InvalidParameter(f"mask {m:#x} has bits outside {n} elements")
        raw[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(raw, "little")


def _close_up(n: int, family: int) -> int:
    """Upward closure of a family of subsets given as a 2^n-bit int: step i
    of n shift-OR steps adds element i to every marked subset lacking it."""
    for width, lacking in _lacking(n):
        family |= (family & lacking) << width
    return family


def _table_bytes(n: int, closed: int) -> bytes:
    return closed.to_bytes(max(1, (1 << n) >> 3), "little")


def dependency_table(n: int, masks: Iterable[int]) -> bytes:
    """Bitset over the 2^n subsets of an n-element ground set: bit S is set
    iff S contains a member of ``masks``.

    Read bit S as ``table[S >> 3] >> (S & 7) & 1``.  The members are set
    one bit each, then closed upwards (``_close_up``).
    """
    return _table_bytes(n, _close_up(n, _member_bits(n, masks)))


def dual_table(n: int, table: bytes) -> bytes:
    """The dual's dependency table, from the table of a matroid on n elements.

    S is dependent in the dual iff E - S does not span (Oxley, Matroid
    Theory, Prop. 2.1.9).  On the 2^n-bit table this is: the bases are the
    independent sets with no independent one-element extension; closing
    them upwards gives the spanning sets; reversing the bit string maps
    each subset to its complement, so the non-spanning sets become the
    dual's dependent sets.  Every step is n shift-and-mask operations on
    one int.
    """
    size = 1 << n
    full = (1 << size) - 1
    independent = full ^ int.from_bytes(table, "little")
    extendable = 0
    for width, lack in _lacking(n):
        extendable |= (independent >> width) & lack
    spanning = _close_up(n, independent & ~extendable)  # the bases, closed up
    # Bit S moves to bit 2^n - 1 - S: bytes in reverse order, each byte's
    # bits reversed, then the padding below 2^n bits shifted out.
    nonspanning = _table_bytes(n, full ^ spanning)
    reversed_bits = int.from_bytes(nonspanning.translate(_BYTE_REVERSED), "big")
    codependent = reversed_bits >> (8 * len(nonspanning) - size)
    return _table_bytes(n, codependent)


def _minimal_sets(n: int, table: bytes) -> list[int]:
    """The minimal sets, in increasing mask value, of an upward-closed
    family given as a table: the sets in it that are not in it shifted up
    by one element.  Of a dependency table, the circuits (Oxley, Matroid
    Theory, §1.1: circuits are minimal dependent sets)."""
    closed = int.from_bytes(table, "little")
    larger = 0
    for width, lack in _lacking(n):
        larger |= (closed & lack) << width
    minimal = _table_bytes(n, closed & ~larger)
    out = []
    for hit in re.finditer(rb"[^\x00]", minimal):
        byte = hit.start()
        for bit in bit_indices(minimal[byte]):
            out.append(byte << 3 | bit)
    return out


def contains_smaller_member(dependent: Callable[[int], int], mask: int) -> bool:
    """True iff some mask - e passes ``dependent``, that is, iff the mask
    strictly contains a member of the family the test was built from."""
    rest = mask
    while rest:
        low = rest & -rest
        if dependent(mask ^ low):
            return True
        rest ^= low
    return False


def _weak_elimination_holds(n: int, masks: Iterable[int], table: bytes) -> bool:
    """C3 for an antichain ``masks`` without the empty set, whose
    ``dependency_table`` is ``table``, decided on all 2^n subsets at once.

    C3 fails iff some subset S with no member inside and some element e
    outside S have two distinct members through e inside S + e: their
    union minus e lies in S.  For each e, one AND keeps the members through
    e, and an upward closure on a pair of bitsets (count >= 1, count >= 2)
    counts them below every subset, saturating at two.
    """
    lacking = list(_lacking(n))
    full = (1 << (1 << n)) - 1
    members = _member_bits(n, masks)
    independent = full ^ int.from_bytes(table, "little")
    for e, (e_width, e_lack) in enumerate(lacking):
        one = members & ~e_lack
        two = 0
        for i, (width, lack) in enumerate(lacking):
            if i != e and one:
                up = (one & lack) << width
                two |= ((two & lack) << width) | (one & up)
                one |= up
        if two & ((independent & e_lack) << e_width):
            return False
    return True


class Record:
    """Base of the package's plain value types: ``==``, ``hash`` and
    ``repr`` over the fields named in ``__slots__``, in order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GroundSet:
    """Ordered, immutable set of distinct element labels.

    Index order (position in the label list) is the canonical element
    order.  An empty ground set is representable so that minors may
    degenerate; file ingestion rejects it.
    """

    __slots__ = ("labels", "size", "full_mask", "_index")

    def __init__(self, labels: Iterable[str]) -> None:
        labs = tuple(labels)
        if len(labs) > MAX_SCAN:
            raise CapExceeded(
                f"ground set has {len(labs)} elements; the cap is {MAX_SCAN}"
            )
        for lab in labs:
            if not isinstance(lab, str) or not lab:
                raise InvalidParameter(
                    f"element labels must be non-empty strings, got {lab!r}"
                )
        index = {lab: i for i, lab in enumerate(labs)}
        if len(index) != len(labs):
            raise InvalidParameter("element labels must be pairwise distinct")
        self.labels = labs
        self.size = len(labs)
        self.full_mask = (1 << len(labs)) - 1
        self._index = index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidParameter(f"unknown element label {label!r}") from None

    def label(self, index: int) -> str:
        return self.labels[index]

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bit_indices(mask))

    def subset(self, labels: Iterable[str]) -> "ElemSet":
        return ElemSet(self, self.mask_of(labels))

    def singleton(self, label: str) -> "ElemSet":
        return ElemSet(self, 1 << self.index(label))

    def from_mask(self, mask: int) -> "ElemSet":
        return ElemSet(self, mask)

    def empty(self) -> "ElemSet":
        return ElemSet(self, 0)

    def full(self) -> "ElemSet":
        return ElemSet(self, self.full_mask)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.labels)!r})"


class ElemSet:
    """Subset of a ground set, stored as a bitmask."""

    __slots__ = ("ground", "mask")

    def __init__(self, ground: GroundSet, mask: int) -> None:
        if mask < 0 or mask & ~ground.full_mask:
            raise InvalidParameter("subset mask has bits outside its ground set")
        self.ground = ground
        self.mask = mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElemSet)
            and self.mask == other.mask
            and self.ground == other.ground
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.mask))

    def _check(self, other: "ElemSet") -> None:
        if self.ground != other.ground:
            raise InvalidParameter("element sets live over different ground sets")

    def __or__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.ground, self.mask | other.mask)

    def __and__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.ground, self.mask & other.mask)

    def __sub__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.ground, self.mask & ~other.mask)

    def __xor__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.ground, self.mask ^ other.mask)

    def complement(self) -> "ElemSet":
        return ElemSet(self.ground, self.ground.full_mask & ~self.mask)

    def __le__(self, other: "ElemSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElemSet") -> bool:
        return self <= other and self.mask != other.mask

    def isdisjoint(self, other: "ElemSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, label: object) -> bool:
        return (
            isinstance(label, str)
            and label in self.ground
            and bool(self.mask >> self.ground.index(label) & 1)
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def labels(self) -> tuple[str, ...]:
        return self.ground.labels_of(self.mask)

    def to_ground(self, other: GroundSet) -> "ElemSet":
        """Translate by labels onto another ground set."""
        return other.subset(self.labels())

    def __repr__(self) -> str:
        return "{" + ",".join(self) + "}"


class CircuitFamily:
    """Deduplicated list of circuits held in canonical order, as masks
    (``masks``, with their ``sizes``).  Indexing and iteration wrap a mask
    in an ``ElemSet`` when it is read; the package itself reads masks."""

    __slots__ = ("ground", "masks", "sizes", "_members")

    def __init__(self, ground: GroundSet, circuits: Iterable[ElemSet | int]) -> None:
        masks = set()
        for c in circuits:
            if isinstance(c, ElemSet):
                if c.ground != ground:
                    raise InvalidParameter("circuit over a different ground set")
                masks.add(c.mask)
            else:
                masks.add(int(c))
        if any(m >> ground.size for m in masks):  # negative masks included
            raise InvalidParameter("subset mask has bits outside its ground set")
        ordered = sorted(masks, key=mask_sort_key)
        self.ground = ground
        self.masks = tuple(ordered)
        self.sizes = tuple(m.bit_count() for m in ordered)
        self._members = frozenset(ordered)

    def __iter__(self) -> Iterator[ElemSet]:
        return map(self.ground.from_mask, self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i: int) -> ElemSet:
        return ElemSet(self.ground, self.masks[i])

    def __contains__(self, item: object) -> bool:
        if isinstance(item, ElemSet):
            return item.ground == self.ground and item.mask in self._members
        if isinstance(item, int):
            return item in self._members
        return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CircuitFamily)
            and self.ground == other.ground
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.masks))

    def __repr__(self) -> str:
        return f"CircuitFamily({len(self.masks)} circuits)"


class AxiomReport(Record):
    """Outcome of circuit-axiom validation; failure carries a witness."""

    __slots__ = ("ok", "axiom", "witnesses", "element")

    def __init__(
        self,
        ok: bool,
        axiom: str | None = None,
        witnesses: tuple[ElemSet, ...] = (),
        element: str | None = None,
    ) -> None:
        self.ok = ok
        self.axiom = axiom
        self.witnesses = witnesses
        self.element = element

    def describe(self) -> str:
        if self.ok:
            return "circuit axioms hold"
        parts = [f"axiom {self.axiom} violated"]
        if self.witnesses:
            parts.append("witnesses " + ", ".join(repr(w) for w in self.witnesses))
        if self.element is not None:
            parts.append(f"at element {self.element}")
        return "; ".join(parts)


def validate_circuit_axioms(
    circuits: CircuitFamily | Iterable[ElemSet | int],
    ground: GroundSet | None = None,
    *,
    table: bytes | None = None,
) -> AxiomReport:
    """Check C1 (no empty circuit), C2 (antichain), C3 (weak elimination).

    Returns a report rather than raising: the first violated axiom in
    canonical scan order together with the witnessing sets/element.
    ``table`` is the family's ``dependency_table`` when the caller already
    holds it (a ``Matroid`` hands over its own); otherwise it is built here.
    """
    if isinstance(circuits, CircuitFamily):
        fam = circuits
    else:
        if ground is None:
            raise InvalidParameter("ground set required for a raw circuit list")
        fam = CircuitFamily(ground, circuits)
    g = fam.ground
    masks = fam.masks
    sizes = fam.sizes
    n = len(masks)

    # C1: the empty set is never a circuit.  Canonical order puts it first.
    if n and sizes[0] == 0:
        return AxiomReport(False, "C1", (fam[0],))

    if table is None:
        table = dependency_table(g.size, masks)
    dependent = lambda s: table[s >> 3] >> (s & 7) & 1

    # C2: no circuit contains another, i.e. no C - e contains a member.
    # Only when some circuit does is the first nesting pair searched for;
    # sizes ascend, so only i < j can nest.
    if any(contains_smaller_member(dependent, m) for m in masks):
        for i in range(n):
            mi = masks[i]
            for j in range(i + 1, n):
                if sizes[j] > sizes[i] and mi & ~masks[j] == 0:
                    return AxiomReport(False, "C2", (fam[i], fam[j]))

    # C3 (weak elimination): for distinct circuits and any common element e,
    # the union minus e must contain some member.  A bitset pass proves it;
    # the pair scan then only runs to name the first violating pair and
    # element.
    if _weak_elimination_holds(g.size, masks, table):
        return AxiomReport(True)
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            common, union = mi & masks[j], mi | masks[j]
            while common:
                low = common & -common
                if not dependent(union ^ low):
                    return AxiomReport(
                        False,
                        "C3",
                        (fam[i], fam[j]),
                        g.label(low.bit_length() - 1),
                    )
                common ^= low
    return AxiomReport(True)


class Matroid:
    """Immutable matroid presented by its canonical circuit family and its
    ``dependency_table``, closed from the circuits or handed over, with
    ``()`` as the circuits, by a producer in this package that closed it:
    its length is checked, its upward closure trusted.

    Rank, closure and flats all derive from the independence test
    "contains no circuit", a lookup in the table; rank uses the greedy
    scan in element index order, which the exchange property makes exact.
    """

    __slots__ = (
        "ground",
        "circuits",
        "name",
        "_table",
        "_co_table",
        "_dependent_mask",
        "_rank_full",
        "_dual_cache",
    )

    def __init__(
        self,
        ground: GroundSet,
        circuits: CircuitFamily | Iterable[ElemSet | int],
        *,
        name: str | None = None,
        validate: bool = True,
        table: bytes | None = None,
    ) -> None:
        if table is not None:
            if circuits != () or len(table) != max(1, (1 << ground.size) >> 3):
                raise InvalidParameter("a table needs () as circuits, one bit per subset")
            circuits = _minimal_sets(ground.size, table)
        fam = (
            circuits
            if isinstance(circuits, CircuitFamily)
            else CircuitFamily(ground, circuits)
        )
        if fam.ground != ground:
            raise InvalidParameter("circuit family belongs to a different ground set")
        # The table serves validation, the dual and every rank, closure and
        # independence query below.
        if table is None:
            table = dependency_table(ground.size, fam.masks)
        if validate:
            report = validate_circuit_axioms(fam, table=table)
            if not report.ok:
                raise AxiomError(report)
        self._table = table
        self._co_table: bytes | None = None  # the dual's, if closed first
        self._dependent_mask = lambda s: table[s >> 3] >> (s & 7) & 1
        self.ground = ground
        self.circuits = fam
        self.name = name
        self._dual_cache = None
        self._rank_full = self._greedy_basis_mask(ground.full_mask).bit_count()

    # -- independence primitives ------------------------------------------

    def _greedy_basis_mask(self, mask: int) -> int:
        cur = 0
        for i in bit_indices(mask):
            cand = cur | (1 << i)
            if not self._dependent_mask(cand):
                cur = cand
        return cur

    def _closure_mask(self, mask: int) -> int:
        base = self._greedy_basis_mask(mask)
        cl = mask
        for i in bit_indices(self.ground.full_mask & ~mask):
            if self._dependent_mask(base | (1 << i)):
                cl |= 1 << i
        return cl

    # -- public queries ----------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.size

    def is_independent(self, subset: ElemSet) -> bool:
        self._own(subset)
        return not self._dependent_mask(subset.mask)

    def rank(self, subset: ElemSet | None = None) -> int:
        """Size of a maximum independent subset (of the whole ground if None)."""
        if subset is None:
            return self._rank_full
        self._own(subset)
        return self._greedy_basis_mask(subset.mask).bit_count()

    def closure(self, subset: ElemSet) -> ElemSet:
        """All elements whose addition leaves the rank unchanged."""
        self._own(subset)
        return ElemSet(self.ground, self._closure_mask(subset.mask))

    def hyperplanes(self) -> tuple[ElemSet, ...]:
        """All maximal proper flats, in canonical order: the complements of
        the cocircuits, the minimal sets of the ``dual_table``.  Rank-0
        matroids have no cocircuit and yield an empty tuple."""
        full = self.ground.full_mask
        codependent = self._co_table or dual_table(self.size, self._table)
        out = [full ^ d for d in _minimal_sets(self.size, codependent)]
        return tuple(ElemSet(self.ground, m) for m in sorted(out, key=mask_sort_key))

    def fundamental_circuit(self, independent: ElemSet, element: str) -> ElemSet:
        """The unique circuit inside independent + element that contains it."""
        self._own(independent)
        bit = 1 << self.ground.index(element)
        if independent.mask & bit:
            raise PreconditionViolated(f"element {element!r} already in the set")
        if self._dependent_mask(independent.mask):
            raise PreconditionViolated("base set is dependent")
        cand = independent.mask | bit
        if not self._dependent_mask(cand):
            raise PreconditionViolated(
                f"adding {element!r} keeps the set independent"
            )
        hits = [
            m for m in self.circuits.masks if m & bit and m & ~cand == 0
        ]
        if len(hits) != 1:
            raise TheoremViolation(
                f"fundamental circuit not unique ({len(hits)} candidates); "
                "circuit axioms are broken"
            )
        return ElemSet(self.ground, hits[0])

    def is_simple(self) -> bool:
        """True iff there is no loop (1-circuit) and no parallel pair (2-circuit)."""
        return not (self.circuits.sizes and self.circuits.sizes[0] <= 2)

    def restrict(self, subset: ElemSet) -> "Matroid":
        """Matroid on the subset whose circuits are those contained in it."""
        self._own(subset)
        return self._restricted(subset.mask)

    def _restricted(self, kept: int) -> "Matroid":
        masks = compress_masks((m for m in self.circuits.masks if m & ~kept == 0), kept)
        return Matroid(GroundSet(self.ground.labels_of(kept)), masks, validate=False)

    def is_uniform(self, n: int, k: int) -> bool:
        """True iff the circuit family is exactly that of the rank-k uniform
        matroid on n elements (all (k+1)-subsets; empty when k = n)."""
        if self.size != n or k < 0 or k > n:
            return False
        want = comb(n, k + 1)
        return len(self.circuits) == want and all(s == k + 1 for s in self.circuits.sizes)

    # -- plumbing ------------------------------------------------------------

    def _own(self, subset: ElemSet) -> None:
        if subset.ground != self.ground:
            raise InvalidParameter("subset belongs to a different ground set")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matroid) and self.circuits == other.circuits

    def __hash__(self) -> int:
        return hash(self.circuits)

    def __repr__(self) -> str:
        tag = f"{self.name!r} " if self.name else ""
        return (
            f"Matroid({tag}|E|={self.size} "
            f"rank={self._rank_full} circuits={len(self.circuits)})"
        )
