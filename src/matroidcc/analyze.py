"""Circuit-cocircuit intersection analysis.

This module carries the substantive machinery: the achieved intersection
sizes and each one's first pair from one bit-sliced pass over the
circuits, extraction of a verified minor in which the intersection X
becomes both a circuit and a cocircuit (a depth-first search that reads
ranks of the input through one memo per search), the property suites over
that minor's special circuit families, and the constructive size-(k-2)
witnesses for k = 4, 5, 6, lifted back to the original matroid.  All of
it reads circuits and cocircuits as masks; the brute-force pair list the
tests check it against is ``tests/oracles.py::cc_intersections``.
"""

from __future__ import annotations

from typing import Callable

from .core import DEFAULT_PAIR_CAP, ElemSet, Matroid, Record, bit_indices
from .errors import (
    CapExceeded,
    ExtractionFailed,
    InvalidParameter,
    LiftFailed,
    PreconditionViolated,
    TheoremViolation,
)
from .transform import MinorSpec, cocircuits, dual, minor


class CCIntersection(Record):
    """A circuit and a cocircuit that meet."""

    __slots__ = ("circuit", "cocircuit")

    def __init__(self, circuit: ElemSet, cocircuit: ElemSet) -> None:
        self.circuit = circuit
        self.cocircuit = cocircuit
        if self.size == 0:
            raise InvalidParameter("disjoint circuit/cocircuit pair")
        if self.size == 1:
            raise TheoremViolation(
                "circuit-cocircuit intersection of size 1; "
                "a circuit and a cocircuit can never meet in a single element"
            )

    @property
    def intersection(self) -> ElemSet:
        return self.circuit & self.cocircuit

    @property
    def size(self) -> int:
        return (self.circuit.mask & self.cocircuit.mask).bit_count()


# Bit v of _VALUE_BIT[d] is set iff bit d of v is, for every count 0..31
# that five counter planes hold.
_VALUE_BIT = tuple(sum(1 << v for v in range(32) if v >> d & 1) for d in range(5))


def _count_planes(columns: list[int], cm: int) -> tuple[int, int, int, int, int]:
    """Bit planes of the counts |cm & D_j|, where bit j of ``columns[e]`` is
    set iff e is in D_j: bit j of the d-th plane is bit d of the j-th count.

    Each element of ``cm`` adds its column into the planes, a vertical
    binary counter.  Five planes hold any count below 32; in a matroid on
    at most 20 elements a circuit and a cocircuit share at most 11.
    """
    p0 = p1 = p2 = p3 = p4 = 0
    while cm:
        low = cm & -cm
        cm ^= low
        # Ripple-carry add, stopping at the first plane with no carry.
        add = columns[low.bit_length() - 1]
        carry = p0 & add
        p0 ^= add
        if carry:
            add = p1 & carry
            p1 ^= carry
            if add:
                carry = p2 & add
                p2 ^= add
                if carry:
                    add = p3 & carry
                    p3 ^= carry
                    if add:
                        p4 ^= add
    return p0, p1, p2, p3, p4


def _first_pairs(m: Matroid, cap: int) -> dict[int, tuple[int, int]]:
    """Each achieved size |C & D| -> its canonical-first pair, as (circuit,
    cocircuit) masks; size 1 raises.

    One bit-sliced pass: with bit j of ``columns[e]`` set iff e is in the
    j-th cocircuit, ``_count_planes`` counts a circuit's intersections with
    every cocircuit at once.  Count 1 is tested on every circuit; the
    sizes not seen yet are found together by one descent over the planes,
    which follows a branch only while it holds both cocircuits and wanted
    sizes.  A pair is the first of its size in (circuit, cocircuit) index
    order.  More than ``cap`` circuit-cocircuit pairs raise ``CapExceeded``.
    """
    co = cocircuits(m)
    total = len(m.circuits) * len(co)
    if total > cap:
        raise CapExceeded(
            f"{total} circuit-cocircuit pairs exceed the cap of {cap}"
        )
    cmasks, dmasks = m.circuits.masks, co.masks
    columns = [0] * m.size
    for j, dm in enumerate(dmasks):
        bit = 1 << j
        while dm:
            low = dm & -dm
            dm ^= low
            columns[low.bit_length() - 1] |= bit
    everyone = (1 << len(dmasks)) - 1
    first: dict[int, tuple[int, int]] = {}
    seen = 0  # bit v set once size v is achieved, so v keeps its first pair
    for cm in cmasks:
        planes = _count_planes(columns, cm)
        p0, p1, p2, p3, p4 = planes
        if p0 & ~(p1 | p2 | p3 | p4):
            raise TheoremViolation(
                "achieved intersection size 1; duality machinery is broken"
            )
        size = cm.bit_count()
        want = ((2 << size) - 4) & ~seen  # sizes 2..|C| not seen yet
        if not want:
            continue
        # From plane 0 up, split the cocircuits by that bit of their count
        # and the wanted sizes by the same bit; a branch is kept only while
        # it holds both.  After the last plane, ``want`` is the one count of
        # every cocircuit left in ``mask``, and the lowest of them is first.
        depth = size.bit_length()
        branches = [(everyone, 0, want)]
        while branches:
            mask, d, want = branches.pop()
            if d == depth:
                seen |= want
                first[want.bit_length() - 1] = (cm, dmasks[(mask & -mask).bit_length() - 1])
                continue
            plane = planes[d]
            ones = want & _VALUE_BIT[d]
            if ones and mask & plane:
                branches.append((mask & plane, d + 1, ones))
            zeros = want ^ ones
            if zeros and mask & ~plane:
                branches.append((mask & ~plane, d + 1, zeros))
    return first


def achieved_sizes(m: Matroid, cap: int = DEFAULT_PAIR_CAP) -> tuple[int, ...]:
    """Sorted sizes |C & D| over intersecting pairs; can never contain 1."""
    return tuple(sorted(_first_pairs(m, cap)))


def find_intersection_of_size(m: Matroid, k: int) -> CCIntersection | None:
    """Canonical-first pair with |C & D| = k, or None."""
    pair = _first_pairs(m, DEFAULT_PAIR_CAP).get(k)
    return None if pair is None else CCIntersection(*map(m.ground.from_mask, pair))


# ---------------------------------------------------------------------------
# Minor extraction
# ---------------------------------------------------------------------------


class OxleyMinor(Record):
    """A minor in which the intersection X is both a circuit and a cocircuit.

    Fields live over the minor's own ground set except ``spec``, which is
    in the parent's coordinates; surviving elements keep their labels, so
    sets translate between the two by label.
    """

    __slots__ = ("spec", "minor", "x", "y", "k")

    def __init__(
        self, spec: MinorSpec, minor: Matroid, x: ElemSet, y: ElemSet, k: int
    ) -> None:
        self.spec = spec
        self.minor = minor
        self.x = x
        self.y = y
        self.k = k

    def invariant_failures(self) -> tuple[str, ...]:
        """Re-verify every defining invariant; empty tuple means all hold."""
        n = self.minor
        k = self.k
        bad: list[str] = []
        if len(self.x) != k or k < 4:
            bad.append("|X| = k >= 4")
        if (self.x | self.y).mask != n.ground.full_mask or (self.x & self.y):
            bad.append("Y = E(N) - X")
        if len(self.y) != k - 2:
            bad.append("|Y| = k - 2")
        if n.size != 2 * k - 2:
            bad.append("|E(N)| = 2k - 2")
        if n.rank() != k - 1:
            bad.append("rank(N) = k - 1")
        if dual(n).rank() != k - 1:
            bad.append("dual rank(N) = k - 1")
        if self.x not in n.circuits:
            bad.append("X is a circuit of N")
        if self.x not in cocircuits(n):
            bad.append("X is a cocircuit of N")
        if not n.is_simple():
            bad.append("N is simple")
        if not n.restrict(self.x).is_uniform(k, k - 1):
            bad.append("N|X is the rank-(k-1) uniform matroid on k elements")
        if not n.restrict(self.y).is_uniform(k - 2, k - 2):
            bad.append("N|Y is free on k - 2 elements")
        if n.closure(self.y) != self.y:
            bad.append("Y is a flat of N")
        return tuple(bad)


_CONTRACT, _DELETE, _KEEP = "contract", "delete", "keep"
# Branch preferences per element class: contract what the circuit loses,
# delete what neither the circuit nor the cocircuit uses, delete what the
# cocircuit loses.
_CHOICES_IN_CIRCUIT = (_CONTRACT, _DELETE, _KEEP)
_CHOICES_OUTSIDE = (_DELETE, _KEEP, _CONTRACT)
_CHOICES_IN_COCIRCUIT = (_DELETE, _CONTRACT, _KEEP)


def _search_viable(
    m: Matroid, deleted: int, contracted: int, x_mask: int, k: int, ranks: dict[int, int]
) -> bool:
    """Cheap necessary conditions for the minor M\\D/C (D = ``deleted``,
    C = ``contracted``, masks over ``m``) to still reach a state where X is
    a circuit and a cocircuit with rank and corank k - 1.

    Ranks come from the parent: r_{M\\D/C}(S) = r_M(S | C) - r_M(C) for S
    avoiding D and C (Oxley, Matroid Theory, Prop. 3.1.6), so no minor is
    built, and r_M is read through ``ranks``, a memo from mask to r_M(mask)
    that every state of one search shares.  Every test is monotone: once
    false on a state it is false on every minor of it that keeps X, so
    pruning is sound.
    """

    def r_m(s: int) -> int:
        r = ranks.get(s)
        if r is None:
            r = ranks[s] = m._greedy_basis_mask(s).bit_count()
        return r

    r_con = r_m(contracted)

    def rank(s: int) -> int:
        return r_m(s | contracted) - r_con

    ground = m.ground.full_mask & ~(deleted | contracted)
    removals_left = ground.bit_count() - (2 * k - 2)
    r_cur = rank(ground)
    # Each removal lowers the rank by at most one.  The corank window
    # co_cur - removals_left <= k - 1 <= co_cur is the same test, since
    # r_cur + co_cur = |E'| = 2k - 2 + removals_left.  The two per-element
    # tests below imply the window, so it only exits early, and with the
    # rank memo that still pays a little: on the bench's seed-1 inputs it
    # ends 145 of scale's 579 states and 564 of linear_gf3's 3,392 first.
    # Without it the same searches make 6% more greedy-basis rank calls
    # (1,134 against 1,074 and 5,735 against 5,433) and take 1-3% more
    # extraction CPU time (medians of 31 interleaved runs each, 18.6 vs
    # 19.1 ms and 69.2 vs 70.9 ms, 2-vCPU Xeon).
    if not (r_cur - removals_left <= k - 1 <= r_cur):
        return False
    rest = ground & ~x_mask
    # No circuit and no cocircuit may sit strictly inside X; both survive
    # every further operation on non-X elements.  The cocircuit test also
    # keeps X able to become dependent: if contracting everything outside
    # X left X independent, r(rest) = r_cur - k and no x would bring
    # rest + x up to r_cur.
    for xi in bit_indices(x_mask):
        bit = 1 << xi
        if rank(x_mask & ~bit) < k - 1:
            return False
        if rank(rest | bit) < r_cur:
            return False
    return True


def oxley_minor(m: Matroid, circuit: ElemSet, cocircuit: ElemSet) -> OxleyMinor:
    """Extract a verified minor in which X = circuit & cocircuit (|X| >= 4)
    is both a circuit and a cocircuit and rank = corank = |X| - 1.

    Deterministic backtracking over minor specs: never touch X; decide
    elements one at a time in canonical order grouped by class (circuit
    side first, then elements outside both, then the cocircuit side), with
    class-specific action preferences; prune states that provably cannot
    reach the target.  A state is the next position with the deleted and
    contracted masks over ``m``, which fix the removals and keeps still
    due, and pruning asks ``m`` for ranks; only a complete state is
    built as a minor, its full invariant list verified, and the first that
    passes returned.  The last removal fixes the position of a complete
    state, so each is reached at most once.
    """
    if circuit not in m.circuits:
        raise PreconditionViolated("first argument is not a circuit")
    if cocircuit not in cocircuits(m):
        raise PreconditionViolated("second argument is not a cocircuit")
    x = circuit & cocircuit
    k = len(x)
    if k < 4:
        raise PreconditionViolated(f"|X| = {k}; extraction needs |X| >= 4")
    target = 2 * k - 2
    removals = m.size - target
    if removals < 0:
        # Impossible for a valid matroid: rank >= k-1 and corank >= k-1
        # force |E| >= 2k-2.
        raise TheoremViolation("ground set smaller than rank + corank bound")

    outside_both = (circuit | cocircuit).complement()
    order = (
        [(1 << i, _CHOICES_IN_CIRCUIT) for i in (circuit - x).indices()]
        + [(1 << i, _CHOICES_OUTSIDE) for i in outside_both.indices()]
        + [(1 << i, _CHOICES_IN_COCIRCUIT) for i in (cocircuit - x).indices()]
    )
    states_examined = 0
    # r_M by mask, shared by every state of this search and of no other.
    ranks: dict[int, int] = {}

    def verify(deleted: int, contracted: int) -> OxleyMinor | None:
        nonlocal states_examined
        states_examined += 1
        spec = MinorSpec(ElemSet(m.ground, deleted), ElemSet(m.ground, contracted))
        n = minor(m, spec)
        x_n = x.to_ground(n.ground)
        candidate = OxleyMinor(spec=spec, minor=n, x=x_n, y=x_n.complement(), k=k)
        if candidate.invariant_failures():
            return None
        return candidate

    def dfs(pos: int, deleted: int, contracted: int) -> OxleyMinor | None:
        if not _search_viable(m, deleted, contracted, x.mask, k, ranks):
            return None
        removals_left = removals - (deleted | contracted).bit_count()
        if removals_left == 0:
            # Everything still undecided is kept; the state is complete.
            return verify(deleted, contracted)
        keeps_left = len(order) - pos - removals_left
        bit, choices = order[pos]
        for choice in choices:
            if choice == _KEEP:
                if keeps_left == 0:
                    continue
                found = dfs(pos + 1, deleted, contracted)
            elif choice == _DELETE:
                found = dfs(pos + 1, deleted | bit, contracted)
            else:
                found = dfs(pos + 1, deleted, contracted | bit)
            if found is not None:
                return found
        return None

    if len(order) < removals:
        raise TheoremViolation("more removals required than elements available")
    result = dfs(0, 0, 0)
    if result is None:
        raise ExtractionFailed(
            f"no minor of {m!r} realizes X={x!r} as circuit and cocircuit "
            f"with rank {k - 1} after {states_examined} complete states; "
            "this contradicts a guaranteed existence and indicates a bug"
        )
    return result


# ---------------------------------------------------------------------------
# Property suites over an extracted minor
# ---------------------------------------------------------------------------


def _ce_members(ox: OxleyMinor, ebit: int) -> tuple[int, ...]:
    """Masks of the circuits C of the minor with C - X = {e}, e the element
    of ``ebit``, in canonical order."""
    allowed = ox.x.mask | ebit
    return tuple(
        c for c in ox.minor.circuits.masks if c & ebit and c & ~allowed == 0
    )


def _ce_family(ox: OxleyMinor, element: str) -> tuple[int, ...]:
    if element not in ox.y:
        raise PreconditionViolated(f"element {element!r} is not in Y")
    members = _ce_members(ox, 1 << ox.minor.ground.index(element))
    if len(members) < 2:
        raise TheoremViolation(
            f"only {len(members)} circuit(s) leave X exactly at {element!r}; "
            "at least two are guaranteed"
        )
    return members


def ce_family(ox: OxleyMinor, element: str) -> tuple[ElemSet, ...]:
    """All circuits C of the minor with C - X = {element}, in canonical
    order; at least two."""
    return tuple(map(ox.minor.ground.from_mask, _ce_family(ox, element)))


class SuiteResult(Record):
    """One property suite's outcome, with how often each law was exercised."""

    __slots__ = ("status", "exercised", "failure")

    def __init__(
        self, status: str, exercised: dict[str, int], failure: str | None = None
    ) -> None:
        self.status = status  # "pass" | "fail" | "vacuous"
        self.exercised = exercised
        self.failure = failure


def check_ce_families(ox: OxleyMinor) -> SuiteResult:
    """Laws of the families C_e (circuits leaving X at a single element e):
    member size and rank bounds, at least two members, pairwise unions
    covering X + e, third members containing X minus any pair's meet, and
    the two-member criterion |C_e| = 2 iff the pair meets only in e.
    """
    n = ox.minor
    wrap = n.ground.from_mask  # names a mask in a failure message
    k = ox.k
    stats = {
        "families": 0,
        "families_size_2": 0,
        "families_size_gt_2": 0,
        "pair_union_checks": 0,
        "third_member_checks": 0,
    }

    def fail(msg: str) -> SuiteResult:
        return SuiteResult("fail", stats, msg)

    for element in ox.y.labels():
        ebit = 1 << n.ground.index(element)
        members = _ce_members(ox, ebit)
        stats["families"] += 1
        for c in members:
            if not 3 <= c.bit_count() <= k:
                return fail(f"member {wrap(c)!r} of C_{element} has size {c.bit_count()}")
            rc = n._greedy_basis_mask(c).bit_count()
            if not 2 <= rc <= k - 1:
                return fail(f"member {wrap(c)!r} of C_{element} has rank {rc}")
        if len(members) < 2:
            return fail(f"|C_{element}| = {len(members)} < 2")
        if len(members) == 2:
            stats["families_size_2"] += 1
        else:
            stats["families_size_gt_2"] += 1
        union_target = ox.x.mask | ebit
        pair_meets_only_e = False
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                c1, c2 = members[i], members[j]
                stats["pair_union_checks"] += 1
                if (c1 | c2) != union_target:
                    return fail(
                        f"{wrap(c1)!r} and {wrap(c2)!r} in C_{element} do not union to X + e"
                    )
                meet = c1 & c2
                if meet == ebit:
                    pair_meets_only_e = True
                required = ox.x.mask & ~meet
                for c in members:
                    if c == c1 or c == c2:
                        continue
                    stats["third_member_checks"] += 1
                    if required & ~(c & ~ebit):
                        return fail(
                            f"{wrap(c)!r} misses X - ({wrap(c1)!r} & {wrap(c2)!r}) "
                            f"in C_{element}"
                        )
        if (len(members) == 2) != pair_meets_only_e:
            return fail(
                f"two-member criterion fails for C_{element}: "
                f"size {len(members)}, pair-meets-only-e {pair_meets_only_e}"
            )
    return SuiteResult("pass", stats)


def check_circuit_pairs(ox: OxleyMinor) -> SuiteResult:
    """Laws for intersecting circuit pairs that each leave X at one element:
    (1) when X is not covered by the union, the X-parts nest or some circuit
    squeezes strictly between the symmetric difference and the union;
    (2) when one X-part strictly contains the other, the Y-parts differ and
    a circuit strictly inside the union carries the union's Y-part and the
    larger side's difference.
    """
    n = ox.minor
    wrap = n.ground.from_mask  # names a mask in a failure message
    x, y = ox.x.mask, ox.y.mask
    stats = {"qualifying_pairs": 0, "clause1_applications": 0, "clause2_applications": 0}
    masks = n.circuits.masks
    qual = [c for c in masks if (c & y).bit_count() == 1]

    def fail(msg: str) -> SuiteResult:
        return SuiteResult("fail", stats, msg)

    for i in range(len(qual)):
        for j in range(i + 1, len(qual)):
            c, cp = qual[i], qual[j]
            if not c & cp:
                continue
            stats["qualifying_pairs"] += 1
            union = c | cp
            cx, cpx = c & x, cp & x
            if x & ~union:
                stats["clause1_applications"] += 1
                nested = cx & ~cpx == 0 or cpx & ~cx == 0
                if not nested:
                    sym = c ^ cp
                    ok = any(
                        sym & ~m == 0 and m & ~union == 0 and m != union
                        for m in masks
                    )
                    if not ok:
                        return fail(
                            "no nesting and no squeezed circuit for "
                            f"{wrap(c)!r}, {wrap(cp)!r}"
                        )
            for a, b in ((c, cp), (cp, c)):
                ax, bx = a & x, b & x
                if bx & ~ax == 0 and bx != ax:
                    stats["clause2_applications"] += 1
                    if (a & y) == (b & y):
                        return fail(
                            f"{wrap(a)!r} and {wrap(b)!r} share their Y-part despite "
                            "strictly nested X-parts"
                        )
                    uni = a | b
                    uni_y = uni & y
                    diff = a & ~b
                    ok = any(
                        m & ~uni == 0
                        and m != uni
                        and (m & y) == uni_y
                        and diff & ~m == 0
                        for m in masks
                    )
                    if not ok:
                        return fail(
                            f"no witness circuit inside {wrap(a)!r} | {wrap(b)!r} carrying "
                            "its Y-part and the difference"
                        )
    return SuiteResult("pass", stats)


def check_rank2_circuits(ox: OxleyMinor) -> SuiteResult:
    """Laws for rank-2 circuits of the minor: each is a 3-element flat with
    exactly one Y element; for k >= 5, two of them are disjoint or meet in
    one element with Y-parts differing and symmetric difference a 4-circuit.
    """
    n = ox.minor
    wrap = n.ground.from_mask  # names a mask in a failure message
    stats = {"rank2_circuits": 0, "pairs_checked": 0, "intersecting_pairs": 0}
    r2 = [c for c, size in zip(n.circuits.masks, n.circuits.sizes) if size == 3]

    def fail(msg: str) -> SuiteResult:
        return SuiteResult("fail", stats, msg)

    for c in r2:
        stats["rank2_circuits"] += 1
        if n._greedy_basis_mask(c).bit_count() != 2:
            return fail(f"3-circuit {wrap(c)!r} does not have rank 2")
        if (c & ox.y.mask).bit_count() != 1:
            return fail(f"rank-2 circuit {wrap(c)!r} does not meet Y in one element")
        if n._closure_mask(c) != c:
            return fail(f"rank-2 circuit {wrap(c)!r} is not a flat")
    if ox.k >= 5:
        for i in range(len(r2)):
            for j in range(i + 1, len(r2)):
                c, cp = r2[i], r2[j]
                stats["pairs_checked"] += 1
                meet = c & cp
                if not meet:
                    continue
                stats["intersecting_pairs"] += 1
                if meet.bit_count() != 1:
                    return fail(
                        f"rank-2 circuits {wrap(c)!r}, {wrap(cp)!r} meet in {wrap(meet)!r}"
                    )
                if ((c | cp) & ox.y.mask).bit_count() != 2:
                    return fail(
                        f"union of {wrap(c)!r}, {wrap(cp)!r} does not meet Y in two elements"
                    )
                sym = c ^ cp
                if sym.bit_count() != 4 or sym not in n.circuits:
                    return fail(
                        f"symmetric difference {wrap(sym)!r} of {wrap(c)!r}, {wrap(cp)!r} "
                        "is not a 4-circuit"
                    )
    return SuiteResult("pass", stats)


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------


def witness_k4(ox: OxleyMinor) -> CCIntersection:
    """Size-2 intersection inside a k=4 minor.

    Y + x1 is independent (Y is an independent flat), so Y + {x1, x2} is
    dependent and holds a unique circuit through x2; that circuit must also
    contain x1, and it meets the cocircuit X in exactly {x1, x2}.
    """
    if ox.k != 4:
        raise PreconditionViolated(f"k = {ox.k}; this witness is for k = 4")
    n = ox.minor
    xs = ox.x.labels()
    x1, x2 = xs[0], xs[1]
    base = ox.y | n.ground.singleton(x1)
    if not n.is_independent(base):
        raise TheoremViolation(f"Y + {{{x1}}} is dependent in the extracted minor")
    circ = n.fundamental_circuit(base, x2)
    if x1 not in circ:
        raise TheoremViolation(
            f"the circuit in Y + {{{x1},{x2}}} through {x2} avoids {x1}"
        )
    meet = circ & ox.x
    if meet.labels() != (x1, x2):
        raise TheoremViolation(f"witness circuit meets X in {meet!r}, not {{x1,x2}}")
    return CCIntersection(circ, ox.x)


def witness_k5(ox: OxleyMinor) -> CCIntersection:
    """Size-3 intersection inside a k=5 minor, following the case split.

    (a) Any size-4 circuit or cocircuit with a single Y element pairs with
        X directly.
    (b) Otherwise pick a size-5 cocircuit C0 with one Y element (it misses
        exactly one x1 of X), take another Y element y2, and search the
        family C_{y2} for a size-5 circuit containing x1, which is
        guaranteed to exist; it meets C0 in exactly three elements.
    """
    if ox.k != 5:
        raise PreconditionViolated(f"k = {ox.k}; this witness is for k = 5")
    n = ox.minor
    g = n.ground
    x, y = ox.x.mask, ox.y.mask
    co = cocircuits(n)
    # Branch (a): a size-4 circuit or cocircuit with exactly one Y element.
    for c, size in zip(n.circuits.masks, n.circuits.sizes):
        if size == 4 and (c & y).bit_count() == 1:
            found = CCIntersection(g.from_mask(c), ox.x)
            if found.size != 3:
                raise TheoremViolation("size-4 circuit does not meet X in 3")
            return found
    for d, size in zip(co.masks, co.sizes):
        if size == 4 and (d & y).bit_count() == 1:
            found = CCIntersection(ox.x, g.from_mask(d))
            if found.size != 3:
                raise TheoremViolation("size-4 cocircuit does not meet X in 3")
            return found
    # Branch (b): all one-Y circuits/cocircuits have size 3 or 5.
    c0 = next(
        (d for d, size in zip(co.masks, co.sizes) if size == 5 and (d & y).bit_count() == 1),
        None,
    )
    if c0 is None:
        raise TheoremViolation(
            "no size-5 cocircuit with a single Y element; one is guaranteed"
        )
    missing = x & ~c0
    if missing.bit_count() != 1:
        raise TheoremViolation(
            f"cocircuit {g.from_mask(c0)!r} misses {g.from_mask(missing)!r} of X, not one"
        )
    (x1,) = g.labels_of(missing)
    y2 = g.labels_of(y & ~c0)[0]  # the first Y element other than C0's one
    # C_{y2} in canonical order, so its members through x1 by size.
    through = [c for c in _ce_family(ox, y2) if c & missing]
    if not through:
        raise TheoremViolation(
            f"no circuit leaving X at {y2} contains {x1}; one is guaranteed"
        )
    if through[0].bit_count() not in (3, 5):
        raise TheoremViolation(
            f"one-Y circuit {g.from_mask(through[0])!r} of size "
            f"{through[0].bit_count()} after size-4 exclusion"
        )
    chosen = next((c for c in through if c.bit_count() == 5), None)
    if chosen is None:
        raise TheoremViolation(
            f"no size-5 circuit through {x1} leaving X at {y2}; one is guaranteed"
        )
    found = CCIntersection(g.from_mask(chosen), g.from_mask(c0))
    if found.size != 3:
        raise TheoremViolation(
            f"witness pair meets in {found.size} elements instead of 3"
        )
    return found


def witness_k6(ox: OxleyMinor) -> CCIntersection:
    """Size-4 intersection inside a k=6 minor, found by oracle enumeration.

    It takes no pair cap.  The minor has ten elements, so at most
    C(10, 5) = 252 circuits and 252 cocircuits, and a minor has no more
    circuits or cocircuits than the matroid it comes from: the minor of an
    input that passed ``verify_conjecture``'s cap passes that cap too.
    """
    if ox.k != 6:
        raise PreconditionViolated(f"k = {ox.k}; this witness is for k = 6")
    inner = find_intersection_of_size(ox.minor, 4)
    if inner is None:
        raise TheoremViolation(
            "no size-4 intersection inside the k=6 minor; one is guaranteed"
        )
    return inner


# ---------------------------------------------------------------------------
# Lifting and witness chains
# ---------------------------------------------------------------------------


def lift_intersection(
    m: Matroid,
    spec: MinorSpec,
    sub: Matroid,
    circuit_n: ElemSet,
    cocircuit_n: ElemSet,
) -> tuple[ElemSet, ElemSet]:
    """Lift a circuit/cocircuit pair of ``sub`` = ``minor(m, spec)`` to m.

    Canonical-order scan: the lifted circuit avoids the deleted set and
    reduces to the minor circuit after contraction; dually for the
    cocircuit.  Any such pair meets in exactly the minor intersection.
    """
    del_mask = spec.deleted.mask
    con_mask = spec.contracted.mask
    g = spec.deleted.ground
    if sub.ground.labels != g.labels_of(g.full_mask & ~(del_mask | con_mask)):
        raise PreconditionViolated("lift minor is not over the spec's survivors")
    if circuit_n not in sub.circuits:
        raise PreconditionViolated("lift input is not a circuit of the minor")
    if cocircuit_n not in cocircuits(sub):
        raise PreconditionViolated("lift input is not a cocircuit of the minor")
    if not circuit_n.mask & cocircuit_n.mask:
        raise PreconditionViolated("lift inputs are disjoint")

    cn = m.ground.mask_of(circuit_n)
    dn = m.ground.mask_of(cocircuit_n)
    # cn has no deleted element, so no circuit reducing to it has; dually for dn.
    lifted_c = next((c for c in m.circuits.masks if c & ~con_mask == cn), None)
    if lifted_c is None:
        raise LiftFailed(f"no parent circuit lifts {circuit_n!r}")
    lifted_d = next((d for d in cocircuits(m).masks if d & ~del_mask == dn), None)
    if lifted_d is None:
        raise LiftFailed(f"no parent cocircuit lifts {cocircuit_n!r}")
    if lifted_c & lifted_d != cn & dn:
        raise TheoremViolation(
            "lifted pair changed the intersection; lifting is buggy"
        )
    return m.ground.from_mask(lifted_c), m.ground.from_mask(lifted_d)


class WitnessChain(Record):
    """Audit trail from a size-k intersection down to size k - 2: the
    extracted minor, the size-(k - 2) pair inside it (found by
    ``witness_k4``/``witness_k5``, or by oracle search for k = 6), and that
    pair lifted back to the input matroid."""

    __slots__ = ("k", "minor", "inner", "final")

    def __init__(
        self, k: int, minor: OxleyMinor, inner: CCIntersection, final: CCIntersection
    ) -> None:
        self.k = k
        self.minor = minor
        self.inner = inner
        self.final = final


# ---------------------------------------------------------------------------
# Whole-matroid verification
# ---------------------------------------------------------------------------


class ConjectureReport(Record):
    """Per-matroid verification outcome for the achieved sizes 4, 5, 6."""

    __slots__ = (
        "name",
        "elements",
        "rank",
        "circuit_count",
        "cocircuit_count",
        "achieved",
        "entries",
        "out_of_scope",
        "suites",
    )

    def __init__(
        self,
        name: str,
        elements: int,
        rank: int,
        circuit_count: int,
        cocircuit_count: int,
        achieved: tuple[int, ...],
        entries: tuple[WitnessChain, ...],
        out_of_scope: tuple[tuple[int, bool], ...],
        suites: dict[str, SuiteResult],
    ) -> None:
        self.name = name
        self.elements = elements
        self.rank = rank
        self.circuit_count = circuit_count
        self.cocircuit_count = cocircuit_count
        self.achieved = achieved
        self.entries = entries
        self.out_of_scope = out_of_scope
        self.suites = suites

    @property
    def vacuous(self) -> bool:
        return not self.entries and not self.out_of_scope


_SUITES: tuple[tuple[str, Callable[[OxleyMinor], SuiteResult]], ...] = (
    ("ce_families", check_ce_families),
    ("circuit_pairs", check_circuit_pairs),
    ("rank2_circuits", check_rank2_circuits),
)


def _aggregate_suites(minors: list[OxleyMinor]) -> dict[str, SuiteResult]:
    out: dict[str, SuiteResult] = {}
    for suite_name, check in _SUITES:
        if not minors:
            out[suite_name] = SuiteResult("vacuous", {})
            continue
        totals: dict[str, int] = {}
        failure: str | None = None
        ok = True
        for ox in minors:
            report = check(ox)
            for key, count in report.exercised.items():
                totals[key] = totals.get(key, 0) + count
            if report.status != "pass" and failure is None:
                ok = False
                failure = report.failure
        out[suite_name] = SuiteResult("pass" if ok else "fail", totals, failure)
    return out


def verify_conjecture(m: Matroid, cap: int = DEFAULT_PAIR_CAP) -> ConjectureReport:
    """Check, for every achieved size k in {4, 5, 6}, that size k - 2 is
    achieved (oracle) and produce a verified constructive chain ending in
    a size-(k-2) intersection of this matroid.  Achieved sizes beyond 6
    are reported but not asserted.  Every extracted minor also runs the
    three property suites.
    """
    label = m.name or "matroid"
    first = _first_pairs(m, cap)
    entries: list[WitnessChain] = []
    for k in (4, 5, 6):
        if k not in first:
            continue
        if (k - 2) not in first:
            raise TheoremViolation(
                f"{label}: size {k} achieved but size {k - 2} is not; "
                "this would disprove the theorem and indicates a bug"
            )
        ox = oxley_minor(m, *map(m.ground.from_mask, first[k]))
        # Looked up at call time, so wrappers installed on the module apply.
        if k == 4:
            inner = witness_k4(ox)
        elif k == 5:
            inner = witness_k5(ox)
        else:
            inner = witness_k6(ox)
        lifted_c, lifted_d = lift_intersection(
            m, ox.spec, ox.minor, inner.circuit, inner.cocircuit
        )
        final = CCIntersection(lifted_c, lifted_d)
        if final.size != k - 2:
            raise TheoremViolation(
                f"{label}: chain for k={k} ended at size {final.size}"
            )
        entries.append(WitnessChain(k=k, minor=ox, inner=inner, final=final))
    return ConjectureReport(
        name=label,
        elements=m.size,
        rank=m.rank(),
        circuit_count=len(m.circuits),
        cocircuit_count=len(cocircuits(m)),
        achieved=tuple(sorted(first)),
        entries=tuple(entries),
        out_of_scope=tuple((k, (k - 2) in first) for k in sorted(first) if k >= 7),
        suites=_aggregate_suites([chain.minor for chain in entries]),
    )
