"""Independent brute-force oracles used to derive and freeze expected values.

Every routine here is a second route to the answer: subset enumeration
against rank formulas, union-find on graphs, xor structure for the Fano
plane.  None of them share code with the package's production paths,
except as said below.  Five are the package's former versions, kept as
references for the faster ones that replaced them:
``validate_circuit_axioms_scan`` for the dependency-table validator,
``mask_sort_key`` and ``compress_mask`` for the bit-reversal key and the
run-shifting re-indexing in ``core``, ``hyperplanes_by_closures`` for the
cocircuits read off the dependency table, and ``oxley_minor_by_minors``
for the extraction that prunes on the parent's ranks.  Two are former
package functions that no program path called: ``cc_intersections``, the
brute-force list of every meeting circuit/cocircuit pair (the reference
for ``achieved_sizes`` and each size's first pair), and ``is_basis``.
The validator shares only the report and family types; the extraction
search builds its minors with the package's ``delete`` and ``contract``
and checks them with ``OxleyMinor.invariant_failures``, so it is a
reference for the search alone.  Every oracle that uses the package
imports it when called, so that this module loads without the package on
the import path, and loading it adds no package module to a process.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


def submasks(full: int) -> Iterator[int]:
    """All subsets of a mask, the empty set first."""
    sub = 0
    while True:
        yield sub
        if sub == full:
            return
        sub = (sub - full) & full


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> Iterator[int]:
    """The elements of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical comparison key: cardinality, then lex on ascending indices."""
    return (mask.bit_count(), tuple(indices_of(mask)))


def compress_mask(mask: int, index_map: dict[int, int]) -> int:
    """Re-express a mask through an old-index -> new-index table."""
    out = 0
    for i in indices_of(mask):
        out |= 1 << index_map[i]
    return out


def brute_rank(matroid, subset_mask: int) -> int:
    """Max size of an independent subset, by scanning all subsets."""
    ground = matroid.ground
    best = 0
    for sub in submasks(subset_mask):
        size = sub.bit_count()
        if size > best and matroid.is_independent(ground.from_mask(sub)):
            best = size
    return best


def is_basis(matroid, subset) -> bool:
    """An independent set of full rank."""
    return len(subset) == matroid.rank() and matroid.is_independent(subset)


def cc_intersections(matroid, cap: int | None = None) -> list:
    """Every intersecting circuit/cocircuit pair as a ``CCIntersection``,
    in canonical pair order: by circuit index, then cocircuit index.  More
    than ``cap`` pairs (default ``DEFAULT_PAIR_CAP``) raise ``CapExceeded``."""
    from matroidcc import DEFAULT_PAIR_CAP, CapExceeded, CCIntersection, cocircuits

    co = cocircuits(matroid)
    cap = DEFAULT_PAIR_CAP if cap is None else cap
    total = len(matroid.circuits) * len(co)
    if total > cap:
        raise CapExceeded(f"{total} circuit-cocircuit pairs exceed the cap of {cap}")
    return [CCIntersection(c, d) for c in matroid.circuits for d in co if c.mask & d.mask]


def brute_dual_circuit_masks(matroid) -> list[int]:
    """Cocircuits via the corank route: D is codependent iff removing it
    drops the rank; cocircuits are the minimal such sets."""
    ground = matroid.ground
    n = ground.size
    full_rank = matroid.rank()
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            d = mask_of(combo)
            if any(f & ~d == 0 for f in found):
                continue
            rest = ground.from_mask(ground.full_mask & ~d)
            if matroid.rank(rest) < full_rank:
                found.append(d)
    return sorted(found)


def hyperplanes_by_closures(matroid) -> list[int]:
    """Hyperplane masks in canonical order: the closures of the independent
    (r - 1)-sets, other than the whole ground set.  Every rank-(r - 1) flat
    is the closure of one, so the scan is exhaustive; a rank-0 matroid has
    none."""
    ground = matroid.ground
    r = matroid.rank()
    found: set[int] = set()
    if r > 0:
        for combo in itertools.combinations(range(ground.size), r - 1):
            base = ground.from_mask(mask_of(combo))
            if matroid.is_independent(base):
                flat = matroid.closure(base).mask
                if flat != ground.full_mask:
                    found.add(flat)
    return sorted(found, key=mask_sort_key)


def gf_rank_oracle(vectors: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p); row-reduction written independently of the package."""
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] % p != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p != 0:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def linear_circuit_masks(columns: Sequence[Sequence[int]], p: int) -> list[int]:
    """Minimal dependent column sets over GF(p), by subset enumeration."""
    n = len(columns)
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            m = mask_of(combo)
            if any(f & ~m == 0 for f in found):
                continue
            if gf_rank_oracle([columns[i] for i in combo], p) < size:
                found.append(m)
    return sorted(found)


def _forest(edges: Sequence[tuple[int, int, str]], chosen: Iterable[int]) -> bool:
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx in chosen:
        u, v, _ = edges[idx]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def graph_circuit_masks(edges: Sequence[tuple[int, int, str]]) -> list[int]:
    """Minimal non-forests, via union-find acyclicity."""
    n = len(edges)
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            m = mask_of(combo)
            if any(f & ~m == 0 for f in found):
                continue
            if not _forest(edges, combo):
                found.append(m)
    return sorted(found)


def graph_components(vertex_count: int, edges: Sequence[tuple[int, int, str]],
                     removed_mask: int = 0) -> int:
    parent = list(range(vertex_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx, (u, v, _) in enumerate(edges):
        if (removed_mask >> idx) & 1:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(vertex_count)})


def graph_bond_masks(vertex_count: int, edges: Sequence[tuple[int, int, str]]) -> list[int]:
    """Minimal edge cuts: removal raises the component count."""
    base = graph_components(vertex_count, edges)
    n = len(edges)
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            m = mask_of(combo)
            if any(f & ~m == 0 for f in found):
                continue
            if graph_components(vertex_count, edges, m) > base:
                found.append(m)
    return sorted(found)


def fano_line_label_sets() -> list[frozenset[str]]:
    """The seven 3-point lines of the Fano plane on labels "1".."7",
    where label i stands for the binary vector of i: a triple is a line
    exactly when the labels xor to zero."""
    return [
        frozenset(str(a) for a in triple)
        for triple in itertools.combinations(range(1, 8), 3)
        if triple[0] ^ triple[1] ^ triple[2] == 0
    ]


def validate_circuit_axioms_scan(
    circuits: CircuitFamily | Iterable[ElemSet | int],
    ground: GroundSet | None = None,
) -> AxiomReport:
    """Check C1 (no empty circuit), C2 (antichain), C3 (weak elimination).

    Returns a report rather than raising: the first violated axiom in
    canonical scan order together with the witnessing sets/element.
    """
    from matroidcc.core import AxiomReport, CircuitFamily, bit_indices
    from matroidcc.errors import InvalidParameter

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

    # C2: no circuit contains another.  Sizes ascend, so only i < j can nest.
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            if sizes[j] > sizes[i] and mi & ~masks[j] == 0:
                return AxiomReport(False, "C2", (fam[i], fam[j]))

    # C3 (weak elimination): for distinct circuits and any common element e,
    # the union minus e must contain some member.  A cached witness is tried
    # first; similar neighbouring pairs usually share one.
    witness = 0
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            mj = masks[j]
            common = mi & mj
            if not common:
                continue
            union = mi | mj
            for e in bit_indices(common):
                target = union & ~(1 << e)
                if witness and witness & ~target == 0:
                    continue
                pc = target.bit_count()
                found = 0
                for size, m in zip(sizes, masks):
                    if size > pc:
                        break
                    if m & ~target == 0:
                        found = m
                        break
                if not found:
                    return AxiomReport(
                        False, "C3", (fam[i], fam[j]), g.label(e)
                    )
                witness = found
    return AxiomReport(True)


def subset_ranks(circuit_masks: Sequence[int], n: int) -> list[int]:
    """Rank of every subset of an n-element ground set: a set is
    independent when it contains no listed circuit, and otherwise its rank
    is the largest rank among its one-smaller subsets."""
    ranks = [0] * (1 << n)
    for x in range(1, 1 << n):
        if any(c & ~x == 0 for c in circuit_masks):
            ranks[x] = max(ranks[x & ~(1 << i)] for i in range(n) if x >> i & 1)
        else:
            ranks[x] = x.bit_count()
    return ranks


def contraction_circuit_masks(
    circuit_masks: Sequence[int], n: int, removed: int
) -> list[int]:
    """Circuits of the contraction by ``removed``, by the rank formula: the
    minimal nonempty S outside it with r(S + removed) - r(removed) < |S|.
    Masks are re-indexed over the surviving elements in ground order."""
    ranks = subset_ranks(circuit_masks, n)
    kept = [i for i in range(n) if not removed >> i & 1]
    found: list[int] = []
    for size in range(1, len(kept) + 1):
        for combo in itertools.combinations(range(len(kept)), size):
            s = mask_of(combo)
            if any(f & ~s == 0 for f in found):
                continue
            whole = removed | mask_of(kept[i] for i in combo)
            if ranks[whole] - ranks[removed] < size:
                found.append(s)
    return sorted(found)


# The extraction's branch preferences per element class: contract what the
# circuit loses, delete what neither side uses, delete what the cocircuit
# loses.
_CONTRACT, _DELETE, _KEEP = "contract", "delete", "keep"
_CHOICES_IN_CIRCUIT = (_CONTRACT, _DELETE, _KEEP)
_CHOICES_OUTSIDE = (_DELETE, _KEEP, _CONTRACT)
_CHOICES_IN_COCIRCUIT = (_DELETE, _CONTRACT, _KEEP)


def search_viable_by_minors(cur, x_mask: int, k: int, removals_left: int) -> bool:
    """The former extraction's pruning tests, asked of the built minor
    ``cur`` (``x_mask`` is over cur's ground set).  The third, that X can
    still become dependent, is implied by the cocircuit test; the package
    no longer runs it."""
    r_cur = cur.rank()
    co_cur = cur.size - r_cur
    if not (r_cur - removals_left <= k - 1 <= r_cur):
        return False
    if not (co_cur - removals_left <= k - 1 <= co_cur):
        return False
    rest = cur.ground.full_mask & ~x_mask
    if cur.rank() - cur.rank(cur.ground.from_mask(rest)) == k:
        return False
    for xi in indices_of(x_mask):
        if cur._dependent_mask(x_mask & ~(1 << xi)):
            return False
        if cur.rank(cur.ground.from_mask(rest | (1 << xi))) < r_cur:
            return False
    return True


def oxley_minor_by_minors(matroid, circuit, cocircuit):
    """The Oxley-minor search that builds every DFS state as a minor, one
    deletion or contraction at a time, and prunes on the built minor.

    Same order and preferences as ``analyze.oxley_minor``, with its former
    pruning tests; returns the first ``OxleyMinor`` whose invariants all
    hold, or None.  Asserts that no complete state is reached twice.
    """
    from matroidcc import MinorSpec, OxleyMinor, contract, delete

    x = circuit & cocircuit
    k = len(x)
    removals = matroid.size - (2 * k - 2)
    outside_both = (circuit | cocircuit).complement()
    order = (
        [(label, _CHOICES_IN_CIRCUIT) for label in (circuit - x).labels()]
        + [(label, _CHOICES_OUTSIDE) for label in outside_both.labels()]
        + [(label, _CHOICES_IN_COCIRCUIT) for label in (cocircuit - x).labels()]
    )
    x_labels = x.labels()
    seen: set[tuple[int, int]] = set()

    def verify(cur, del_labels, con_labels):
        g = matroid.ground
        spec = MinorSpec(g.subset(del_labels), g.subset(con_labels))
        key = (spec.deleted.mask, spec.contracted.mask)
        assert key not in seen, key
        seen.add(key)
        x_n = cur.ground.subset(x_labels)
        candidate = OxleyMinor(spec=spec, minor=cur, x=x_n, y=x_n.complement(), k=k)
        return None if candidate.invariant_failures() else candidate

    def dfs(pos, cur, removals_left, keeps_left, del_labels, con_labels):
        if not search_viable_by_minors(
            cur, cur.ground.subset(x_labels).mask, k, removals_left
        ):
            return None
        if removals_left == 0:
            return verify(cur, del_labels, con_labels)
        label, choices = order[pos]
        for choice in choices:
            if choice == _KEEP:
                if keeps_left == 0:
                    continue
                found = dfs(pos + 1, cur, removals_left, keeps_left - 1, del_labels, con_labels)
            elif choice == _DELETE:
                found = dfs(
                    pos + 1, delete(cur, cur.ground.singleton(label)), removals_left - 1,
                    keeps_left, del_labels + (label,), con_labels,
                )
            else:
                found = dfs(
                    pos + 1, contract(cur, cur.ground.singleton(label)), removals_left - 1,
                    keeps_left, del_labels, con_labels + (label,),
                )
            if found is not None:
                return found
        return None

    return dfs(0, matroid, removals, len(order) - removals, (), ())
