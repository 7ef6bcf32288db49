"""Matroid constructors: uniform, linear over small prime fields, graphic,
named catalog entries, and seeded random linear instances.

A linear matroid's circuits are the minimal dependent sets met by a
depth-first walk that extends one echelon basis of independent columns a
column at a time (``from_matrix``).  A graphic matroid is the linear
matroid of its vertex-edge incidence matrix over GF(2), so ``from_graph``
builds that matrix and runs the same walk.  Each named matroid is defined
once, by ``named_source`` (a matrix, a graph, or None for the
non-representable Vámos matroid): ``named`` builds from it and
``matroidcc catalog`` writes it out.  All constructors validate the
resulting circuit family, so anything built here is safe input for the
rest of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import MAX_GROUND, MAX_SCAN, GroundSet, Matroid, minimal_members
from .errors import CapExceeded, InvalidParameter, UnknownName

FIELD_SIZES = (2, 3, 5, 7)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_field(p: object) -> None:
    if not _is_int(p) or p not in FIELD_SIZES:
        raise InvalidParameter(f"field size must be one of {FIELD_SIZES}, got {p!r}")


@dataclass(frozen=True)
class MatrixOverGF:
    """Column-major matrix over GF(p); column j represents element j."""

    p: int
    rows: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_field(self.p)
        if self.rows < 0:
            raise InvalidParameter("row count must be non-negative")
        for col in self.columns:
            if len(col) != self.rows:
                raise InvalidParameter("all columns must have the declared length")
            if any(not (0 <= x < self.p) for x in col):
                raise InvalidParameter("entries must be reduced mod p")

    @classmethod
    def from_rows(cls, p: int, rows: Sequence[Sequence[int]]) -> "MatrixOverGF":
        """Build from a row-major listing, reducing entries mod p."""
        _check_field(p)
        height = len(rows)
        width = len(rows[0]) if height else 0
        for row in rows:
            if len(row) != width:
                raise InvalidParameter("ragged rows in matrix")
            for x in row:
                if not _is_int(x):
                    raise InvalidParameter(f"matrix entries must be integers, got {x!r}")
        cols = tuple(
            tuple(rows[i][j] % p for i in range(height)) for j in range(width)
        )
        return cls(p=p, rows=height, columns=cols)


@dataclass(frozen=True)
class GraphSpec:
    """Multigraph given by a vertex count and labelled edges.

    Loops (u == v) and parallel edges are allowed; edge labels must be
    pairwise distinct since they become the matroid's elements.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise InvalidParameter("vertex count must be non-negative")
        seen: set[str] = set()
        for u, v, lab in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidParameter(f"edge ({u},{v}) out of vertex range")
            if lab in seen:
                raise InvalidParameter(f"duplicate edge label {lab!r}")
            seen.add(lab)


def default_labels(n: int) -> tuple[str, ...]:
    """Numeric labels "1".."n"."""
    return tuple(str(i + 1) for i in range(n))


def uniform(n: int, k: int, labels: Sequence[str] | None = None) -> Matroid:
    """Rank-k uniform matroid on n elements: circuits are all (k+1)-subsets."""
    if n <= 0 or n > MAX_GROUND or k < 0 or k > n:
        raise InvalidParameter(f"uniform matroid needs 0 <= k <= n <= {MAX_GROUND}")
    ground = GroundSet(labels if labels is not None else default_labels(n))
    if ground.size != n:
        raise InvalidParameter("label count does not match n")
    masks: list[int] = []
    if k < n:
        for combo in itertools.combinations(range(n), k + 1):
            m = 0
            for i in combo:
                m |= 1 << i
            masks.append(m)
    return Matroid(ground, masks, name=f"u{n}_{k}")


def _lead(vec: Sequence[int]) -> int:
    """Index of the first nonzero entry, or -1."""
    for i, x in enumerate(vec):
        if x:
            return i
    return -1


def _unit_lead(vec: Sequence[int], lead: int, p: int) -> list[int]:
    """``vec`` scaled over GF(p) so that its entry at ``lead`` is 1."""
    inv = pow(vec[lead], p - 2, p)
    return [x * inv % p for x in vec]


def _eliminate(vec: list[int], row: Sequence[int], lead: int, p: int) -> list[int]:
    """One reduction step: ``vec`` minus the multiple of ``row`` (whose entry
    at ``lead`` is 1) that clears ``vec[lead]``; ``vec`` itself if it is
    already clear there."""
    c = vec[lead]
    if not c:
        return vec
    return [(a - c * b) % p for a, b in zip(vec, row)]


def gf_rank(vectors: Iterable[Sequence[int]], p: int) -> int:
    """Rank of a set of vectors over GF(p), by Gaussian elimination: each
    vector is reduced against the echelon rows kept so far and becomes a
    new row unless it reduces to zero."""
    basis: list[tuple[int, list[int]]] = []
    for vec in vectors:
        reduced = [x % p for x in vec]
        for lead, row in basis:
            reduced = _eliminate(reduced, row, lead, p)
        lead = _lead(reduced)
        if lead >= 0:
            basis.append((lead, _unit_lead(reduced, lead, p)))
    return len(basis)


def from_matrix(
    matrix: MatrixOverGF,
    labels: Sequence[str] | None = None,
    name: str | None = None,
) -> Matroid:
    """Linear matroid of the matrix columns over GF(p).

    Circuits come from a depth-first walk over the independent column sets
    in lex order.  Every column after the last chosen one is kept reduced
    against the echelon rows of the chosen columns, so extending the set by
    a column costs one reduction step per later column.  A column that
    reduces to zero makes the chosen set plus itself dependent: the walk
    records that set and drops the column below the chosen set.  Every
    circuit C is recorded at the independent set C - max(C), and every
    recorded set is dependent, so the circuits are the minimal recorded
    sets (``minimal_members``).
    """
    cols = matrix.columns
    n = len(cols)
    if n == 0:
        raise InvalidParameter("matrix has no columns")
    if n > MAX_SCAN:
        raise CapExceeded(
            f"circuit enumeration needs at most {MAX_SCAN} columns, got {n}"
        )
    ground = GroundSet(labels if labels is not None else default_labels(n))
    if ground.size != n:
        raise InvalidParameter("label count does not match the column count")
    p = matrix.p
    dependent: list[int] = []

    # ``chosen`` is the independent set as a mask; each candidate (j, vec)
    # is column j reduced against the echelon rows of the chosen columns.
    def extend(chosen: int, candidates: list[tuple[int, list[int]]]) -> None:
        live = []
        for j, vec in candidates:
            lead = _lead(vec)
            if lead >= 0:
                live.append((j, vec, lead))
            else:
                dependent.append(chosen | 1 << j)
        # The last live column has no later column left to test.
        for i in range(len(live) - 1):
            j, vec, lead = live[i]
            row = _unit_lead(vec, lead, p)
            later = [(k, _eliminate(v, row, lead, p)) for k, v, _ in live[i + 1:]]
            extend(chosen | 1 << j, later)

    extend(0, [(j, list(col)) for j, col in enumerate(cols)])
    return Matroid(ground, minimal_members(n, dependent), name=name)


def from_graph(graph: GraphSpec, name: str | None = None) -> Matroid:
    """Cycle matroid of a multigraph: circuits are the simple cycles.

    It is the GF(2) linear matroid of the vertex-edge incidence matrix
    (Oxley, Matroid Theory, §5.1), so this builds that matrix and leaves
    the walk to ``from_matrix``.  Only vertices that some edge touches get
    a row, in ascending order, so the vertex count itself costs nothing.
    A loop's column is zero, a 1-circuit;
    parallel edges have equal columns, a 2-circuit.
    """
    m = len(graph.edges)
    if m == 0:
        raise InvalidParameter("graph has no edges")
    if m > MAX_SCAN:
        raise CapExceeded(
            f"cycle enumeration needs at most {MAX_SCAN} edges, got {m}"
        )
    touched = sorted({end for u, v, _ in graph.edges for end in (u, v)})
    row_of = {vertex: i for i, vertex in enumerate(touched)}
    columns = []
    for u, v, _ in graph.edges:
        col = [0] * len(touched)
        col[row_of[u]] ^= 1
        col[row_of[v]] ^= 1
        columns.append(tuple(col))
    matrix = MatrixOverGF(p=2, rows=len(touched), columns=tuple(columns))
    return from_matrix(matrix, labels=[lab for _, _, lab in graph.edges], name=name)


def from_circuits(
    labels: Sequence[str],
    circuits: Iterable[Iterable[str]],
    name: str | None = None,
) -> Matroid:
    """Matroid from an explicit circuit list; validates the axioms."""
    ground = GroundSet(labels)
    return Matroid(ground, [ground.subset(c) for c in circuits], name=name)


NAMED_CATALOG = ("fano", "nonfano", "k4", "k5", "wheel3", "vamos")

# The seven nonzero vectors of GF(2)^3: the binary expansions of 1..7, most
# significant bit first.
_PLANE_COLUMNS = tuple(
    tuple((value >> shift) & 1 for shift in (2, 1, 0)) for value in range(1, 8)
)


def named_source(name: str) -> MatrixOverGF | GraphSpec | None:
    """The one definition of a catalog matroid: its matrix (fano, nonfano),
    its graph (k4, k5, wheel3), or None for vamos, which no matrix over any
    field realizes.  ``named`` builds from it and the CLI's catalog writes
    it out."""
    key = name.lower()
    if key == "fano":
        return MatrixOverGF(p=2, rows=3, columns=_PLANE_COLUMNS)
    if key == "nonfano":
        # Same seven 0/1 columns read over GF(3): the three "diagonal" points
        # become independent and one line of the plane disappears.
        return MatrixOverGF(p=3, rows=3, columns=_PLANE_COLUMNS)
    if key in ("k4", "k5"):
        v = int(key[1])
        edges = tuple(
            (a, b, f"e{a + 1}{b + 1}") for a, b in itertools.combinations(range(v), 2)
        )
        return GraphSpec(vertex_count=v, edges=edges)
    if key == "wheel3":
        # Hub 0 with spokes to the rim triangle 1-2-3.
        edges = (
            (0, 1, "s1"),
            (0, 2, "s2"),
            (0, 3, "s3"),
            (1, 2, "r12"),
            (2, 3, "r23"),
            (1, 3, "r13"),
        )
        return GraphSpec(vertex_count=4, edges=edges)
    if key == "vamos":
        return None
    raise UnknownName(f"no catalog matroid named {name!r}")


def _vamos() -> Matroid:
    # Four pairs; every pair-union of the first five listed combinations is a
    # plane, the last one deliberately is not.  No matrix over any field
    # realizes this, so the circuits are given explicitly: the five 4-sets
    # plus every 5-set containing none of them.
    labels = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2")
    quads = (
        ("a1", "a2", "b1", "b2"),
        ("a1", "a2", "c1", "c2"),
        ("a1", "a2", "d1", "d2"),
        ("b1", "b2", "c1", "c2"),
        ("b1", "b2", "d1", "d2"),
    )
    quad_sets = [frozenset(q) for q in quads]
    circuits: list[tuple[str, ...]] = list(quads)
    for five in itertools.combinations(labels, 5):
        fs = frozenset(five)
        if not any(q <= fs for q in quad_sets):
            circuits.append(five)
    return from_circuits(labels, circuits, name="vamos")


def named(name: str) -> Matroid:
    """A standard matroid by name, built from ``named_source``.

    Known names: fano, nonfano, k4, k5, wheel3, vamos.
    """
    source = named_source(name)
    key = name.lower()
    if isinstance(source, MatrixOverGF):
        return from_matrix(source, name=key)
    if isinstance(source, GraphSpec):
        return from_graph(source, name=key)
    return _vamos()


# 64-bit linear congruential generator (Knuth's MMIX multiplier/increment).
# Each matrix entry consumes one step, column-major; the drawn value is the
# top 31 bits of the state reduced mod p.  Fixed here so seeded catalogs are
# bit-identical across platforms and Python versions.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def lcg_stream(seed: int) -> Iterator[int]:
    """Infinite stream of 31-bit values from the documented 64-bit LCG."""
    state = seed & _MASK64
    while True:
        state = (state * _LCG_MULT + _LCG_INC) & _MASK64
        yield state >> 33


def random_matrix(seed: int, n: int, r: int, p: int) -> MatrixOverGF:
    """Seed-stable random r x n matrix over GF(p), entries column-major."""
    _check_field(p)
    if not (0 <= r <= n <= MAX_SCAN):
        raise InvalidParameter(f"random instances need 0 <= r <= n <= {MAX_SCAN}")
    stream = lcg_stream(seed)
    columns = tuple(
        tuple(next(stream) % p for _ in range(r)) for _ in range(n)
    )
    return MatrixOverGF(p=p, rows=r, columns=columns)


def random_linear(seed: int, n: int, r: int, p: int) -> Matroid:
    """Matroid of a seed-stable random r x n matrix over GF(p)."""
    matrix = random_matrix(seed, n, r, p)
    return from_matrix(matrix, name=f"rand_s{seed}_n{n}_r{r}_p{p}")

