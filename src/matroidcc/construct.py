"""Matroid constructors: uniform, linear over small prime fields, graphic,
named catalog entries, and seeded random linear instances.

A linear matroid's circuits are the minimal supports of its kernel
vectors, and its cocircuits those of its row space; ``from_matrix`` row
reduces once and enumerates the smaller of the two spaces in one
byte-vectorised pass, whose supports close to the dependency table of the
matroid (kernel) or of its dual (row space).  A graphic matroid is the
linear matroid of its vertex-edge incidence matrix over GF(2), so
``from_graph`` builds that matrix and hands it to ``from_matrix``.  Each
named matroid is defined once, by ``named_source`` (a matrix, a graph, or
None for the non-representable Vámos matroid): ``named`` builds from it
and ``matroidcc catalog`` writes it out.  All constructors validate the
resulting circuit family, so anything built here is safe input for the
rest of the package.
"""

from __future__ import annotations

import itertools
import sys
from typing import Iterable, Iterator, Sequence

from .core import (
    MAX_SCAN,
    GroundSet,
    Matroid,
    Record,
    dependency_table,
    dual_table,
)
from .errors import CapExceeded, InvalidParameter, UnknownName

FIELD_SIZES = (2, 3, 5, 7)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_field(p: object) -> None:
    if not _is_int(p) or p not in FIELD_SIZES:
        raise InvalidParameter(f"field size must be one of {FIELD_SIZES}, got {p!r}")


class MatrixOverGF(Record):
    """Column-major matrix over GF(p); column j represents element j."""

    __slots__ = ("p", "rows", "columns")

    def __init__(self, p: int, rows: int, columns: tuple[tuple[int, ...], ...]) -> None:
        _check_field(p)
        if rows < 0:
            raise InvalidParameter("row count must be non-negative")
        for col in columns:
            if len(col) != rows:
                raise InvalidParameter("all columns must have the declared length")
            if any(not (0 <= x < p) for x in col):
                raise InvalidParameter("entries must be reduced mod p")
        self.p = p
        self.rows = rows
        self.columns = columns

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


class GraphSpec(Record):
    """Multigraph given by a vertex count and labelled edges.

    Loops (u == v) and parallel edges are allowed; edge labels must be
    pairwise distinct since they become the matroid's elements.
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int, str], ...]) -> None:
        if vertex_count < 0:
            raise InvalidParameter("vertex count must be non-negative")
        seen: set[str] = set()
        for u, v, lab in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidParameter(f"edge ({u},{v}) out of vertex range")
            if lab in seen:
                raise InvalidParameter(f"duplicate edge label {lab!r}")
            seen.add(lab)
        self.vertex_count = vertex_count
        self.edges = edges


def default_labels(n: int) -> tuple[str, ...]:
    """Numeric labels "1".."n"."""
    return tuple(str(i + 1) for i in range(n))


def uniform(n: int, k: int) -> Matroid:
    """Rank-k uniform matroid on n elements: circuits are all (k+1)-subsets."""
    if n <= 0 or n > MAX_SCAN or k < 0 or k > n:
        raise InvalidParameter(f"uniform matroid needs 0 <= k <= n <= {MAX_SCAN}")
    # No (n+1)-subset exists, so u(n, n) gets no circuits.
    masks = [sum(1 << i for i in c) for c in itertools.combinations(range(n), k + 1)]
    return Matroid(GroundSet(default_labels(n)), masks, name=f"u{n}_{k}")


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


def _echelon(vectors: Iterable[Sequence[int]], p: int) -> list[tuple[int, list[int]]]:
    """Reduced row echelon basis of the span of ``vectors`` over GF(p), as
    (lead, row) pairs: each row is 1 at its own lead and 0 at every other
    row's.  Each vector is reduced against the rows kept so far; unless it
    reduces to zero it becomes a new row and is cleared from the others."""
    basis: list[tuple[int, list[int]]] = []
    for vec in vectors:
        reduced = [x % p for x in vec]
        for lead, row in basis:
            reduced = _eliminate(reduced, row, lead, p)
        lead = _lead(reduced)
        if lead >= 0:
            new = _unit_lead(reduced, lead, p)
            basis = [(at, _eliminate(row, new, lead, p)) for at, row in basis]
            basis.append((lead, new))
    return basis


def gf_rank(vectors: Iterable[Sequence[int]], p: int) -> int:
    """Rank of a set of vectors over GF(p), by Gaussian elimination."""
    return len(_echelon(vectors, p))


# Coefficient vectors per block of the support pass: the low coefficients
# run over all their values inside bytes objects of at most this many cells.
_BLOCK_CELLS = 1 << 16


def _span_supports(vectors: Sequence[Sequence[int]], n: int, p: int) -> set[int]:
    """Supports, as masks over n coordinates, of one vector per projective
    point of the span of the independent ``vectors`` over GF(p): the
    combinations whose last nonzero coefficient is 1.

    For the last nonzero coefficient at l, the coefficients below l split
    into low ones (at most ``_BLOCK_CELLS`` combinations) and high ones.
    Each element's coordinate over every low combination is one bytes
    object, one byte per combination, built by ``bytes.translate`` with
    add-tables and concatenation.  A Python odometer runs over the high
    coefficients.  Per setting, one more translate turns each element's
    coordinate, shifted by the offset of coefficient l and the high ones,
    into its bit of a byte; the ints of the eight elements that share a
    byte are OR-ed, the bytes are interleaved into cells of up to four,
    and each cell, read as one int, is one support.
    """
    width = 1 if n <= 8 else 2 if n <= 16 else 4
    cell_format = {1: "B", 2: "H", 4: "I"}[width]
    # (byte of the cell in memory, its elements) for each byte of a support
    lanes = [
        (q if sys.byteorder == "little" else width - 1 - q, range(8 * q, min(n, 8 * q + 8)))
        for q in range((n + 7) >> 3)
    ]
    pad = bytes(256 - p)
    add = [bytes((x + t) % p for x in range(p)) + pad for t in range(p)]
    bit = [
        [bytes(1 << b if (x + o) % p else 0 for x in range(p)) + pad for o in range(p)]
        for b in range(8)
    ]
    d = len(vectors)
    low = 0
    while low + 1 < d and p ** (low + 1) <= _BLOCK_CELLS:
        low += 1
    # stages[m][j]: element j's coordinate over every combination of the
    # first m coefficients.
    stages = [[b"\x00"] * n]
    for m in range(low):
        stages.append([
            b"".join(cells.translate(add[t * v % p]) for t in range(p))
            for cells, v in zip(stages[m], vectors[m])
        ])
    supports: set[int] = set()
    for l in range(d):
        m = min(l, low)
        stage = stages[m]
        count = len(stage[0])
        packed = bytearray(width * count)
        high = l - m
        digits = [0] * high
        # levels[i]: the offsets from coefficient l and the high digits i and up.
        levels = [list(vectors[l])] * (high + 1)
        while True:
            offsets = levels[0]
            for lane, elements in lanes:
                acc = 0
                for j in elements:
                    hits = stage[j].translate(bit[j & 7][offsets[j]])
                    acc |= int.from_bytes(hits, "little")
                packed[lane::width] = acc.to_bytes(count, "little")
            supports.update(memoryview(packed).cast(cell_format))
            i = 0
            while i < high and digits[i] == p - 1:
                digits[i] = 0
                i += 1
            if i == high:
                break
            digits[i] += 1
            levels[i] = [(o + v) % p for o, v in zip(levels[i], vectors[m + i])]
            levels[:i] = [levels[i]] * i
    return supports


def from_matrix(
    matrix: MatrixOverGF,
    labels: Sequence[str] | None = None,
    name: str | None = None,
) -> Matroid:
    """Linear matroid of the matrix columns over GF(p).

    The circuits of M[A] are the minimal supports of the nonzero vectors
    x with Ax = 0, and its cocircuits those of the nonzero vectors in A's
    row space (Oxley, Matroid Theory, ch. 2 and §9.2).  One row reduction
    gives the rank r and a basis of both spaces; the smaller one, of
    dimension min(n - r, r), is enumerated (``_span_supports``).  The
    kernel's supports close to M's dependency table; the row space's to
    the dual's, whose ``dual_table`` is M's, and which M keeps for its dual.
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
    rows = _echelon(zip(*cols), p)
    if n - len(rows) > len(rows):
        co_table = dependency_table(n, _span_supports([row for _, row in rows], n, p))
        m = Matroid(ground, (), name=name, table=dual_table(n, co_table))
        m._co_table = co_table
        return m
    # One kernel vector per column f outside the leads: 1 at f, and minus
    # each row's entry at f at that row's lead.
    leads = {lead for lead, _ in rows}
    kernel = []
    for f in range(n):
        if f not in leads:
            vec = [0] * n
            vec[f] = 1
            for lead, row in rows:
                vec[lead] = -row[f] % p
            kernel.append(vec)
    supports = _span_supports(kernel, n, p)
    return Matroid(ground, (), name=name, table=dependency_table(n, supports))


def from_graph(graph: GraphSpec, name: str | None = None) -> Matroid:
    """Cycle matroid of a multigraph: circuits are the simple cycles.

    It is the GF(2) linear matroid of the vertex-edge incidence matrix
    (Oxley, Matroid Theory, §5.1), so this builds that matrix and leaves
    the enumeration to ``from_matrix``.  Only vertices that some edge
    touches get a row, in ascending order, so the vertex count itself
    costs nothing.
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
    return Matroid(ground, [ground.mask_of(c) for c in circuits], name=name)


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

