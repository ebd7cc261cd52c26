"""Exact linear algebra over GF(2).

Vectors are plain Python ints used as bitmasks (bit i = coordinate i).
`SpanBasis` keeps their reduced row echelon form and eliminates every
system, from the small graded blocks to the dense naive derivation
oracle (`BitMatrix`, every row of the naive equations streamed into one
`SpanBasis`, with no dedupe set) and the ad-preimage solve
(`liesuper.ad_preimage`, its generators marked by bits above the n*n map
coordinates).  An elimination has two passes.  The first,
`_independent`, streams the batch and keeps each vector that the ones
kept before do not span, reducing it by the kept vector keyed by its
highest set bit (`int.bit_length`, O(1) a step); most rows of a large
system are dependent and end there.  The second, `_forward`, xors each
survivor with the row keyed by its lowest set bit until it has a new
lowest bit (or is zero, when rows held before the batch span it), and
`SpanBasis.extend` then back-substitutes once from the highest pivot
down; `SpanBasis.add` is `reduce` and the second pass alone, as a
reduced vector needs no first.  `span_dim` is the rank-only kernel (the
first pass alone, counting survivors) for callers that read only a
dimension, such as the ad-rank spectra.  The reduced rows are pivoted
deterministically (each row's pivot is its lowest set bit), and a span
has one reduced echelon form whatever repeats or order its rows arrive
in, so echelon forms, nullspace bases and solutions are reproducible
across runs.
"""

from __future__ import annotations

from itertools import count


def bit_indices(x: int) -> list[int]:
    """Indices of set bits, ascending."""
    if not x & (x - 1):  # 0 or a single bit, most calls
        return [x.bit_length() - 1] if x else []
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def xor_rows(rows, x: int) -> int:
    """XOR of rows[i] over the set bits i of x: the image of x under the
    matrix whose rows (or columns) are the given masks."""
    if not x & (x - 1):
        return rows[x.bit_length() - 1] if x else 0
    out = 0
    for i in bit_indices(x):
        out ^= rows[i]
    return out


def transpose(rows, ncols: int) -> list[int]:
    """Rows of the transpose of a matrix given by its rows as masks below
    2^ncols; the cost is one step per set bit."""
    out = [0] * ncols
    for i, r in enumerate(rows):
        if r:
            bit = 1 << i
            for j in bit_indices(r):
                out[j] |= bit
    return out


def flatten_cols(cols, n: int) -> int:
    """One n*n-bit vector of an n x n matrix given by its columns: column j
    occupies bits j*n .. j*n+n-1."""
    out = 0
    for j, c in enumerate(cols):
        out |= c << (j * n)
    return out


def unflatten_cols(vec: int, n: int) -> tuple[int, ...]:
    """The columns of a matrix flattened by `flatten_cols`."""
    mask = (1 << n) - 1
    return tuple((vec >> (j * n)) & mask for j in range(n))


class BitMatrix:
    """A dense GF(2) system in `cols` unknowns: the one-system form of the
    naive derivation oracle, eliminated by `SpanBasis` like every other
    system.  Its rows (`data`, int masks below 2**cols) may be any
    iterable, a generator included: `nullspace_basis` streams them, once,
    into one elimination, and then sets `rows` to the number it read."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int):
        self.rows = None  # unknown until `nullspace_basis` has read the data
        self.cols = cols
        self.data = data

    @classmethod
    def from_int_rows(cls, int_rows, cols: int) -> "BitMatrix":
        """The system of the given rows (any iterable, read once)."""
        return cls(int_rows, cols)

    def nullspace_basis(self) -> list[int]:
        """Basis of {x : M x = 0}; one vector per free column, ascending."""
        read = count()  # zip takes one from it per row it takes from data
        span = SpanBasis()
        span.extend(v for v, _ in zip(self.data, read))
        self.rows = next(read)
        return span.kernel(self.cols)


class SpanBasis:
    """Incremental GF(2) span of int-bitmask vectors, kept in reduced
    echelon form (pivot = lowest set bit).

    This is the eliminator for every system: insert the equation rows,
    then read off `kernel`.  The reduced rows live in one dict keyed by
    pivot + 1, the form `_forward` fills; `pivots` and `rows` are
    ascending read-only views of it.  `extend` drops the vectors of a
    batch that depend on those before them in it (`_independent`, keyed
    by highest bit), runs the survivors through the lowest-bit forward
    pass into that dict and back-substitutes once; the rows are reduced
    and the pivot mask is current again only when the batch is consumed
    or has raised, so it must not be fed a generator that reads this same
    span.  `add` inserts one vector and says whether the rank grew.
    """

    def __init__(self):
        self._rows: dict[int, int] = {}  # reduced rows, keyed by pivot + 1
        self._pivmask = 0

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return [k - 1 for k in sorted(self._rows)]

    @property
    def rows(self) -> list[int]:
        return [self._rows[k] for k in sorted(self._rows)]

    def reduce(self, v: int) -> int:
        # rows are fully reduced: xoring one clears its own pivot bit of v
        # and no other, so the pivots to clear are known up front
        hits = v & self._pivmask
        while hits:
            low = hits & -hits
            v ^= self._rows[low.bit_length()]
            hits ^= low
        return v

    def add(self, v: int) -> bool:
        """Insert a generator; returns True when the rank grows."""
        v = self.reduce(v)
        if v:
            self._insert((v,))  # reduced, so independent: no highest-bit pass
        return bool(v)

    def extend(self, vs) -> None:
        """Insert a batch of generators: the highest-bit pass
        (`_independent`) drops those that depend on the ones before, and
        the rest are forward-eliminated against the rows keyed by their
        pivots, then back-substituted once.  A batch that raises part way
        keeps, reduced, the rows it gave before, as the pass streams."""
        self._insert(_independent(vs))

    def _insert(self, vs) -> None:
        rows = self._rows
        dim = len(rows)
        try:
            _forward(rows, vs)
        finally:
            if len(rows) != dim:
                pivmask = 0
                for k in sorted(rows, reverse=True):
                    # the rows above are reduced: xoring one clears its own
                    # pivot bit of v and no other, so the pivots to clear
                    # are known up front
                    v = rows[k]
                    hits = v & pivmask
                    while hits:
                        low = hits & -hits
                        v ^= rows[low.bit_length()]
                        hits ^= low
                    rows[k] = v
                    pivmask |= 1 << (k - 1)
                self._pivmask = pivmask

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def kernel(self, ncols: int) -> list[int]:
        """Basis of {x < 2**ncols : r.x = 0 for every row r}, the rows cut
        to their first ncols coordinates: one vector per free column,
        ascending, holding the free column and the pivots that cancel it."""
        low = (1 << ncols) - 1
        dep: dict[int, int] = {}
        for k, row in self._rows.items():
            piv = 1 << (k - 1)
            for f in bit_indices((row ^ piv) & low):
                dep[f] = dep.get(f, 0) | piv
        return [dep.get(f, 0) | (1 << f) for f in range(ncols) if not (self._pivmask >> f) & 1]


def _independent(vectors):
    """Yield, as each is read, the vectors not in the span of those read
    before: each is xored with the kept vector keyed by its highest set bit
    (`int.bit_length`, O(1)) until it is zero, and dropped, or has a new
    highest bit, and is then kept and yielded as read.  The vectors
    yielded are independent and span the input."""
    kept: dict[int, int] = {}
    for v in vectors:
        w = v
        while w:
            top = w.bit_length()
            row = kept.get(top)
            if row is None:
                kept[top] = w
                yield v
                break
            w ^= row


def _forward(rows: dict[int, int], vectors) -> None:
    """Forward elimination into `rows`, each kept row keyed by its lowest
    set bit (as bit index + 1): a vector is xored with the row keyed by its
    own lowest bit until it is zero or has a new lowest bit, and is then
    kept."""
    for v in vectors:
        while v:
            low = (v & -v).bit_length()
            row = rows.get(low)
            if row is None:
                rows[low] = v
                break
            v ^= row


def span_dim(vectors) -> int:
    """Dimension of the span of int-bitmask vectors: the number that the
    highest-bit pass (`_independent`) keeps, with no lowest-bit pass,
    back-reduction, pivot list or combinations."""
    return sum(1 for _ in _independent(vectors))


def solve_affine(rows, ncols: int) -> tuple[int, list[int]] | None:
    """Solutions of the (coefficient mask, rhs bit) equations over `ncols`
    unknowns, read off one rref of the augmented rows (rhs = column
    ncols): None when inconsistent, else (the solution with every free
    unknown 0, a `kernel` basis)."""
    span = SpanBasis()
    span.extend(coeff | (rhs << ncols) for coeff, rhs in rows)
    if span.contains(1 << ncols):  # the row 0 = 1
        return None
    x = 0
    for p, row in zip(span.pivots, span.rows):
        if (row >> ncols) & 1:
            x |= 1 << p
    return x, span.kernel(ncols)


def span_equal(a: list[int], b: list[int]) -> bool:
    """Whether two generator lists span the same GF(2) subspace."""
    sa = SpanBasis()
    sa.extend(a)
    sb = SpanBasis()
    sb.extend(b)
    if sa.dim != sb.dim:
        return False
    return all(sa.contains(v) for v in b)


def echelon_complement(sub: list[int], vectors: list[int]) -> list[int]:
    """Canonical representatives extending span(sub) to span(sub+vectors).

    Returns the rows of rref(sub + vectors) whose pivots are not pivots of
    rref(sub): the lexicographically least echelon complement.
    """
    full = SpanBasis()
    full.extend(sub)
    base_pivots = set(full.pivots)
    full.extend(vectors)
    return [row for piv, row in zip(full.pivots, full.rows) if piv not in base_pivots]
