"""Bit-packed exact linear algebra over GF(2).

Vectors are plain Python ints used as bitmasks (bit i = coordinate i).
Matrices pack rows into numpy uint64 words, row-major, so elimination is
a word-wide xor.  Pivoting is deterministic (first nonzero column, lowest
row), which makes echelon forms, nullspace bases and solutions
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "SpanBasis",
    "rank",
    "nullspace_basis",
    "solve",
    "flatten_cols",
    "unflatten_cols",
]


def _nwords(cols: int) -> int:
    return max(1, (cols + 63) >> 6)


def _int_to_words(x: int, nwords: int) -> np.ndarray:
    return np.frombuffer(x.to_bytes(nwords * 8, "little"), dtype=np.uint64).copy()


def _words_to_int(row: np.ndarray) -> int:
    return int.from_bytes(row.tobytes(), "little")


@dataclass(frozen=True)
class BitVector:
    """A GF(2) vector: `length` coordinates packed into the int `bits`."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def from_indices(cls, length: int, indices) -> "BitVector":
        bits = 0
        for i in indices:
            bits |= 1 << i
        return cls(length, bits)

    def get(self, i: int) -> int:
        return (self.bits >> i) & 1

    def support(self) -> list[int]:
        return bit_indices(self.bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)


def bit_indices(x: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
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
    """Row-major packed GF(2) matrix."""

    __slots__ = ("rows", "cols", "words", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        self.rows = rows
        self.cols = cols
        self.words = _nwords(cols)
        if data is None:
            data = np.zeros((rows, self.words), dtype=np.uint64)
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls(n, n)
        for i in range(n):
            m.set(i, i, 1)
        return m

    @classmethod
    def from_int_rows(cls, int_rows, cols: int) -> "BitMatrix":
        nw = _nwords(cols)
        data = np.zeros((len(int_rows), nw), dtype=np.uint64)
        for i, r in enumerate(int_rows):
            data[i] = _int_to_words(r, nw)
        return cls(len(int_rows), cols, data)

    @classmethod
    def from_dense(cls, rows_of_bits) -> "BitMatrix":
        nr = len(rows_of_bits)
        nc = len(rows_of_bits[0]) if nr else 0
        m = cls(nr, nc)
        for i, row in enumerate(rows_of_bits):
            for j, v in enumerate(row):
                if v & 1:
                    m.set(i, j, 1)
        return m

    def get(self, i: int, j: int) -> int:
        return int((self.data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def set(self, i: int, j: int, v: int) -> None:
        w = np.uint64(1) << np.uint64(j & 63)
        if v & 1:
            self.data[i, j >> 6] |= w
        else:
            self.data[i, j >> 6] &= ~w

    def row_int(self, i: int) -> int:
        return _words_to_int(self.data[i])

    def int_rows(self) -> list[int]:
        return [_words_to_int(self.data[i]) for i in range(self.rows)]

    def transpose(self) -> "BitMatrix":
        t = BitMatrix(self.cols, self.rows)
        for i in range(self.rows):
            r = self.row_int(i)
            while r:
                low = r & -r
                j = low.bit_length() - 1
                t.set(j, i, 1)
                r ^= low
        return t

    def mat_vec(self, v: BitVector) -> BitVector:
        if v.length != self.cols:
            raise ValueError("dimension mismatch")
        w = _int_to_words(v.bits, self.words)
        par = np.bitwise_count(self.data & w).sum(axis=1) & 1
        bits = 0
        for i in np.nonzero(par)[0]:
            bits |= 1 << int(i)
        return BitVector(self.rows, bits)

    def _eliminate(self, data: np.ndarray, full: bool) -> list[int]:
        rows = data.shape[0]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == rows:
                break
            w, b = c >> 6, np.uint64(c & 63)
            col = (data[r:, w] >> b) & np.uint64(1)
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                data[[r, p]] = data[[p, r]]
            if full:
                mask = ((data[:, w] >> b) & np.uint64(1)).astype(bool)
                mask[r] = False
            else:
                mask = np.zeros(rows, dtype=bool)
                sub = ((data[r + 1 :, w] >> b) & np.uint64(1)).astype(bool)
                mask[r + 1 :] = sub
            if mask.any():
                data[mask] ^= data[r]
            pivots.append(c)
            r += 1
        return pivots

    def rank(self) -> int:
        data = self.data.copy()
        return len(self._eliminate(data, full=False))

    def rref(self) -> tuple[list[int], list[int]]:
        """Reduced row echelon form: (pivot columns, nonzero rows as ints)."""
        data = self.data.copy()
        pivots = self._eliminate(data, full=True)
        rows = [_words_to_int(data[i]) for i in range(len(pivots))]
        return pivots, rows

    def nullspace_basis(self) -> list[BitVector]:
        """Basis of {x : M x = 0}; one vector per free column, ascending."""
        pivots, rows = self.rref()
        pivset = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivset:
                continue
            bits = 1 << f
            for prow, pcol in zip(rows, pivots):
                if (prow >> f) & 1:
                    bits |= 1 << pcol
            basis.append(BitVector(self.cols, bits))
        return basis

    def solve(self, b: BitVector) -> BitVector | None:
        """A solution x of M x = b, or None when inconsistent."""
        if b.length != self.rows:
            raise ValueError("dimension mismatch")
        aug = BitMatrix(self.rows, self.cols + 1)
        aug.data[:, : self.words] = self.data
        for i in range(self.rows):
            if b.get(i):
                aug.set(i, self.cols, 1)
        pivots, rows = aug.rref()
        bits = 0
        for prow, pcol in zip(rows, pivots):
            if pcol == self.cols:
                return None
            if (prow >> self.cols) & 1:
                bits |= 1 << pcol
        return BitVector(self.cols, bits)


def rank(m: BitMatrix) -> int:
    return m.rank()


def nullspace_basis(m: BitMatrix) -> list[BitVector]:
    return m.nullspace_basis()


def solve(m: BitMatrix, b: BitVector) -> BitVector | None:
    return m.solve(b)


class SpanBasis:
    """Incremental GF(2) span of int-bitmask vectors, kept in reduced
    echelon form (pivot = lowest set bit).

    With track=True every stored row remembers which inserted generators
    express it, so `solve` can return a combination certificate.
    """

    def __init__(self, track: bool = False):
        self.pivots: list[int] = []
        self.rows: list[int] = []
        self.combos: list[int] | None = [] if track else None
        self.ngen = 0

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: int, c: int = 0) -> tuple[int, int]:
        for i, p in enumerate(self.pivots):
            if (v >> p) & 1:
                v ^= self.rows[i]
                if self.combos is not None:
                    c ^= self.combos[i]
        return v, c

    def add(self, v: int) -> bool:
        """Insert a generator; returns True when the rank grows."""
        gen = self.ngen
        self.ngen += 1
        v, c = self._reduce(v, 1 << gen)
        if v == 0:
            return False
        p = (v & -v).bit_length() - 1
        # back-reduce existing rows so the basis stays fully reduced
        for i in range(len(self.rows)):
            if (self.rows[i] >> p) & 1:
                self.rows[i] ^= v
                if self.combos is not None:
                    self.combos[i] ^= c
        k = 0
        while k < len(self.pivots) and self.pivots[k] < p:
            k += 1
        self.pivots.insert(k, p)
        self.rows.insert(k, v)
        if self.combos is not None:
            self.combos.insert(k, c)
        return True

    def extend(self, vs) -> None:
        for v in vs:
            self.add(v)

    def reduce(self, v: int) -> int:
        return self._reduce(v)[0]

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def solve(self, v: int) -> int | None:
        """Combination bitmask over inserted generators with XOR equal to v."""
        if self.combos is None:
            raise ValueError("span was not built with track=True")
        v, c = self._reduce(v)
        return c if v == 0 else None


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
    base = SpanBasis()
    base.extend(sub)
    base_pivots = set(base.pivots)
    full = SpanBasis()
    full.extend(sub)
    full.extend(vectors)
    return [row for piv, row in zip(full.pivots, full.rows) if piv not in base_pivots]
