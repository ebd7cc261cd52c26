import itertools
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2lie import deriv as dv
from char2lie import liesuper as ls
from char2lie.gf2core import (
    BitMatrix,
    SpanBasis,
    _independent,
    echelon_complement,
    solve_affine,
    span_dim,
    span_equal,
    transpose,
)


def det_mod2(rows):
    """Cofactor-expansion determinant mod 2: the independent oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0] & 1
    d = 0
    for j in range(n):
        if rows[0][j] & 1:
            minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
            d ^= det_mod2(minor)
    return d


def rank_oracle(rows, ncols):
    """Largest k with a nonzero k x k minor."""
    nrows = len(rows)
    best = 0
    for k in range(1, min(nrows, ncols) + 1):
        found = False
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if det_mod2(sub):
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def _mat_vec(rows, x: int) -> int:
    """The image of x under the matrix with the given int-mask rows."""
    return sum(((r & x).bit_count() & 1) << i for i, r in enumerate(rows))


def _kernel(rows, ncols: int) -> list[int]:
    span = SpanBasis()
    span.extend(rows)
    return span.kernel(ncols)


def test_rank_identity_and_zero():
    assert span_dim([1 << i for i in range(5)]) == 5
    assert span_dim([0, 0, 0]) == 0


def test_rank_exhaustive_3x3_against_minor_oracle():
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        ints = [(bits >> (3 * i)) & 7 for i in range(3)]
        span = SpanBasis()
        span.extend(ints)
        assert span_dim(ints) == span.dim == rank_oracle(rows, 3), rows


def test_rank_transpose_and_idempotence():
    rng = random.Random(7)
    for _ in range(30):
        rows = [rng.getrandbits(6) for _ in range(4)]
        span = SpanBasis()
        span.extend(rows)
        r = span_dim(rows)
        assert r == span.dim == span_dim(span.rows)
        assert r == span_dim(transpose(rows, 6))


def test_nullspace_identity_empty():
    assert _kernel([1 << i for i in range(4)], 4) == []


def test_nullspace_zero_matrix():
    basis = _kernel([0, 0], 3)
    assert len(basis) == 3
    span = SpanBasis()
    for v in basis:
        assert span.add(v)


def test_nullspace_recheck_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = [rng.getrandbits(6) for _ in range(4)]
        basis = _kernel(rows, 6)
        assert len(basis) == 6 - span_dim(rows)
        for v in basis:
            assert _mat_vec(rows, v) == 0
        span = SpanBasis()
        for v in basis:
            assert span.add(v)


def _equations(rows, b: int):
    return [(row, (b >> i) & 1) for i, row in enumerate(rows)]


def test_solve_identity_and_inconsistent():
    ident = [1 << i for i in range(4)]
    b = 0b1010
    assert solve_affine(_equations(ident, b), 4)[0] == b
    assert solve_affine(_equations([0, 0, 0], 0b001), 3) is None


def test_solve_substitution_recheck():
    rng = random.Random(13)
    for _ in range(25):
        rows = [rng.getrandbits(5) for _ in range(5)]
        b = _mat_vec(rows, rng.randrange(32))
        solved = solve_affine(_equations(rows, b), 5)
        assert solved is not None
        assert _mat_vec(rows, solved[0]) == b


def test_rank_nullity():
    rng = random.Random(17)
    for _ in range(20):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        rows = [rng.getrandbits(c) for _ in range(r)]
        assert span_dim(rows) + len(_kernel(rows, c)) == c


def test_span_basis_and_complement():
    s = SpanBasis()
    s.extend([0b1010, 0b0110, 0b1100])
    assert s.dim == 2  # third is the sum of the first two
    assert s.contains(0b1100)
    assert not s.contains(0b0001)
    assert span_equal([0b1010, 0b0110], [0b1010, 0b1100])
    reps = echelon_complement([0b0001], [0b0001, 0b0011, 0b0111])
    assert len(reps) == 2
    assert all((r & 1) == 0 for r in reps)


@st.composite
def _systems(draw):
    """(ncols, equations): up to 40 rows over 1-130 unknowns, each row dense
    or of weight at most 3, so that dependent and inconsistent systems
    occur as well as full-rank ones."""
    ncols = draw(st.sampled_from([63, 64, 65]) | st.integers(1, 130))
    sparse = st.sets(st.integers(0, ncols - 1), max_size=3).map(lambda s: sum(1 << i for i in s))
    row = st.integers(0, (1 << ncols) - 1) | sparse
    return ncols, draw(st.lists(st.tuples(row, st.integers(0, 1)), max_size=40))


def _dense_rref(rows, ncols: int) -> tuple[list[int], list[list[int]]]:
    """Gauss-Jordan on rows given as lists of bits, pivoting on the first
    nonzero column and the first row at or below the current one: (pivot
    columns, nonzero reduced rows).  The independent reference for the
    int-mask eliminator."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x ^ y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[: len(pivots)]


def _dense_kernel(pivots, reduced, ncols: int) -> list[list[int]]:
    """One kernel vector per free column, ascending: the free column plus
    the pivots whose rows hold it."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(reduced, pivots):
            v[p] = row[f]
        basis.append(v)
    return basis


def _bits(x: int, ncols: int) -> list[int]:
    return [(x >> j) & 1 for j in range(ncols)]


@settings(derandomize=True, database=None)
@given(_systems())
def test_span_kernel_and_solve_agree_with_dense_gauss_jordan(system):
    ncols, eqs = system
    rows = [r for r, _ in eqs]
    pivots, reduced = _dense_rref([_bits(r, ncols) for r in rows], ncols)
    span = SpanBasis()
    span.extend(rows)
    assert span_dim(rows) == span.dim == len(pivots)
    assert [_bits(v, ncols) for v in span.kernel(ncols)] == _dense_kernel(pivots, reduced, ncols)
    _assert_dense_solve(eqs, ncols)


def _assert_dense_solve(eqs, ncols: int) -> None:
    """`solve_affine` against dense Gauss-Jordan on the augmented rows: the
    same verdict, particular solution and kernel basis."""
    aug_pivots, aug_reduced = _dense_rref([_bits(r, ncols) + [b] for r, b in eqs], ncols + 1)
    solved = solve_affine(eqs, ncols)
    assert (solved is None) == (ncols in aug_pivots)
    if solved is not None:
        x, kernel = solved
        expect = [0] * ncols
        for row, p in zip(aug_reduced, aug_pivots):
            expect[p] = row[ncols]
        assert _bits(x, ncols) == expect
        assert all((r & x).bit_count() & 1 == b for r, b in eqs)
        coeffs = [row[:ncols] for row in aug_reduced]
        assert [_bits(v, ncols) for v in kernel] == _dense_kernel(aug_pivots, coeffs, ncols)


@st.composite
def _batches(draw):
    """(width, rows already in the span, batch, rhs bits of the batch): rows
    of 1-300 bits, dense, of weight at most 3, or zero, and a batch that
    repeats some of its own rows and of the rows already held."""
    width = draw(st.sampled_from([1, 2, 63, 64, 65, 128, 300]) | st.integers(1, 300))
    sparse = st.sets(st.integers(0, width - 1), max_size=3).map(lambda s: sum(1 << i for i in s))
    row = st.integers(0, (1 << width) - 1) | sparse | st.just(0)
    before = draw(st.lists(row, max_size=20))
    fresh = draw(st.lists(row, max_size=40))
    pool = before + fresh
    dups = draw(st.lists(st.sampled_from(pool), max_size=10)) if pool else []
    batch = draw(st.permutations(fresh + dups))
    rhs = draw(st.lists(st.integers(0, 1), min_size=len(batch), max_size=len(batch)))
    return width, before, batch, rhs


@settings(derandomize=True, database=None, max_examples=300)
@given(_batches(), st.booleans())
def test_extend_batch_equals_one_add_at_a_time(case, as_generator):
    # the batch insert against one `add` per vector, and both against
    # dense Gauss-Jordan on every row held so far
    width, before, batch, rhs = case
    ref = SpanBasis()
    got = SpanBasis()
    held = []
    for vs in (before, batch):
        held += vs
        for v in vs:
            ref.add(v)
        got.extend((v for v in vs) if as_generator else vs)
        pivots, reduced = _dense_rref([_bits(v, width) for v in held], width)
        assert got.pivots == ref.pivots == pivots
        assert got.rows == ref.rows
        assert [_bits(r, width) for r in got.rows] == reduced
        assert got.dim == ref.dim == span_dim(held)
        assert got.kernel(width) == ref.kernel(width)
        assert [_bits(v, width) for v in got.kernel(width)] == _dense_kernel(pivots, reduced, width)
        assert all(got.contains(v) for v in vs)
    _assert_dense_solve(list(zip(batch, rhs)), width)


def test_extend_keeps_the_rows_of_a_batch_that_raises():
    def batch():
        yield 0b10
        raise RuntimeError("generator failed")

    span = SpanBasis()
    span.extend([0b11])
    with pytest.raises(RuntimeError):
        span.extend(batch())
    assert span.dim == 2
    assert span.pivots == [0, 1]
    assert span.rows == [0b01, 0b10]  # 0b11 is reduced by the new row
    assert span.contains(0b10) and span.contains(0b01)
    assert span.kernel(2) == []


@settings(derandomize=True, database=None, max_examples=100)
@given(_batches())
def test_bitmatrix_streams_a_one_shot_generator(case):
    # the naive oracle's system: an iterator, read once, gives the kernel
    # of the list of its rows and of their distinct rows, and `rows`
    # counts every row read, repeats and zero rows included
    width, before, batch, _ = case
    rows = before + batch
    listed = BitMatrix.from_int_rows(rows, width)
    streamed = BitMatrix.from_int_rows(iter(rows), width)
    assert streamed.rows is None and streamed.cols == width
    distinct = SpanBasis()
    distinct.extend(set(rows))
    kernel = streamed.nullspace_basis()
    assert kernel == listed.nullspace_basis() == distinct.kernel(width)
    assert all(_mat_vec(rows, v) == 0 for v in kernel)
    assert streamed.rows == listed.rows == len(rows)


# -- the highest-bit pass -------------------------------------------------------


def _lowest_bit_rref(vectors) -> tuple[list[int], list[int]]:
    """(pivots, reduced rows), ascending, of every vector forward-eliminated
    by lowest-bit pivots and back-substituted once, with no highest-bit
    pass first: the reference for `SpanBasis.extend`."""
    rows = {}
    for v in vectors:
        while v:
            low = (v & -v).bit_length() - 1
            if low not in rows:
                rows[low] = v
                break
            v ^= rows[low]
    pivots = sorted(rows)
    for i, p in enumerate(reversed(pivots)):
        for q in pivots[len(pivots) - i:]:
            if (rows[p] >> q) & 1:
                rows[p] ^= rows[q]
    return pivots, [rows[p] for p in pivots]


def _reference_kernel(pivots, rows, ncols: int) -> list[int]:
    """One kernel vector per free column, ascending: the free column plus
    the pivots whose reduced rows hold it."""
    return [(1 << f) | sum(((r >> f) & 1) << p for p, r in zip(pivots, rows))
            for f in range(ncols) if f not in pivots]


def _assert_lowest_bit_reference(span: SpanBasis, held, ncols: int) -> None:
    pivots, rows = _lowest_bit_rref(held)
    assert span.pivots == pivots
    assert span.rows == rows
    assert span.kernel(ncols) == _reference_kernel(pivots, rows, ncols)


@st.composite
def _dependent_batches(draw):
    """(width, batch): rows of 1-300 bits, each the xor of a few rows of a
    pool of at most 8, so that the batch is full of repeats, zeros and
    sums of its own rows and its rank is at most 8."""
    width = draw(st.sampled_from([1, 2, 63, 64, 65, 300]) | st.integers(1, 300))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=8))
    picks = draw(st.lists(st.sets(st.integers(0, len(pool) - 1), max_size=3), max_size=60))
    return width, [reduce(xor, (pool[i] for i in pick), 0) for pick in picks]


@settings(derandomize=True, database=None, max_examples=200)
@given(_dependent_batches() | _batches().map(lambda case: (case[0], case[1] + case[2])))
def test_independent_yields_a_basis_of_its_input_as_it_reads(case):
    # each vector is yielded right after it is read when the ones read
    # before do not span it, and dropped when they do; the survivors are
    # independent and as many as the rank of the input (dense Gauss-Jordan)
    width, batch = case
    read = []

    def source():
        for v in batch:
            read.append(v)
            yield v

    kept = []
    for v in _independent(source()):
        assert v == read[-1]
        kept.append((len(read) - 1, v))
    assert read == batch
    ref = SpanBasis()
    assert [i for i, _ in kept] == [i for i, v in enumerate(batch) if ref.add(v)]
    survivors = [v for _, v in kept]
    rank = len(_dense_rref([_bits(v, width) for v in batch], width)[0])
    assert len(_dense_rref([_bits(v, width) for v in survivors], width)[0]) == len(survivors) == rank
    assert span_dim(batch) == span_dim(iter(batch)) == rank


@settings(derandomize=True, database=None, max_examples=200)
@given(_dependent_batches(), _dependent_batches())
def test_extend_equals_the_lowest_bit_elimination(first, second):
    # two batches into one span, the second into rows already held: the
    # same pivots, reduced rows and kernel as lowest-bit pivots alone
    width = max(first[0], second[0])
    span = SpanBasis()
    held = []
    for _, batch in (first, second):
        held += batch
        span.extend(iter(batch))
        _assert_lowest_bit_reference(span, held, width)
    assert span.dim == span_dim(held)


def test_extend_equals_the_lowest_bit_elimination_on_the_naive_system():
    # the naive derivation system of hPi(0|5): 9,972 rows over 900
    # unknowns, most of them dependent
    g, _ = ls.build_algebra(ls.family("h", "Pi", 0, 5))
    n = g.n
    bit = [[1 << (s * n + t) for t in range(n)] for s in range(n)]
    rows = [row for _, _, _, row in dv._equations(g, bit)]
    assert len(rows) == 9972
    span = SpanBasis()
    span.extend(rows)
    _assert_lowest_bit_reference(span, rows, n * n)
    assert span.dim == span_dim(rows) < len(rows) // 10
    assert BitMatrix.from_int_rows(iter(rows), n * n).nullspace_basis() == span.kernel(n * n)
