import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from char2lie.gf2core import (
    BitMatrix,
    BitVector,
    SpanBasis,
    bit_indices,
    echelon_complement,
    nullspace_basis,
    rank,
    solve_affine,
    span_equal,
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


def test_rank_identity_and_zero():
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.zeros(3, 4)) == 0


def test_rank_exhaustive_3x3_against_minor_oracle():
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        m = BitMatrix.from_dense(rows)
        assert m.rank() == rank_oracle(rows, 3), rows


def test_rank_transpose_and_idempotence():
    rng = random.Random(7)
    for _ in range(30):
        rows = [[rng.randint(0, 1) for _ in range(6)] for _ in range(4)]
        m = BitMatrix.from_dense(rows)
        r = m.rank()
        assert r == m.rank()
        assert r == m.transpose().rank()


def test_nullspace_identity_empty():
    assert nullspace_basis(BitMatrix.identity(4)) == []


def test_nullspace_zero_matrix():
    basis = nullspace_basis(BitMatrix.zeros(2, 3))
    assert len(basis) == 3
    span = SpanBasis()
    for v in basis:
        assert span.add(v.bits)


def test_nullspace_recheck_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randint(0, 1) for _ in range(6)] for _ in range(4)]
        m = BitMatrix.from_dense(rows)
        basis = m.nullspace_basis()
        assert len(basis) == 6 - m.rank()
        for v in basis:
            assert m.mat_vec(v).bits == 0
        span = SpanBasis()
        for v in basis:
            assert span.add(v.bits)


def _equations(m: BitMatrix, b: BitVector):
    return [(row, b.get(i)) for i, row in enumerate(m.int_rows())]


def test_solve_identity_and_inconsistent():
    ident = BitMatrix.identity(4)
    b = BitVector.from_indices(4, [1, 3])
    assert solve_affine(_equations(ident, b), 4)[0] == b.bits
    zero = BitMatrix.zeros(3, 3)
    assert solve_affine(_equations(zero, BitVector.from_indices(3, [0])), 3) is None


def test_solve_substitution_recheck():
    rng = random.Random(13)
    for _ in range(25):
        rows = [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)]
        m = BitMatrix.from_dense(rows)
        x0 = BitVector(5, rng.randrange(32))
        b = m.mat_vec(x0)
        solved = solve_affine(_equations(m, b), 5)
        assert solved is not None
        assert m.mat_vec(BitVector(5, solved[0])).bits == b.bits


def test_rank_nullity():
    rng = random.Random(17)
    for _ in range(20):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[rng.randint(0, 1) for _ in range(c)] for _ in range(r)]
        m = BitMatrix.from_dense(rows)
        assert m.rank() + len(m.nullspace_basis()) == c


def test_wide_matrix_words_boundary():
    # exercise the multi-word path around the 64-bit boundary
    rng = random.Random(19)
    for cols in (63, 64, 65, 130):
        ints = [rng.getrandbits(cols) for _ in range(10)]
        m = BitMatrix.from_int_rows(ints, cols)
        assert m.int_rows() == ints
        assert m.rank() <= 10
        for v in m.nullspace_basis():
            assert m.mat_vec(v).bits == 0


def test_span_basis_tracking_and_complement():
    gens = [0b1010, 0b0110, 0b1100]
    s = SpanBasis(track=True)
    for g in gens:
        s.add(g)
    assert s.dim == 2  # third is the sum of the first two
    combo = s.solve(0b1100)
    acc = 0
    for k in bit_indices(combo):
        acc ^= gens[k]
    assert acc == 0b1100
    assert s.solve(0b0001) is None
    assert span_equal([0b1010, 0b0110], [0b1010, 0b1100])
    reps = echelon_complement([0b0001], [0b0001, 0b0011, 0b0111])
    assert len(reps) == 2
    assert all((r & 1) == 0 for r in reps)


def test_bitvector_xor_and_validation():
    v = BitVector.from_indices(5, [0, 3]) ^ BitVector.from_indices(5, [3, 4])
    assert v.support() == [0, 4]
    with pytest.raises(ValueError):
        BitVector(3, 8)


@st.composite
def _systems(draw):
    """(ncols, equations): up to 40 rows over 1-130 unknowns, each row dense
    or of weight at most 3, so that dependent and inconsistent systems
    occur as well as full-rank ones."""
    ncols = draw(st.sampled_from([63, 64, 65]) | st.integers(1, 130))
    sparse = st.sets(st.integers(0, ncols - 1), max_size=3).map(lambda s: sum(1 << i for i in s))
    row = st.integers(0, (1 << ncols) - 1) | sparse
    return ncols, draw(st.lists(st.tuples(row, st.integers(0, 1)), max_size=40))


@settings(derandomize=True, database=None)
@given(_systems())
def test_span_kernel_and_solve_agree_with_bitmatrix(system):
    ncols, eqs = system
    rows = [r for r, _ in eqs]
    span = SpanBasis()
    span.extend(rows)
    assert span.kernel(ncols) == [v.bits for v in BitMatrix.from_int_rows(rows, ncols).nullspace_basis()]
    aug_pivots, _ = BitMatrix.from_int_rows([r | (b << ncols) for r, b in eqs], ncols + 1).rref()
    solved = solve_affine(eqs, ncols)
    assert (solved is None) == (ncols in aug_pivots)
    if solved is not None:
        x, kernel = solved
        assert all((r & x).bit_count() & 1 == b for r, b in eqs)
        assert kernel == span.kernel(ncols)
