"""Cross-checks between independent computation paths."""

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from char2lie import cli
from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import invariants as inv
from char2lie import liesuper as ls
from char2lie import pipeline
from char2lie import superfunc as sf
from char2lie.gf2core import SpanBasis, solve_affine, span_dim


def test_solver_solutions_satisfy_derivation_identities(built):
    # every basis map produced by either solver passes the independent
    # Der1/Der2 evaluation
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "II", 2, 2),
                 ("h", "PiPi", 2, 3), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        for space in (dv.derivation_space_blocked(g), dv.derivation_space_naive(g)):
            for d in space.all:
                assert dv.is_derivation(g, d), fam.name
            for key, reps in space.outer_reps.items():
                for d in reps:
                    assert dv.is_derivation(g, d), (fam.name, key)


def test_inner_derivations_preserve_invariant_form(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "Pi", 0, 5),
                 ("h", "PiI", 2, 2), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        for k in range(g.n):
            cols = g.ad_cols(1 << k)
            if any(cols):
                D = dv.linear_map_from_cols(g, cols)
                assert dv.bilinear_invariant(D, B), (fam.name, k)
                assert g.graded_only or dv.extra_condition(D, B, g), (fam.name, k)


def test_simplicity_sweep_sizes_4_and_5():
    for total in (4, 5):
        for fam in cli.standard_families(total):
            g, B = ls.build_algebra(fam)
            assert ls.derived(g, 1).dim == g.n, fam.name
            assert ls.center(g).dim == 0, fam.name
            assert B.is_nondegenerate(), fam.name


def test_rank_oracle_small_shapes():
    # exhaustive up to 3 columns x 2 rows, plus all 2x2
    from tests.test_gf2core import rank_oracle

    for rows, cols in ((1, 1), (2, 2), (2, 3)):
        for bits in range(1 << (rows * cols)):
            dense = [[(bits >> (cols * i + j)) & 1 for j in range(cols)] for i in range(rows)]
            ints = [(bits >> (cols * i)) & ((1 << cols) - 1) for i in range(rows)]
            assert span_dim(ints) == rank_oracle(dense, cols), dense


def test_central_element_orthogonal_to_commutant(built):
    for args, label in [(("h", "Pi", 0, 4), "Dtop"), (("le", "", 0, 0, 2), "Db[q1]"),
                        (("h", "Pi", 0, 5), "Dtop")]:
        fam, g, B = built(*args)
        gens = dict(dv.closed_form_generators(g))
        D = gens[label]
        ext = dx.build(g, B, dx.prepare(g, B, D))
        galg, form = ext.alg, ext.form
        c = 1  # index 0
        for i in range(galg.n):
            for j in range(galg.n):
                br = galg.bracket_vec(1 << i, 1 << j)
                assert form.pairing(c, br) == 0, (fam.name, i, j)


def test_bracket_vec_bilinearity_random(built):
    fam, g, B = built("h", "Pi", 0, 4)
    rng = random.Random(5)
    for _ in range(100):
        x, y, z = (rng.randrange(1 << g.n) for _ in range(3))
        assert g.bracket_vec(x ^ y, z) == g.bracket_vec(x, z) ^ g.bracket_vec(y, z)


def test_sq_vec_polarization(built):
    for args in [("h", "Pi", 0, 4), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        odd_mask = g.parity_mask(1)
        rng = random.Random(9)
        for _ in range(60):
            x = rng.randrange(1 << g.n) & odd_mask
            y = rng.randrange(1 << g.n) & odd_mask
            lhs = g.sq_vec(x ^ y) ^ g.sq_vec(x) ^ g.sq_vec(y)
            assert lhs == g.bracket_vec(x, y), (fam.name, x, y)


def test_blocked_solver_block_count_matches_grading(built):
    # block count equals the number of distinct realized grading shifts
    fam, g, B = built("h", "Pi", 0, 4)
    space = dv.derivation_space_blocked(g)
    cells = g.cells()
    shifts = set()
    for ka in cells:
        for kb in cells:
            shifts.add((ka[0] - kb[0], tuple(x - y for x, y in zip(ka[1], kb[1])), ka[2] ^ kb[2]))
    assert space.block_stats["blocks"] <= len(shifts)
    assert space.block_stats["max_block"] <= max(len(v) for v in cells.values()) ** 2 * len(cells)


def test_identify_witness_is_bijective_and_checks(built):
    fam, g, B = built("h", "Pi", 0, 4)
    gens = dict(dv.closed_form_generators(g))
    ext = dx.build(g, B, dx.prepare(g, B, gens["Dtop"]))
    po, _ = ls.poisson_algebra(fam.space())
    w = dx.identify_canonical(ext, po)
    cols = list(w.columns)
    assert span_dim(cols) == ext.n
    for i in range(ext.n):
        for j in range(i + 1, ext.n):
            assert w.apply(ext.alg.brk[i][j]) == po.bracket_vec(cols[i], cols[j])
    for i in ext.alg.odd_indices():
        assert w.apply(ext.alg.sq[i]) == po.sq_vec(cols[i])


# -- differential check of the bit-parallel verification kernels ------------
# The reference loops below evaluate every identity one basis triple at a
# time with a scalar pairing, as the library did before its row and
# whole-table kernels; they are kept here only as the oracle.


def _ref_bits(x):
    while x:
        yield (x & -x).bit_length() - 1
        x &= x - 1


def _ref_pairing(gram, x, y):
    v = 0
    for i in _ref_bits(x):
        v ^= (gram[i] & y).bit_count() & 1
    return v


def _ref_table(g):
    diag = g.diag
    return [[diag[i] if i == j else g.brk[i][j] for j in range(g.n)] for i in range(g.n)]


def _ref_apply(rows, x):
    out = 0
    for m in _ref_bits(x):
        out ^= rows[m]
    return out


def _ref_verify_axioms(g, max_failures):
    n = g.n
    fails = []
    leibniz = g.is_leibniz
    tbl = _ref_table(g) if leibniz else g.brk
    pmask = [g.parity_mask(0), g.parity_mask(1)]
    symmetric = True
    for i in range(n):
        for j in range(i, n):
            if tbl[i][j] != tbl[j][i]:
                fails.append(("symmetry", i, j))
                symmetric = False
            if tbl[i][j] & pmask[g.parity(i) ^ g.parity(j) ^ 1]:
                fails.append(("bracket-parity", i, j))
        if not g.graded_only and g.parity(i) == 1 and g.sq[i] & pmask[1]:
            fails.append(("squaring-parity", i))
        if len(fails) >= max_failures:
            return False, fails
    col = [[tbl[m][k] for m in range(n)] for k in range(n)]
    # an asymmetric table is reported by its symmetry entries, not summed
    if leibniz and symmetric:
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = _ref_apply(tbl[x], tbl[y][z])
                    rhs = _ref_apply(col[z], tbl[x][y]) ^ _ref_apply(tbl[y], tbl[x][z])
                    if lhs != rhs:
                        fails.append(("leibniz", x, y, z))
                        if len(fails) >= max_failures:
                            return False, fails
    elif symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = _ref_apply(col[k], g.brk[i][j]) ^ _ref_apply(col[i], g.brk[j][k])
                    if acc ^ _ref_apply(col[j], g.brk[k][i]):
                        fails.append(("jacobi", i, j, k))
                        if len(fails) >= max_failures:
                            return False, fails
    if not g.graded_only:
        # the squaring identity reads brk, the Leibniz diagonal included
        bcol = [[g.brk[m][k] for m in range(n)] for k in range(n)]
        for i in g.odd_indices():
            for j in range(n):
                if _ref_apply(bcol[j], g.sq[i]) != _ref_apply(g.brk[i], g.brk[i][j]):
                    fails.append(("squaring-jacobi", i, j))
                    if len(fails) >= max_failures:
                        return False, fails
    return not fails, fails


def _ref_verify_form(g, B, max_failures):
    n = g.n
    gram = B.gram
    fails = []
    for i in range(n):
        if _ref_pairing(gram, 1 << i, 1 << i) and g.parity(i) == 1 and not g.graded_only:
            fails.append(("form-odd-diagonal", i))
        for j in range(i, n):
            bij = _ref_pairing(gram, 1 << i, 1 << j)
            if bij != _ref_pairing(gram, 1 << j, 1 << i):
                fails.append(("form-symmetry", i, j))
            if bij and (g.parity(i) ^ g.parity(j)) != B.parity:
                fails.append(("form-parity", i, j))
    tbl = _ref_table(g)
    for h in range(n):
        for i in range(n):
            for j in range(n):
                if _ref_pairing(gram, tbl[i][h], 1 << j) != _ref_pairing(gram, 1 << i, tbl[h][j]):
                    fails.append(("invariance", i, h, j))
                    if len(fails) >= max_failures:
                        return False, fails
    if not g.graded_only:
        for i in g.odd_indices():
            for j in range(n):
                if _ref_pairing(gram, g.sq[i], 1 << j) != _ref_pairing(gram, 1 << i, g.brk[i][j]):
                    fails.append(("square-invariance", i, j))
                    if len(fails) >= max_failures:
                        return False, fails
    return not fails, fails


def _ref_invariance_failures(D, B):
    n = len(D.cols)
    return [(i, j) for i in range(n) for j in range(i, n)
            if _ref_pairing(B.gram, D.cols[i], 1 << j) != _ref_pairing(B.gram, 1 << i, D.cols[j])]


def _ref_orthogonal_complement(B, vectors):
    span = SpanBasis()
    span.extend(sum(_ref_pairing(B.gram, 1 << i, v) << i for i in range(B.n)) for v in vectors)
    return span.kernel(B.n)


def _square_object():
    """Odd x and y, even z and w: [x, y] = z, x^2 = z + w, y^2 = z, and z
    and w central; a Lie superalgebra with nonzero odd squares (every
    standard base has all odd squares 0), one of them with two terms, and
    an odd form pairing x with z and y with w."""
    basis = [ls.BasisElement("x", 1, 1, ()), ls.BasisElement("y", 1, 1, ()),
             ls.BasisElement("z", 0, 2, ()), ls.BasisElement("w", 0, 2, ())]
    brk = [[0, 0b0100, 0, 0], [0b0100, 0, 0, 0], [0] * 4, [0] * 4]
    g = ls.StructureConstants(basis, brk, [0b1100, 0b0100, 0, 0])
    return g, ls.BilinearFormTable((0b0100, 0b1000, 0b0001, 0b0010), 1)


@functools.cache
def _verification_bases():
    """Lie, graded, Buttin and Leibniz objects, double extensions (one of
    them Leibniz with m = 1, so that its form fails square-invariance), and
    an object with nonzero odd squares."""
    out = []
    for args in [("h", "Pi", 0, 4), ("h", "PiPi", 1, 3), ("le", "", 0, 0, 2)]:
        fam = ls.family(*args[:4], n=args[4] if len(args) > 4 else 0)
        out.append(ls.build_algebra(fam))
    fam = ls.family("h", "I", 0, 4)
    out.append(ls.poisson_algebra(fam.space()))
    for args, m in ((("h", "Pi", 0, 4), 0), (("h", "Pi", 0, 5), 1)):
        fam = ls.family(*args)
        g, B = ls.build_algebra(fam)
        D = dict(dv.closed_form_generators(g))["Dtop"]
        ext = dx.build(g, B, dx.prepare(g, B, D, m=m))
        out.append((ext.alg, ext.form))
    out.append(_square_object())
    return tuple(out)


@st.composite
def _perturbed_objects(draw):
    """A base object with a few table flips: asymmetric bracket entries,
    nonzero brk[i][i], asymmetric and diagonal Gram entries, squares and
    the Leibniz diagonal of a Leibniz base; plus a map D and vectors for
    the pairwise checks."""
    g0, B0 = draw(st.sampled_from(_verification_bases()))
    n = g0.n
    g = ls.StructureConstants(g0.basis, g0.brk, g0.sq, meta=g0.meta)
    gram = list(B0.gram)
    idx = st.integers(0, n - 1)
    for kind, i, j, t in draw(st.lists(st.tuples(st.integers(0, 6), idx, idx, idx), min_size=1, max_size=4)):
        if kind == 0:
            g.brk[i][j] ^= 1 << t
        elif kind == 1:
            g.brk[i][i] ^= 1 << t
        elif kind == 2:
            # flips B(e_i, brk[i][i]), which square-invariance reads
            g.brk[i][i] ^= gram[i]
        elif kind == 3:
            gram[i] ^= 1 << j
        elif kind == 4:
            gram[i] ^= 1 << i
        elif kind == 5:
            g.sq[i] ^= 1 << t
        elif g0.is_leibniz:
            g.brk[i][i] ^= 1 << t
    B = ls.BilinearFormTable(tuple(gram), B0.parity)
    cols = list(g.brk[draw(idx)])
    for j, t in draw(st.lists(st.tuples(idx, idx), max_size=3)):
        cols[j] ^= 1 << t
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    return g, B, dv.LinearMap(tuple(cols), 0, (), 0), vectors


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(_perturbed_objects())
def test_verification_kernels_match_reference_loops(obj):
    g, B, D, vectors = obj
    for max_failures in (1, 5, 10, 10**9):
        ax = g.verify_axioms(max_failures)
        assert (ax.ok, ax.failures) == _ref_verify_axioms(g, max_failures), max_failures
        fm = g.verify_form(B, max_failures)
        assert (fm.ok, fm.failures) == _ref_verify_form(g, B, max_failures), max_failures
    _assert_squaring_check(g)
    assert list(dv.invariance_failures(D, B)) == _ref_invariance_failures(D, B)
    assert B.orthogonal_complement(vectors) == _ref_orthogonal_complement(B, vectors)


def _assert_squaring_check(g):
    # jis_holds reads the squaring identity whether or not g is graded
    # only; the reference loop lists its failures only when it is not
    ungraded = ls.StructureConstants(g.basis, g.brk, g.sq, meta={**g.meta, "graded": False})
    ref = [f[1:] for f in _ref_verify_axioms(ungraded, 10**9)[1] if f[0] == "squaring-jacobi"]
    assert list(g._squaring_failures()) == ref
    assert g.jis_holds() == (not ref)


def test_squaring_check_on_nonzero_squares():
    # every single flip of a bracket or square bit of an object whose odd
    # squares are nonzero: the row-at-a-time squaring and parity checks
    # against the reference loops
    g0, _ = _square_object()
    assert g0.verify_axioms().ok and g0.jis_holds() and not g0.graded_only
    n = g0.n
    flips = [("brk", i, j, t) for i in range(n) for j in range(n) for t in range(n)]
    flips += [("sq", i, 0, t) for i in g0.odd_indices() for t in range(n)]
    held = 0
    for kind, i, j, t in flips:
        g = ls.StructureConstants(g0.basis, g0.brk, g0.sq, meta=g0.meta)
        if kind == "brk":
            g.brk[i][j] ^= 1 << t
        else:
            g.sq[i] ^= 1 << t
        for max_failures in (1, 3, 10**9):
            ax = g.verify_axioms(max_failures)
            assert (ax.ok, ax.failures) == _ref_verify_axioms(g, max_failures), (kind, i, j, t, max_failures)
        _assert_squaring_check(g)
        held += g.jis_holds()
    assert 0 < held < len(flips)


def test_symmetric_leibniz_failures_match_reference_loops():
    # Flips of the Leibniz diagonal keep the table symmetric, so the check
    # takes its once-per-multiset route; each failing multiset must come
    # out at all of its orderings, {a, a, a} included.
    g0, _ = _verification_bases()[3]
    for i, t in [(0, 0), (1, 1), (2, 3), (4, 4), (5, 5), (7, 0), (15, 15), (15, 0)]:
        g = ls.StructureConstants(g0.basis, g0.brk, g0.sq, meta=g0.meta)
        g.brk[i][i] ^= 1 << t
        for max_failures in (1, 7, 10**9):
            ax = g.verify_axioms(max_failures)
            assert (ax.ok, ax.failures) == _ref_verify_axioms(g, max_failures), (i, t, max_failures)


def test_symmetric_flip_failures_match_reference_loops():
    # Flipping brk[i][j] and brk[j][i] together (i != j) keeps the table
    # symmetric, so Jacobi (and Leibniz, on the Leibniz bases) take their
    # once-per-multiset route; its failures must come out complete and in
    # the reference order. The flipped bit has the bracket's parity, so the
    # failures are Jacobi or Leibniz ones, not parity ones. On a Leibniz
    # base one more flip, of brk[m][a] for m in the diagonal [e_a, e_a],
    # makes the multiset {a, a, a} fail.
    for b, (g0, _) in enumerate(_verification_bases()):
        rng = random.Random(b)
        pairs = [[rng.sample(range(g0.n), 2) for _ in range(rng.choice((1, 2)))] for _ in range(3)]
        pairs += [[((d & -d).bit_length() - 1, a)] for a, d in enumerate(g0.diag) if d][:1]
        for flips in pairs:
            g = ls.StructureConstants(g0.basis, g0.brk, g0.sq, meta=g0.meta)
            for i, j in flips:
                t = rng.choice([t for t in range(g.n) if g.parity(t) == g.parity(i) ^ g.parity(j)])
                g.brk[i][j] ^= 1 << t
                g.brk[j][i] ^= 1 << t
            for max_failures in (1, 7, 10**9):
                ax = g.verify_axioms(max_failures)
                assert (ax.ok, ax.failures) == _ref_verify_axioms(g, max_failures), (b, max_failures)


def test_every_producer_writes_a_symmetric_table():
    # verify_axioms sums Jacobi and Leibniz only on a symmetric table, so
    # every object the library builds or reads has one: the standard
    # families of sizes 4-6 and their po/b algebras, every extension that
    # dex_family builds at sizes 4-5, po/center(po) at size 4, and the SCA
    # round trip of each. One off-diagonal flip makes a table asymmetric:
    # the report fails on its symmetry entry and sums no identity.
    objects = []
    for total in (4, 5, 6):
        for fam in cli.standard_families(total):
            po, B = ls.poisson_algebra(fam.space())
            objects += [ls.build_algebra(fam), (po, B)]
            if total == 4:
                objects.append((ls.quotient(po, ls.center(po)), None))
            if total < 6:
                objects += [(ext.alg, ext.form) for r in pipeline.dex_family(fam)[1] for _, ext, _ in r.built]
    assert len(objects) == 66 + 11 + 56
    objects += [cli.sca_parse(cli.sca_dump(g, B)) for g, B in objects]
    rng = random.Random(25)
    leibniz = set()
    for g, _ in objects:
        assert all(g.brk[i][j] == g.brk[j][i] for i in range(g.n) for j in range(i)), g.meta.get("family")
        i, j = sorted(rng.sample(range(g.n), 2))
        bad = ls.StructureConstants(g.basis, g.brk, g.sq, meta=g.meta)
        bad.brk[j][i] ^= 1 << rng.randrange(g.n)
        ax = bad.verify_axioms(10**9)
        assert not ax.ok and ("symmetry", i, j) in ax.failures, (g.meta.get("family"), i, j)
        assert not {f[0] for f in ax.failures} & {"jacobi", "leibniz"}, (g.meta.get("family"), i, j)
        leibniz.add(g.is_leibniz)
    assert leibniz == {True, False}


@st.composite
def _vector_lists(draw):
    """0-40 vectors of one width in 1-130 (63, 64 and 65 drawn often),
    each dense or with at most three bits."""
    width = draw(st.sampled_from([63, 64, 65]) | st.integers(1, 130))
    sparse = st.sets(st.integers(0, width - 1), max_size=3).map(lambda s: sum(1 << i for i in s))
    return draw(st.lists(st.integers(0, (1 << width) - 1) | sparse, max_size=40))


@settings(derandomize=True, database=None)
@given(_vector_lists())
def test_span_dim_matches_span_basis(vectors):
    span = SpanBasis()
    span.extend(vectors)
    assert span_dim(vectors) == span.dim


# SpanBasis reference loops for the rank invariants: ad(x) column by column
# from the table, a full SpanBasis per rank, every element in ascending order.


def _ref_rank(cols):
    span = SpanBasis()
    span.extend(cols)
    return span.dim


def _ref_ad_cols(g, x):
    tbl = _ref_table(g)
    return [_ref_apply([row[k] for row in tbl], x) for k in range(g.n)]


def _ref_super_rank(g, cols):
    even, odd = SpanBasis(), SpanBasis()
    for j, c in enumerate(cols):
        (odd if g.parity(j) else even).add(c)
    return inv.SuperRank(even.dim, odd.dim)


def _ref_has_odd_ad_rank(g):
    basis = [_ref_ad_cols(g, 1 << i) for i in range(g.n)]
    cols = [[0] * g.n]
    for x in range(1, 1 << g.n):
        # ad(x) = ad(x without its lowest bit) + ad(e_lowest)
        cols.append([a ^ b for a, b in zip(cols[x & (x - 1)], basis[(x & -x).bit_length() - 1])])
        if _ref_rank(cols[x]) & 1:
            return True
    return False


def test_rank_invariants_match_span_basis_loops():
    bases = _verification_bases()[:5]
    for g, B in bases:
        n = g.n
        assert inv.ad_rank_spectrum(g) == tuple(sorted(_ref_rank(_ref_ad_cols(g, 1 << i)) for i in range(n)))
        pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
        assert inv.pair_rank_spectrum(g) == tuple(sorted(_ref_rank(_ref_ad_cols(g, x)) for x in pairs))
        rng = random.Random(n)
        for x in [1 << i for i in range(n)] + pairs[::7] + [rng.getrandbits(n) for _ in range(20)]:
            cols = _ref_ad_cols(g, x)
            assert inv.ad_rank(g, x) == _ref_rank(cols), x
            assert inv.super_rank(g, x) == _ref_super_rank(g, cols), x
        cols = [rng.getrandbits(n) & g.brk[rng.randrange(n)][j] for j in range(n)]
        assert inv.super_rank(g, dv.LinearMap(tuple(cols), 0, (), 0)) == _ref_super_rank(g, cols)
    # the exhaustive reference costs 2^n ranks: the Dtop extension (n = 16,
    # no odd rank, so its search never stops early) is left out
    for g, B in bases[:4]:
        assert inv.has_odd_ad_rank(g) == _ref_has_odd_ad_rank(g), g.n


# -- the mask bracket kernel against the derivative formula ----------------
# The reference builds the bracket from partial derivatives and the
# truncated product, as the library did before its single-bit term list:
# sum over pairs (u, v) of du f dv g + dv f du g, over diagonals w of
# dw f dw g.


def _ref_partial(f, var):
    bit = 1 << var
    return [m ^ bit for m in f if m & bit]


def _ref_mul(f, g):
    out = set()
    for a in f:
        for b in g:
            if not a & b:
                out ^= {a | b}
    return out


def _ref_poly_bracket(space, f, g):
    out = set()
    for u, v in space.kind.pairs:
        out ^= _ref_mul(_ref_partial(f, u), _ref_partial(g, v))
        out ^= _ref_mul(_ref_partial(f, v), _ref_partial(g, u))
    for w in space.kind.diagonals:
        out ^= _ref_mul(_ref_partial(f, w), _ref_partial(g, w))
    return frozenset(out)


def _kernel_families():
    fams = [fam for total in (4, 5) for fam in cli.standard_families(total)]
    return fams + [ls.family("le", n=k) for k in (2, 3, 4)]


def test_structure_tables_match_derivative_formula():
    # build_algebra drops the constant and the top monomial; poisson_algebra
    # keeps every monomial and carries [e_i, e_i] as its Leibniz diagonal
    for fam in _kernel_families():
        space = fam.space()
        for g, drop in ((ls.build_algebra(fam)[0], {0, space.full_mask}), (ls.poisson_algebra(space)[0], set())):
            masks = g.meta["masks"]
            index = {m: i for i, m in enumerate(masks)}
            for i, a in enumerate(masks):
                for j in range(i, g.n):
                    want = 0
                    for m in _ref_poly_bracket(space, [a], [masks[j]]):
                        if m not in drop:
                            want |= 1 << index[m]
                    got = g.diag[i] if i == j else g.brk[i][j]
                    assert got == want and g.brk[j][i] == g.brk[i][j], (fam.name, g.n, i, j)


@st.composite
def _poly_pairs(draw):
    space = draw(st.sampled_from([fam.space() for fam in _kernel_families()]))
    mono = st.integers(0, space.full_mask)
    return space, draw(st.frozensets(mono, max_size=6)), draw(st.frozensets(mono, max_size=6))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_poly_pairs())
def test_bracket_matches_derivative_formula(pair):
    space, f, g = pair
    assert sf.bracket(space, f, g) == _ref_poly_bracket(space, f, g)


# -- differential check of identify_canonical --------------------------------
# The reference is the E1/E2/E3 formulation the library used before it built
# one row per a-relation from the phi0 columns: separate loops for the
# a-brackets (E1), the [D, e_k] coordinates (E2) and the odd squares (E3),
# each unknown looked up by list.index, the unknown nu (phi(D) += 1 when c
# and D have the same parity) that the library dropped, and the witness
# checked by its own loops.  The two must give the same witness columns, or
# None, on every attempt: the unknowns' order fixes the first witness the
# enumeration finds.


def _ref_witness_ok(ext, target, cols):
    g, n = ext.alg, ext.n
    span = SpanBasis()
    span.extend(cols)
    if span.dim != n:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if _ref_apply(cols, g.brk[i][j]) != target.bracket_vec(cols[i], cols[j]):
                return False
        if _ref_apply(cols, g.diag[i]) != target.bracket_vec(cols[i], cols[i]):
            return False
    if not (g.graded_only or target.graded_only):
        for i in g.odd_indices():
            if _ref_apply(cols, g.sq[i]) != target.sq_vec(cols[i]):
                return False
    return True


def _ref_identify(ext, target):
    g, n = ext.alg, ext.n
    masks = target.meta["masks"]
    space = target.meta["space"]
    t_index = {m: i for i, m in enumerate(masks)}
    one, top = t_index.get(0), t_index.get(space.full_mask)
    if one is None or top is None or g.meta.get("extension_of") is None:
        return None
    iota = [t_index[m] for m in masks if 0 < m.bit_count() < space.nvars]
    if len(iota) != n - 2:
        return None
    pc, pd = g.parity(0), g.parity(n - 1)
    if target.basis[one].parity != pc or target.basis[top].parity != pd:
        return None
    na = n - 2
    beta_idx = [k for k in range(na) if g.parity(k + 1) == pc]
    y_idx = [k for k in range(na) if g.parity(k + 1) == pd]
    nun = len(beta_idx) + len(y_idx) + (pc == pd)

    def image(va):
        return sum(1 << iota[i] for i in _ref_bits(va))

    def beta_coeff(va):
        return sum(1 << beta_idx.index(i) for i in _ref_bits(va) if g.parity(i + 1) == pc)

    rows = []
    # E1: pairs of a
    for k in range(na):
        for l in range(k + 1, na):
            v = g.brk[k + 1][l + 1]
            diff = image(v >> 1) ^ target.bracket_vec(1 << iota[k], 1 << iota[l])
            if diff & ~(1 << one):
                return None
            rows.append((beta_coeff(v >> 1), ((diff >> one) & 1) ^ (v & 1)))
    # E2: [D, e_k], one row per target coordinate
    for k in range(na):
        dva = g.brk[n - 1][k + 1] >> 1
        fixed = image(dva) ^ target.bracket_vec(1 << top, 1 << iota[k])
        coeffs = [0] * n
        coeffs[one] = beta_coeff(dva)
        for j in y_idx:
            for t in _ref_bits(target.bracket_vec(1 << iota[j], 1 << iota[k])):
                coeffs[t] |= 1 << (len(beta_idx) + y_idx.index(j))
        rows.extend((coeff, (fixed >> t) & 1) for t, coeff in enumerate(coeffs))
    # E3: squares of odd a-elements
    if not (g.graded_only or target.graded_only):
        for k in range(na):
            if g.parity(k + 1) == ls.ODD:
                sv = g.sq[k + 1]
                diff = image(sv >> 1) ^ target.sq_vec(1 << iota[k])
                if diff & ~(1 << one):
                    return None
                rows.append((beta_coeff(sv >> 1), ((diff >> one) & 1) ^ (sv & 1)))
    solved = solve_affine(rows, nun)
    if solved is None:
        return None
    base, kernel = solved
    for mask in range(1 << len(kernel)):
        s = base ^ _ref_apply(kernel, mask)
        cols = [1 << one] + [(1 << iota[k]) ^ ((1 << one) if k in beta_idx and (s >> beta_idx.index(k)) & 1 else 0)
                             for k in range(na)]
        dcol = 1 << top
        for j in y_idx:
            if (s >> (len(beta_idx) + y_idx.index(j))) & 1:
                dcol ^= 1 << iota[j]
        if pc == pd and (s >> (nun - 1)) & 1:
            dcol ^= 1 << one
        cols.append(dcol)
        if _ref_witness_ok(ext, target, cols):
            return tuple(cols)
    return None


def test_identify_canonical_matches_reference():
    # every preserving row of the standard families of sizes 4 and 5, with
    # every m, against the family's po/b
    attempts = found = 0
    for total in (4, 5):
        for fam in cli.standard_families(total):
            an = cli.analyze_family(fam)
            g, B = an.g, an.B
            po, _ = ls.poisson_algebra(fam.space())
            for r in an.rows:
                if not r.bilinear:
                    continue
                D = r.reps[0]
                for m in (0, 1) if not g.graded_only and dx.case_of(B, D) == "Dodd_Bodd" else (0,):
                    ext = dx.build(g, B, dx.prepare(g, B, D, m=m))
                    w = dx.identify_canonical(ext, po)
                    got = None if w is None else w.columns
                    assert got == _ref_identify(ext, po), (fam.name, r.label, m)
                    attempts += 1
                    found += got is not None
    assert (attempts, found) == (56, 17)


def _two_solution_pair():
    """A hand-made extension and target whose row beta_2 + y_2 = 1 has two
    solutions that both verify: ext has [e1, e2] = c and [D, e1] = e2, the
    target [x1, x2] = 1 and [top, x1] = x2 + 1."""
    space = ls.family("h", "Pi", 0, 2).space()

    def algebra(names, brk12, brk31, meta):
        basis = [ls.BasisElement(name, ls.EVEN, 0, ()) for name in names]
        brk = [[0] * 4 for _ in range(4)]
        brk[1][2] = brk[2][1] = brk12
        brk[3][1] = brk[1][3] = brk31
        g = ls.StructureConstants(basis, brk, [0] * 4, meta=meta)
        assert g.verify_axioms().ok
        return g

    ext = dx.ExtendedAlgebra(algebra("c e1 e2 D".split(), 0b0001, 0b0100, {"extension_of": "hand-made"}), None, {})
    target = algebra("1 x1 x2 top".split(), 0b0001, 0b0101, {"space": space, "masks": (0, 1, 2, 3)})
    return ext, target


def test_identify_canonical_first_witness_follows_unknown_order():
    # On the standard families the beta and y corrections are unique (each
    # a is perfect and centerless; only the reference's nu is free), so
    # their attempts do not see the order of the unknowns.  In the
    # two-solution pair, with beta before y the rref pivots on beta_2,
    # giving e2 -> x2 + 1 and D -> top; pivoting on y_2 would give e2 -> x2
    # and D -> top + x2.
    ext, target = _two_solution_pair()
    w = dx.identify_canonical(ext, target)
    assert w.columns == _ref_identify(ext, target) == (0b0001, 0b0010, 0b0101, 0b1000)


def test_identify_canonical_truncates_above_the_kernel_cap(monkeypatch):
    # the linear system of the two-solution pair leaves a 2-dimensional
    # solution set (four candidates, two of which verify): above the cap it
    # is not searched, and the verdict says so instead of "no witness"
    ext, target = _two_solution_pair()
    for cap in (0, 1):
        monkeypatch.setattr(dx, "MAX_KERNEL_DIM", cap)
        assert dx.identify_canonical(ext, target) == dx.SEARCH_TRUNCATED == "search-truncated"
    monkeypatch.setattr(dx, "MAX_KERNEL_DIM", 2)
    assert dx.identify_canonical(ext, target).columns == (0b0001, 0b0010, 0b0101, 0b1000)


# -- differential check of is_derivation -------------------------------------
# The reference is the all-pairs loop the library used before it checked one
# table row at a time: for every pair i < j, and i = j where the Leibniz
# diagonal brk[i][i] is nonzero, D applied to brk[i][j] against two
# bracket_vec calls (which read the Leibniz diagonal), then Der2 on the odd
# basis elements unless g is graded only.  The Leibniz Poisson objects make
# each of three mutants of the row-at-a-time check disagree with it: one
# that reads brk with the diagonal zeroed, one that starts j at i + 1 (the
# unit map 1 -> 1 of po hII(2|2) then passes), and one that drops Der2; the
# graded-only desuperization catches the last one on its own (4 maps).


def _ref_is_derivation(g, D):
    n = g.n
    for i in range(n):
        for j in range(i if g.brk[i][i] else i + 1, n):
            lhs = _ref_apply(D.cols, g.brk[i][j])
            if lhs != g.bracket_vec(D.cols[i], 1 << j) ^ g.bracket_vec(1 << i, D.cols[j]):
                return False
    if not g.graded_only:
        for i in g.odd_indices():
            if _ref_apply(D.cols, g.sq[i]) != g.bracket_vec(D.cols[i], 1 << i):
                return False
    return True


def _with_flips(maps, rng):
    """Each map, then a copy with one seeded bit flipped."""
    for D in maps:
        yield D
        cols = list(D.cols)
        cols[rng.randrange(D.n)] ^= 1 << rng.randrange(D.n)
        yield dv.LinearMap(tuple(cols), *D.shift)


def _verdicts(g, maps, label):
    """The reference verdicts, asserting that is_derivation agrees."""
    out = []
    for D in maps:
        want = _ref_is_derivation(g, D)
        assert dv.is_derivation(g, D) == want, (label, D.cols)
        out.append(want)
    return out


def test_is_derivation_matches_reference_on_solver_maps():
    # every map of the blocked spaces at sizes 4 and 5, Lie and graded
    # only, and a one-bit flip of each
    rng = random.Random(13)
    seen = set()
    for total in (4, 5):
        for fam in cli.standard_families(total):
            g, _ = ls.build_algebra(fam)
            got = _verdicts(g, _with_flips(dv.derivation_space_blocked(g).all, rng), fam.name)
            assert all(got[::2]), fam.name
            seen.update(got)
    assert seen == {True, False}


def test_is_derivation_matches_reference_on_closed_form_candidates(monkeypatch):
    # every candidate closed_form_generators filters at sizes 6 and 7,
    # accepted or not, on the route it takes (Der1 on the pairs of the
    # generating set), and a one-bit flip of each on the same route, so
    # that rejections are compared too
    real = dv.is_derivation
    rng = random.Random(13)
    seen = []
    flips = []

    def check(g, D, gens=None):
        assert gens == ls.generating_set(g)
        got = real(g, D, gens)
        assert got == _ref_is_derivation(g, D), (g.meta["family"].name, D.cols)
        seen.append(got)
        _, F = _with_flips([D], rng)
        flips.append(real(g, F, gens))
        assert flips[-1] == _ref_is_derivation(g, F), (g.meta["family"].name, F.cols)
        return got

    monkeypatch.setattr(dv, "is_derivation", check)
    for total in (6, 7):
        for fam in cli.standard_families(total):
            dv.closed_form_generators(ls.build_algebra(fam)[0])
    assert (len(seen), seen.count(True)) == (224, 205)
    assert (len(flips), flips.count(True)) == (224, 0)


def test_is_derivation_matches_reference_on_leibniz_and_graded_objects():
    rng = random.Random(13)
    # the Leibniz Poisson objects of size 4: the naive space, the rows of
    # brk and the maps e_1 -> e_t (1 = [w, w] for a diagonal w), with
    # one-bit flips; (w, w) is a Der1 pair, so no unit map passes: at
    # hII(2|2) 1 -> 1 has D[w, w] = 1 != [Dw, w] + [w, Dw] = 0
    passing_unit_maps = []
    for fam in cli.standard_families(4):
        po, _ = ls.poisson_algebra(fam.space())
        if not po.is_leibniz:
            continue
        one = po.meta["masks"].index(0)
        rows = [dv.LinearMap(tuple(r), 0, (), 0) for r in po.brk]
        units = [dv.LinearMap(tuple(1 << t if j == one else 0 for j in range(po.n)), 0, (), 0) for t in range(po.n)]
        _verdicts(po, _with_flips(dv.derivation_space_naive(po).all + rows, rng), fam.name)
        passing_unit_maps += [(fam.name, t) for t, ok in enumerate(_verdicts(po, units, fam.name)) if ok]
    assert passing_unit_maps == []
    # the graded-only desuperization of po hPi(0|4): its Der1 solutions on
    # the super object, where Der2 rejects some of them
    po, _ = ls.poisson_algebra(ls.family("h", "Pi", 0, 4).space())
    graded = ls.StructureConstants(po.basis, po.brk, po.sq, meta={**po.meta, "graded": True})
    maps = dv.derivation_space_blocked(graded).all
    assert all(_verdicts(graded, maps, "graded"))
    assert _verdicts(po, maps, "super").count(False) == 4


# -- differential check of the generating-set routes --------------------------
# liesuper.symmetries checks brk only on the rows of a generating set, and
# derived reads its first step off the table.  The references below check
# every row of brk and bracket every pair of basis vectors.  On the natural
# objects every swap that keeps parity is an automorphism, so the twisted
# copies carry the rejections: g in the basis with e_a replaced by e_a + e_b
# for a and b in one cell, an isomorphic object with the same grading and
# meta on which many swaps no longer commute with the bracket.  Each of
# their rejections shows in two or more rows of the generating set, so two
# hand-built objects reject a swap in one generator's row only, the first
# and the last.  The hI(0|6) copy with one square flipped keeps every
# bracket automorphism but loses those that move the square.


def _ref_symmetries(g):
    """The variable swaps of `liesuper.symmetries`, each checked on every
    row of brk and every odd square (unless g is graded only); and the
    number of swaps that permute the cells but fail those checks."""
    space, masks = g.meta["space"], g.meta["masks"]
    par = [v.parity for v in space.variables]
    pairs, diagonals = space.kind.pairs, space.kind.diagonals
    swaps = [{u: v, v: u} for u, v in pairs]
    swaps += [{u1: u2, u2: u1, v1: v2, v2: v1} for (u1, v1), (u2, v2) in itertools.combinations(pairs, 2)
              if (par[u1], par[v1]) == (par[u2], par[v2])]
    swaps += [{w1: w2, w2: w1} for w1, w2 in itertools.combinations(diagonals, 2) if par[w1] == par[w2]]
    index = {m: i for i, m in enumerate(masks)}
    cells = {frozenset(c) for c in g.cells().values()}
    out, rejected = [], 0
    for swap in swaps:
        p = [index.get(sum(1 << swap.get(b, b) for b in range(space.nvars) if m >> b & 1)) for m in masks]
        if None in p or any(g.parity(p[i]) != g.parity(i) for i in range(g.n)):
            continue
        if any(frozenset(p[i] for i in c) not in cells for c in cells):
            continue

        @functools.cache
        def image(v, p=p):
            return sum(1 << p[b] for b in range(g.n) if v >> b & 1)

        if any(g.brk[p[i]][p[j]] != image(g.brk[i][j]) for i in range(g.n) for j in range(g.n)) or (
                not g.graded_only and any(g.sq[p[i]] != image(g.sq[i]) for i in g.odd_indices())):
            rejected += 1
        else:
            out.append(tuple(p))
    return out, rejected


def _pairwise_derived_dims(g, limit=10):
    """The derived series dimensions, every step by the pairwise route
    (the brackets of every pair of rows and the squares of the odd rows)."""
    dims, cur = [g.n], [1 << k for k in range(g.n)]
    for _ in range(limit):
        span = SpanBasis()
        span.extend(itertools.chain((g.bracket_vec(a, b) for a, b in itertools.combinations(cur, 2)),
                                    (g.sq_vec(r) for r in cur if r & g.parity_mask(1))))
        cur = span.rows
        dims.append(len(cur))
        if not cur or dims[-1] == dims[-2]:
            break
    return dims


def _twisted(g, a, b):
    """g in the basis e_a + e_b, e_k (k != a); a and b lie in one cell."""
    def phi(v):  # the basis change, its own inverse
        return v ^ 1 << b if v >> a & 1 else v

    n = g.n
    brk = [[phi(g.bracket_vec(phi(1 << i), phi(1 << j))) for j in range(n)] for i in range(n)]
    sq = [phi(g.sq_vec(phi(1 << i))) if g.parity(i) else 0 for i in range(n)]
    return ls.StructureConstants(g.basis, brk, sq, meta=g.meta)


def _four_even(brackets):
    """A Lie algebra on four even basis vectors at the masks 0-3 of
    hPi(0|2), whose one swap exchanges e1 and e2: [e_i, e_j] =
    brackets[i, j] for i < j, every other bracket 0."""
    brk = [[0] * 4 for _ in range(4)]
    for (i, j), v in brackets.items():
        brk[i][j] = brk[j][i] = v
    basis = [ls.BasisElement(f"e{k}", 0, 0, ()) for k in range(4)]
    meta = {"space": ls.family("h", "Pi", 0, 2).space(), "masks": (0, 1, 2, 3)}
    g = ls.StructureConstants(basis, brk, [0] * 4, meta=meta)
    assert g.verify_axioms().ok
    return g


def _one_row_rejections():
    """Two objects on which the swap of e1 and e2 fails in one row of the
    generating set S only.  In both, ad(e0) commutes with the swap on e1
    and e2: [e0, e1] = e1 + e3, [e0, e2] = e2 + e3.  With [e0, e3] = e1,
    S = (0, 1, 2) and the swap fails at (e0, e3): the first generator.
    With [e1, e2] = e2 and [e1, e3] = e2 + e3 instead, S = (0, 1) and it
    fails at (e1, e2): the last generator."""
    first = _four_even({(0, 1): 0b1010, (0, 2): 0b1100, (0, 3): 0b0010})
    last = _four_even({(0, 1): 0b1010, (0, 2): 0b1100, (1, 2): 0b0100, (1, 3): 0b1100})
    assert (ls.generating_set(first), ls.generating_set(last)) == ([0, 1, 2], [0, 1])
    return [first, last]


@functools.cache
def _generating_route_objects():
    """Every standard family of sizes 4-7 and its po object; twisted copies
    of those of sizes 4-5, one per cell of two or more elements (its first
    two); hI(0|6) with one square flipped; and the two objects of
    `_one_row_rejections`."""
    out = []
    for total in (4, 5, 6, 7):
        for fam in cli.standard_families(total):
            for g, _ in (ls.build_algebra(fam), ls.poisson_algebra(fam.space())):
                out.append(g)
                if total <= 5:
                    out += [_twisted(g, *c[:2]) for c in g.cells().values() if len(c) > 1]
    g, _ = ls.build_algebra(ls.family("h", "I", 0, 6))
    masks = g.meta["masks"]
    g.sq[masks.index(0b010011)] ^= 1 << masks.index(0b110011)
    out.append(g)
    return tuple(out + _one_row_rejections())


def test_symmetries_on_a_generating_set_match_the_full_table():
    objs = _generating_route_objects()
    assert any(g.is_leibniz for g in objs) and any(g.graded_only for g in objs)
    refs = [_ref_symmetries(g) for g in objs]
    for g, (want, _) in zip(objs, refs):
        assert ls.symmetries(g) == ls.symmetries(g, ls.generating_set(g)) == want, g.meta.get("family")
    assert (len(objs), sum(len(w) for w, _ in refs), sum(r for _, r in refs)) == (169, 378, 86)


def test_derived_series_from_the_table_matches_the_pairwise_route():
    for g in _generating_route_objects() + (_square_object()[0],):
        basis = [1 << k for k in range(g.n)]
        assert ls.derived(g, 1).rows == ls.derived(g, 1, start=basis).rows
        assert ls.derived_series_dims(g) == _pairwise_derived_dims(g)


def test_is_derivation_on_a_generating_set_matches_the_reference():
    # the Lie objects of sizes 4-5 above, the two hand-built ones included:
    # the rows of brk (inner derivations) and the maps of the blocked
    # space, each with a one-bit flip, on the generating-set route
    rng = random.Random(29)
    seen = []
    for g in _generating_route_objects():
        if g.is_leibniz or g.n > 32:
            continue
        gens = ls.generating_set(g)
        maps = [dv.LinearMap(tuple(r), 0, (), 0) for r in g.brk] + dv.derivation_space_blocked(g).all
        for D in _with_flips(maps, rng):
            got = dv.is_derivation(g, D, gens)
            assert got == _ref_is_derivation(g, D), (g.meta.get("family"), D.cols)
            seen.append(got)
    # Der2 alone rejects 4 of the Der1 solutions of po hPi(0|4) (see above)
    po, _ = ls.poisson_algebra(ls.family("h", "Pi", 0, 4).space())
    graded = ls.StructureConstants(po.basis, po.brk, po.sq, meta={**po.meta, "graded": True})
    der1 = dv.derivation_space_blocked(graded).all
    assert [dv.is_derivation(po, D, ls.generating_set(po)) for D in der1] == _verdicts(po, der1, "super")
    assert all(seen[::2]) and (len(seen), seen.count(True)) == (5794, 2901)
