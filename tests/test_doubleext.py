import functools
import random

import pytest

from char2lie import cli
from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import liesuper as ls
from char2lie.gf2core import SpanBasis


def gens_of(built, *args):
    fam, g, B = built(*args)
    return fam, g, B, dict(dv.closed_form_generators(g))


def test_find_q_zero_map(built):
    fam, g, B = built("h", "Pi", 0, 4)
    zero = dv.LinearMap((0,) * g.n, 0, (0, 0), 0)
    q = dx.find_q(g, B, zero)
    assert q == tuple(0 for _ in g.odd_indices())


def test_find_q_top_and_euler(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    assert dx.find_q(g, B, gens["Dtop"]) is not None
    fam6, g6, B6, gens6 = gens_of(built, "h", "Pi", 0, 6)
    # the Euler-type class of h_Pi(0|6) fails bilinear invariance, so no
    # extension data exists at all (the table's "no" row)
    assert not dx.bilinear_invariant(gens6["D0even+"], B6)
    assert dx.prepare(g6, B6, gens6["D0even+"]) is None


def test_find_A_examples(built):
    fam, g, B, gens = gens_of(built, "le", "", 0, 0, 2)
    Db = gens["Db[q1]"]
    assert Db.parity == 1
    assert dx.find_A(g, Db) == 0  # D^2 = 0 on a centerless algebra
    # D = ad_x for odd x has A = x^2
    odd = g.odd_indices()
    x = odd[0]
    adx = dv.linear_map_from_cols(g, g.ad_cols(1 << x))
    A = dx.find_A(g, adx)
    assert A is not None
    assert g.sq_vec(A) is not None  # A is a valid vector
    assert g.ad_cols(A) == ls.compose_cols(adx.cols, adx.cols)


def test_find_A_h_0_5_top(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 5)
    assert dx.find_A(g, gens["Dtop"]) == 0


def test_build_po_identification(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    data = dx.prepare(g, B, gens["Dtop"])
    ext = dx.build(g, B, data)
    assert ext.n == 16
    assert ext.alg.verify_axioms().ok
    assert ext.alg.verify_form(ext.form).ok
    z = ls.center(ext.alg)
    assert z.dim == 1 and z.rows[0] == 1  # c is the center
    po, _ = ls.poisson_algebra(fam.space())
    assert dx.identify_canonical(ext, po) is not None


def test_build_le_top_is_buttin(built):
    fam, g, B, gens = gens_of(built, "le", "", 0, 0, 2)
    D = gens["Dtop"]
    data = dx.prepare(g, B, D)
    ext = dx.build(g, B, data)
    bb, _ = ls.poisson_algebra(fam.space())
    assert dx.identify_canonical(ext, bb) is not None


def test_twisted_extension_no_witness(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    D = gens["Db[xi1]"]
    ext = dx.build(g, B, dx.prepare(g, B, D))
    po, _ = ls.poisson_algebra(fam.space())
    assert dx.identify_canonical(ext, po) is None


def test_case_table_and_parity_guard(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    D = gens["Dtop"]
    assert dx.case_of(B, D) == "Dev_Beven"


def test_m_family_h05(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 5)
    D = gens["Dtop"]
    assert dx.case_of(B, D) == "Dodd_Bodd"
    e0 = dx.build(g, B, dx.prepare(g, B, D, m=0))
    e1 = dx.build(g, B, dx.prepare(g, B, D, m=1))
    assert e0.alg.brk == e1.alg.brk
    didx = e0.alg.n - 1
    diff = [i for i in range(e0.alg.n) if e0.alg.sq[i] != e1.alg.sq[i]]
    assert diff == [didx]
    assert e1.alg.sq[didx] ^ e0.alg.sq[didx] == 1  # s(D) differs by c
    assert e0.alg.verify_axioms().ok and e1.alg.verify_axioms().ok


def test_bdd_parameter(built):
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    D = gens["Dtop"]
    data = dx.prepare(g, B, D, BDD=1)
    ext = dx.build(g, B, data)
    assert ext.form.pairing(1 << (ext.n - 1), 1 << (ext.n - 1)) == 1
    assert ext.alg.verify_form(ext.form).ok
    # BDD forbidden when D is odd
    fam5, g5, B5, gens5 = gens_of(built, "h", "Pi", 0, 5)
    with pytest.raises(ValueError):
        dx.build(g5, B5, dx.prepare(g5, B5, gens5["Dtop"], BDD=1))


def test_every_extension_dim_and_central(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("le", "", 0, 0, 2)]:
        fam, g, B, gens = gens_of(built, *args)
        for label, D in gens.items():
            data = dx.prepare(g, B, D)
            if data is None:
                continue
            ext = dx.build(g, B, data)
            assert ext.n == g.n + 2, (fam.name, label)
            assert ext.alg.parity(0) == (B.parity ^ D.parity), (fam.name, label)
            # c is central and orthogonal to the commutant
            assert all(ext.alg.bracket_vec(1, 1 << j) == 0 for j in range(ext.n))
            assert ext.alg.verify_axioms().ok, (fam.name, label)
            assert ext.alg.verify_form(ext.form).ok, (fam.name, label)


def test_recognition_reports(built):
    fam, g, B = built("h", "Pi", 0, 4)
    rep = dx.recognition(g, B)
    assert not (rep.rec1 or rep.rec2 or rep.rec3 or rep.rec4)
    po, Bpo = ls.poisson_algebra(fam.space())
    rep2 = dx.recognition(po, Bpo)
    assert rep2.rec1  # even central 1 orthogonal to squares
    lef, gle, Ble = built("le", "", 0, 0, 2)
    bb, Bbb = ls.poisson_algebra(lef.space())
    rep3 = dx.recognition(bb, Bbb)
    assert rep3.rec2  # odd central unit lies in the cone
    with pytest.raises(ValueError):
        dx.recognition(g, ls.BilinearFormTable(tuple(0 for _ in range(g.n)), 0))


def test_recognition_on_built_extensions(built):
    # an even-derivation extension exposes its center through the even
    # special center (the first recognition route)
    fam, g, B, gens = gens_of(built, "h", "Pi", 0, 4)
    for label, zdim in (("Dtop", 1), ("Db[xi1]", 1), ("Deuler", 2)):
        D = gens[label]
        ext = dx.build(g, B, dx.prepare(g, B, D))
        rep = dx.recognition(ext.alg, ext.form)
        assert rep.rec1, label
        # the Euler-type extension (the gl-type algebra) picks up a second
        # central element in characteristic 2
        assert rep.center_even == zdim and rep.center_odd == 0, label
    # an odd-derivation extension of le(2|2) has an odd center meeting
    # the cone (the second route)
    lef, gle, Ble, lgens = gens_of(built, "le", "", 0, 0, 2)
    D = lgens["Db[q1]"]
    ext = dx.build(gle, Ble, dx.prepare(gle, Ble, D))
    rep = dx.recognition(ext.alg, ext.form)
    assert rep.center_odd == 1 and rep.rec2


def _ref_cone(g, B):
    """Reference for rec2/rec4: enumerate every nonzero x of span(z_od) as a
    subset of its echelon basis.  Returns the x with s(x) in the orthogonal
    complement of the squares, and the nonzero such s(x)."""
    ev_mask = g.parity_mask(ls.EVEN)
    od = SpanBasis()
    od.extend(r & ~ev_mask for r in ls.center(g).rows)
    perp = SpanBasis()
    perp.extend(B.orthogonal_complement(ls.odd_squares_span(g)))
    cone, squares = [], []
    for mask in range(1, 1 << od.dim):
        x = 0
        for k in range(od.dim):
            if (mask >> k) & 1:
                x ^= od.rows[k]
        sx = 0 if g.graded_only else g.sq_vec(x)
        if perp.contains(sx):
            cone.append(x)
            if sx:
                squares.append(sx)
    return cone, squares


def _abelian_objects(count: int, seed: int):
    """Abelian superalgebras with random squarings and random nondegenerate
    forms of either parity.  On an algebra with a nis form every central
    odd square is 0 (B(s(x), y) = B(x, [x, y]) = 0 for all y), so only
    these forms, which are not invariant, reach a nonzero s mod perp_span
    and a positive rec4."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 6)
        parities = [rng.randint(0, 1) for _ in range(n)]
        even = sum(1 << i for i, p in enumerate(parities) if p == ls.EVEN)
        basis = [ls.BasisElement(f"e{i}", p, 0, ()) for i, p in enumerate(parities)]
        sq = [rng.getrandbits(n) & even if p == ls.ODD else 0 for p in parities]
        gram = [rng.getrandbits(n) for _ in range(n)]
        while not ls.BilinearFormTable(tuple(gram), 0).is_nondegenerate():
            gram = [rng.getrandbits(n) for _ in range(n)]
        g = ls.StructureConstants(basis, [[0] * n for _ in range(n)], sq)
        yield f"abelian #{k}", g, ls.BilinearFormTable(tuple(gram), rng.randint(0, 1))


@functools.cache
def _standard_objects():
    """The standard families of sizes 4-6 and their Poisson algebras, as
    (name, algebra, form)."""
    objects = []
    for total in (4, 5, 6):
        for fam in cli.standard_families(total):
            objects.append((fam.name,) + ls.build_algebra(fam))
            objects.append((f"po {fam.name}",) + ls.poisson_algebra(fam.space()))
    return tuple(objects)


def test_recognition_matches_subset_enumeration(built):
    objects = list(_standard_objects())
    lef, gle, Ble, lgens = gens_of(built, "le", "", 0, 0, 2)
    D = lgens["Db[q1]"]
    ext = dx.build(gle, Ble, dx.prepare(gle, Ble, D))
    objects.append(("le(2|2) Db[q1]", ext.alg, ext.form))
    objects.extend(_abelian_objects(60, seed=3))
    verdicts = set()
    for name, g, B in objects:
        rep = dx.recognition(g, B)
        cone, squares = _ref_cone(g, B)
        assert rep.rec2 == bool(cone), name
        if cone:
            assert rep.witnesses["rec2"] in cone, name
        else:
            assert rep.witnesses["rec2"] is None, name
        assert rep.rec4 == (B.parity == ls.ODD and bool(squares)), name
        if rep.rec4:
            assert rep.witnesses["rec4"] in squares, name
        else:
            assert rep.witnesses["rec4"] is None, name
        verdicts.add((rep.rec2, rep.rec4, bool(squares)))
    # both verdicts of each route occur, and cones holding nonzero squares
    assert {(False, False, False), (True, False, False), (True, True, True)} <= verdicts
    assert any(rec2 and not rec4 and nonzero for rec2, rec4, nonzero in verdicts)


def test_rec4_never_holds_on_an_invariant_form():
    # for central odd x, square invariance gives B(s(x), y) = B(x, [x, y])
    # = 0 for every y, so s(x) = 0 and the rec4 cone holds no nonzero square
    objects = list(_standard_objects())
    for total in (4, 5):
        for fam in cli.standard_families(total):
            g, B = ls.build_algebra(fam)
            for label, D in dv.closed_form_generators(g):
                data = dx.prepare(g, B, D)
                if data is not None:
                    ext = dx.build(g, B, data)
                    objects.append((f"{fam.name} {label}", ext.alg, ext.form))
    assert len(objects) == 161
    for name, g, B in objects:
        assert g.verify_form(B).ok, name
        assert not dx.recognition(g, B).rec4, name


def test_leibniz_extension_rows(built):
    # theta-containing top extensions carry the Leibniz diagonal and are
    # verified against the left Leibniz identity
    fam, g, B, gens = gens_of(built, "h", "I", 0, 4)
    D = gens["Dtop"]
    ext = dx.build(g, B, dx.prepare(g, B, D))
    assert ext.alg.is_leibniz
    assert ext.provenance["leibniz_diagonal"]
    assert ext.alg.verify_axioms().ok
    assert ext.alg.verify_form(ext.form).ok
    poi, _ = ls.poisson_algebra(fam.space())
    assert poi.is_leibniz
    assert dx.identify_canonical(ext, poi) is not None
