import pytest

from char2lie import cli
from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import liesuper as ls
from char2lie import pipeline
from char2lie.gf2core import BitMatrix, SpanBasis, unflatten_cols


def outer_shape(space):
    return {key: len(v) for key, v in space.outer_reps.items()}


def test_abelian_two_dim_all_maps():
    basis = [ls.BasisElement(f"e{i}", 0, i, ()) for i in range(2)]
    g = ls.StructureConstants(basis, [[0, 0], [0, 0]], [0, 0])
    ds = dv.derivation_space_naive(g)
    assert ds.dim == 4
    ds2 = dv.derivation_space_blocked(g)
    assert dv.spaces_equal(ds, ds2)


def test_outer_counts_size4(built):
    expected = {
        ("h", "Pi", 0, 4): 7,
        ("h", "I", 0, 4): 6,
        ("h", "II", 2, 2): 6,
        ("h", "PiI", 2, 2): 6,
        ("h", "IPi", 2, 2): 6,
        ("h", "PiPi", 1, 3): 6,
        ("h", "PiPi", 3, 1): 6,
        ("h", "PiPi", 2, 2): 7,
        ("le", "", 0, 0, 2): 7,
    }
    for args, cnt in expected.items():
        fam, g, B = built(*args)
        ds = dv.derivation_space_blocked(g)
        assert ds.dim_outer == cnt, fam.name
        assert ds.dim == ds.dim_inner + ds.dim_outer, fam.name


def test_h_pi_04_inventory(built):
    fam, g, B = built("h", "Pi", 0, 4)
    ds = dv.derivation_space_blocked(g)
    shape = outer_shape(ds)
    assert shape == {
        (-2, (0, 0), 0): 1,
        (0, (2, 0), 0): 1,
        (0, (-2, 0), 0): 1,
        (0, (0, 2), 0): 1,
        (0, (0, -2), 0): 1,
        (0, (0, 0), 0): 1,
        (2, (0, 0), 0): 1,
    }


def test_le22_inventory_db_odd(built):
    fam, g, B = built("le", "", 0, 0, 2)
    ds = dv.derivation_space_blocked(g)
    shape = outer_shape(ds)
    degs = sorted(k[0] for k in shape)
    assert degs == [-2, 0, 0, 0, 0, 0, 2]
    for key in shape:
        if key[0] == 0 and key[1] != (0, 0):
            assert key[2] == 1  # D_b classes are odd for le


def test_inner_subspace_is_contained(built):
    fam, g, B = built("h", "I", 0, 4)
    ds = dv.derivation_space_blocked(g)
    full = SpanBasis()
    full.extend(d.as_vec() for d in ds.all)
    for d in ds.inner:
        assert full.contains(d.as_vec())


def test_naive_equals_blocked_all_size4(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "II", 2, 2),
                 ("h", "PiPi", 1, 3), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        a = dv.derivation_space_naive(g)
        b = dv.derivation_space_blocked(g)
        assert dv.spaces_equal(a, b), fam.name


def test_euler_on_h05_does_not_preserve(built):
    fam, g, B = built("h", "Pi", 0, 5)
    gens = dict(dv.closed_form_generators(g))
    assert not dx.bilinear_invariant(gens["Deuler"], B)


def test_closed_forms_pass_derivation_check(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "Pi", 0, 5), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        for label, D in dv.closed_form_generators(g):
            assert dv.is_derivation(g, D), (fam.name, label)


def test_closed_form_span_equality_size4(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "PiPi", 2, 2),
                 ("h", "II", 2, 2), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        ds = dv.derivation_space_blocked(g)
        span = SpanBasis()
        for d in ds.inner:
            span.add(d.as_vec())
        for label, D in dv.closed_form_generators(g):
            span.add(D.as_vec())
        assert span.dim == ds.dim, fam.name


def test_db_weight_shift(built):
    fam, g, B = built("h", "Pi", 0, 6)
    gens = dict(dv.closed_form_generators(g))
    D = gens["Db[xi1]"]
    assert D.degree == 0 and D.parity == 0
    assert D.weight == (2, 0, 0)


def test_blocked_stats_recorded(built):
    fam, g, B = built("h", "Pi", 0, 4)
    ds = dv.derivation_space_blocked(g)
    assert ds.block_stats["path"] == "blocked"
    assert ds.block_stats["blocks"] > 1
    assert ds.block_stats["max_block"] >= 1
    # rows counts what was emitted for the solved blocks before each one
    # stopped, and their ranks add up to solved_rank; every unknown sits in
    # one block, so the ranks of all blocks, copied ones included, add up
    # to n^2 - dim
    st = ds.block_stats
    assert st["blocks"] > st["solved"] >= 1 and st["blocks"] >= st["settled"]
    assert st["rows"] >= st["solved_rank"]
    assert st["rank"] == g.n * g.n - ds.dim > st["solved_rank"]


def test_dropping_a_generator_is_caught(built, monkeypatch):
    # a set that does not generate g leaves the lemma without its
    # hypothesis; the all-pairs naive oracle must reject at least one such
    # mutant of the blocked solver at hPi(0|5)
    fam, g, B = built("h", "Pi", 0, 5)
    naive = dv.derivation_space_naive(g)
    gens = ls.generating_set(g)
    caught = []
    for s in gens:
        monkeypatch.setattr(dv, "generating_set", lambda h, s=s: [k for k in gens if k != s])
        if not dv.spaces_equal(naive, dv.derivation_space_blocked(g)):
            caught.append(s)
    monkeypatch.undo()
    assert dv.spaces_equal(naive, dv.derivation_space_blocked(g))
    assert caught, gens


def test_der2_fixes_the_squares():
    # odd x, even z, x^2 = z, every bracket 0: Der1 on all pairs leaves Dz
    # free, and Der2 forces Dz = [Dx, x] = 0
    basis = [ls.BasisElement("x", 1, 1, ()), ls.BasisElement("z", 0, 2, ())]
    g = ls.StructureConstants(basis, [[0, 0], [0, 0]], [0b10, 0])
    assert g.verify_axioms().ok and not g.graded_only
    naive = dv.derivation_space_naive(g)
    assert dv.spaces_equal(dv.derivation_space_blocked(g), naive)
    n = g.n
    bit = [[1 << (s * n + t) for t in range(n)] for s in range(n)]
    der1 = SpanBasis()
    der1.extend(row for i, j, _, row in dv._equations(g, bit) if i != j)
    assert n * n - der1.dim > naive.dim


def test_blocked_solver_refuses_leibniz():
    po, _ = ls.poisson_algebra(ls.family("h", "I", 0, 4).space())
    assert po.is_leibniz
    with pytest.raises(ValueError, match="Leibniz"):
        dv.derivation_space_blocked(po)


def _ungraded_table():
    # degrees 0, 1, 2 and [e0, e1] = e1 + e2: a Lie algebra whose bracket
    # leaves the cell of degree 0 + 1
    basis = [ls.BasisElement(f"e{i}", 0, i, ()) for i in range(3)]
    g = ls.StructureConstants(basis, [[0, 0b110, 0], [0b110, 0, 0], [0, 0, 0]], [0] * 3, meta={"graded": True})
    assert g.verify_axioms().ok
    return g


def test_naive_solver_refuses_an_ungraded_table():
    # the kernel holds vectors that mix shifts; split into their shifts,
    # they are maps that fail is_derivation
    with pytest.raises(ValueError, match="homogeneous"):
        dv.derivation_space_naive(_ungraded_table())


def test_blocked_solver_refuses_an_ungraded_table():
    with pytest.raises(ValueError, match="graded table"):
        dv.derivation_space_blocked(_ungraded_table())
    # the square of an odd x of degree 1 outside the even cell of degree 2
    basis = [ls.BasisElement("x", 1, 1, ()), ls.BasisElement("z", 0, 3, ())]
    g = ls.StructureConstants(basis, [[0, 0], [0, 0]], [0b10, 0])
    with pytest.raises(ValueError, match="graded table"):
        dv.derivation_space_blocked(g)
    g.meta["graded"] = True  # a graded-only object has no squares: all 4 maps
    assert dv.derivation_space_blocked(g).dim == 4


def test_inner_is_a_basis_when_the_center_is_not_zero():
    # all even, degree 0, [e0, e2] = [e1, e2] = e2: ad(e0) = ad(e1), and
    # the center is spanned by e0 + e1
    basis = [ls.BasisElement(f"e{i}", 0, 0, ()) for i in range(3)]
    g = ls.StructureConstants(basis, [[0, 0, 0b100], [0, 0, 0b100], [0b100, 0b100, 0]], [0] * 3)
    assert g.verify_axioms().ok
    for solve in (dv.derivation_space_naive, dv.derivation_space_blocked):
        ds = solve(g)
        assert (ds.dim, ds.dim_inner, ds.dim_outer) == (4, 2, 2), solve.__name__
        assert [d.cols for d in ds.inner] == [(0, 0, 0b100), (0b100, 0b100, 0)]  # ad(e0), ad(e2)


def test_naive_solver_maps_are_derivations_on_leibniz_objects():
    # the naive equations and is_derivation read the same table, Leibniz
    # diagonal included, so every map the solver returns passes the check
    seen = {}
    for total in (4, 5):
        for fam in cli.standard_families(total):
            po, _ = ls.poisson_algebra(fam.space())
            if not po.is_leibniz:
                continue
            maps = dv.derivation_space_naive(po).all
            assert all(dv.is_derivation(po, D) for D in maps), fam.name
            seen[fam.name] = len(maps)
    assert len(seen) == 13 and seen["hI(1)(0|4)"] == 16


def _distinct_row_space(g):
    """The maps, as (shift, cols) in order, of eliminating the set of the
    distinct naive equation rows, and the number of rows emitted."""
    n = g.n
    bit = [[1 << (s * n + t) for t in range(n)] for s in range(n)]
    rows = [row for _, _, _, row in dv._equations(g, bit)]
    span = SpanBasis()
    span.extend(set(rows))
    maps = [dv.linear_map_from_cols(g, unflatten_cols(v, n)) for v in span.kernel(n * n)]
    return [(d.shift, d.cols) for d in dv._finish(g, maps, {}).all], len(rows)


def test_streamed_naive_oracle_equals_the_distinct_row_elimination(monkeypatch):
    # the naive solver streams every emitted row, repeats included, into
    # one elimination; a span has one reduced echelon form, so its maps
    # and their order are those of the distinct rows. Every standard
    # family of sizes 4 to 6 and the 13 Leibniz po objects of sizes 4-5.
    mats = []
    make = BitMatrix.from_int_rows.__func__

    def recording(cls, rows, cols):
        mats.append(make(cls, rows, cols))
        return mats[-1]

    monkeypatch.setattr(BitMatrix, "from_int_rows", classmethod(recording))
    objects = []
    for total in (4, 5, 6):
        for fam in cli.standard_families(total):
            objects.append((fam.name, ls.build_algebra(fam)[0]))
            po, _ = ls.poisson_algebra(fam.space())
            if total < 6 and po.is_leibniz:
                objects.append(("po " + fam.name, po))
    assert len(objects) == 33 + 13
    emitted = {}
    for name, g in objects:
        got = [(d.shift, d.cols) for d in dv.derivation_space_naive(g).all]
        want, emitted[name] = _distinct_row_space(g)
        assert got == want, name
        assert mats[-1].rows == emitted[name], name
    assert emitted["hPi(1)(0|6)"] == 78808


def test_cells_partition(built):
    fam, g, B = built("h", "Pi", 0, 4)
    cells = g.cells()
    assert sorted(i for v in cells.values() for i in v) == list(range(g.n))
    for i in range(g.n):
        assert i in cells[g.cell_key(i)]


def test_outer_count_0_6_includes_extra_class(built):
    # the generic closed-form lists give 8 classes (six b d/dS(b), one
    # weight-zero, one top); the solver finds a ninth of degree -2, a
    # completeness finding reported by the derivations command
    fam, g, B = built("h", "Pi", 0, 6)
    ds = dv.derivation_space_blocked(g)
    assert ds.dim_outer == 9
    extra = ds.outer_reps[(-2, (0, 0, 0), 0)]
    assert len(extra) == 1
    assert dv.is_derivation(g, extra[0])
    assert not ls.inner_span(g).contains(extra[0].as_vec())


def _maps(space):
    return ([(d.shift, d.cols) for d in space.all], [d.cols for d in space.inner],
            sorted((k, [d.cols for d in v]) for k, v in space.outer_reps.items()))


def test_symmetric_solve_equals_the_solve_of_every_block(monkeypatch):
    # the 41 standard families of sizes 4 to 7: copying each solved block's
    # kernel along the symmetries gives the maps, in order, of solving
    # every block
    solved = {}
    for total in (4, 5, 6, 7):
        for fam in cli.standard_families(total):
            g, _ = ls.build_algebra(fam)
            sym = dv.derivation_space_blocked(g)
            monkeypatch.setattr(dv, "symmetries", lambda h, gens: [])
            full = dv.derivation_space_blocked(g)
            monkeypatch.undo()
            assert _maps(sym) == _maps(full), fam.name
            assert full.block_stats["solved"] == full.block_stats["blocks"]
            assert sym.block_stats["rank"] == full.block_stats["rank"] == g.n * g.n - full.dim
            solved[fam.name] = sym.block_stats["solved"]
    assert len(solved) == 41 and solved["hPi(1)(0|7)"] == 84


def _flipped_square():
    # a square that breaks some symmetries (see test_liesuper)
    g, _ = ls.build_algebra(ls.family("h", "I", 0, 6))
    masks = g.meta["masks"]
    g.sq[masks.index(0b010011)] ^= 1 << masks.index(0b110011)
    return g


def test_flipped_square_keeps_blocked_equal_to_naive():
    # the solver must not copy kernels along the broken symmetries, since
    # Der2 reads the squares, and some ad(e_k) fail Der2 here, so they must
    # not count towards the rank at which a block stops
    g = _flipped_square()
    assert len(ls.symmetries(g)) == 2
    assert not all(dv._ad_squaring_holds(g, []))
    assert dv.spaces_equal(dv.derivation_space_naive(g), dv.derivation_space_blocked(g))


def test_stopping_at_the_inner_rank_leaves_every_space_unchanged(monkeypatch):
    # a block stops once its rank leaves only the span of its ad(e_k) that
    # are derivations; with no bound every solved block is eliminated to
    # the end, and all, inner and outer_reps must read the same, in order.
    # The 41 standard families of sizes 4 to 7; the 35 Lie double
    # extensions of sizes 4 and 5, each with a center, so that the rank of
    # the ad(e_k) of a cell falls short of its size; the flipped square,
    # where some ad(e_k) fail Der2; and an object with nonzero odd squares
    from tests.test_properties import _square_object

    objects = [(f.name, ls.build_algebra(f)[0]) for total in (4, 5, 6, 7) for f in cli.standard_families(total)]
    for total in (4, 5):
        for fam in cli.standard_families(total):
            for row in pipeline.dex_family(fam)[1]:
                objects += [(name, ext.alg) for name, ext, _ in row.built if not ext.alg.is_leibniz]
    objects += [("flipped square", _flipped_square()), ("odd squares", _square_object()[0])]
    assert len(objects) == 41 + 35 + 2
    assert all(ls.center(g).dim for _, g in objects[41:76])
    settled = 0
    for name, g in objects:
        bounded = dv.derivation_space_blocked(g)
        monkeypatch.setattr(dv, "_saturation_rank", lambda size, known: size + 1)
        full = dv.derivation_space_blocked(g)
        monkeypatch.undo()
        assert _maps(bounded) == _maps(full), name
        assert full.block_stats["settled"] == 0 and full.block_stats["rank"] == bounded.block_stats["rank"], name
        assert bounded.block_stats["rows"] <= full.block_stats["rows"], name
        settled += bounded.block_stats["settled"]
    assert settled
