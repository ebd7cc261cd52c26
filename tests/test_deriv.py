import pytest

from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import liesuper as ls
from char2lie.gf2core import SpanBasis


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
    full = ds.full_span()
    for d in ds.inner:
        assert full.contains(d.as_vec())


def test_naive_equals_blocked_all_size4(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "II", 2, 2),
                 ("h", "PiPi", 1, 3), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        a = dv.derivation_space_naive(g)
        b = dv.derivation_space_blocked(g)
        assert dv.spaces_equal(a, b), fam.name


def test_preserves_nis_basics(built):
    fam, g, B = built("h", "Pi", 0, 4)
    zero = dv.LinearMap((0,) * g.n, 0, (0, 0), 0)
    assert dv.preserves_nis(zero, B, g)
    gens = dict(dv.closed_form_generators(fam, g))
    assert dv.preserves_nis(gens["Dtop"], B, g)
    # inner derivations preserve the invariant form
    for k in range(g.n):
        cols = g.ad_cols(1 << k)
        if any(cols):
            D = dv.linear_map_from_cols(g, cols)
            assert dv.preserves_nis(D, B, g), k


def test_euler_on_h05_does_not_preserve(built):
    fam, g, B = built("h", "Pi", 0, 5)
    gens = dict(dv.closed_form_generators(fam, g))
    assert not dv.preserves_nis(gens["Deuler"], B, g)
    assert not dx.bilinear_invariant(gens["Deuler"], B)


def test_closed_forms_pass_derivation_check(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "Pi", 0, 5), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        for label, D in dv.closed_form_generators(fam, g):
            assert dv.is_derivation(g, D), (fam.name, label)


def test_closed_form_span_equality_size4(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("h", "PiPi", 2, 2),
                 ("h", "II", 2, 2), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        ds = dv.derivation_space_blocked(g)
        span = SpanBasis()
        for d in ds.inner:
            span.add(d.as_vec())
        for label, D in dv.closed_form_generators(fam, g):
            span.add(D.as_vec())
        assert span.dim == ds.dim, fam.name


def test_db_weight_shift(built):
    fam, g, B = built("h", "Pi", 0, 6)
    gens = dict(dv.closed_form_generators(fam, g))
    D = gens["Db[xi1]"]
    assert D.degree == 0 and D.parity == 0
    assert D.weight == (2, 0, 0)


def test_cohomology_equal(built):
    fam, g, B = built("h", "Pi", 0, 6)
    gens = dict(dv.closed_form_generators(fam, g))
    D1 = gens["Db[xi1]"]
    assert dv.cohomology_equal(D1, D1, g)
    inner = dv.linear_map_from_cols(g, g.ad_cols(1 << 3))
    if (inner.degree, inner.weight, inner.parity) == (D1.degree, D1.weight, D1.parity):
        assert dv.cohomology_equal(D1, D1 ^ inner, g)
    # different D_b classes are not cohomologous
    D2 = gens["Db[xi2]"]
    with pytest.raises(ValueError):
        dv.cohomology_equal(D1, D2, g)  # different weight shifts
    # same-shift inner correction
    x = None
    for k in range(g.n):
        key = g.cell_key(k)
        if (key[0], key[1], key[2]) == (D1.degree, D1.weight, D1.parity):
            x = k
            break
    if x is not None:
        corr = dv.linear_map_from_cols(g, g.ad_cols(1 << x))
        assert dv.cohomology_equal(D1, D1 ^ corr, g)


def test_blocked_stats_recorded(built):
    fam, g, B = built("h", "Pi", 0, 4)
    ds = dv.derivation_space_blocked(g)
    assert ds.block_stats["path"] == "blocked"
    assert ds.block_stats["blocks"] > 1
    assert ds.block_stats["max_block"] >= 1


def test_graded_blocks_partition(built):
    fam, g, B = built("h", "Pi", 0, 4)
    blocks = dv.GradedBlocks.of(g)
    assert sum(len(v) for v in blocks.cells.values()) == g.n
    assert blocks.max_cell >= 1
    for i in range(g.n):
        assert i in blocks.cells[blocks.cell_of[i]]


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
    inner = ds.inner_span()
    assert not inner.contains(extra[0].as_vec())
