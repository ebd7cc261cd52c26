"""Reference checks that no command runs: the recognition predicates,
quotients, restrictedness, super-ranks, non-isomorphism certificates and
the Berezin form on polynomials.

A fingerprint difference certifies non-isomorphism; equality proves
nothing, so `distinguish` returns either evidence or "inconclusive".

The tests check the paper's claims against these (criteria 6 and 9 among
them); `src/char2lie` keeps only what the commands reach, which
`test_src_callers` enforces.  The four former methods of
`StructureConstants` and `BilinearFormTable` are functions of `g` or `B`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations

from char2lie.deriv import LinearMap
from char2lie.gf2core import SpanBasis, bit_indices, flatten_cols, span_dim, transpose, unflatten_cols, xor_rows
from char2lie.invariants import fingerprint
from char2lie.liesuper import (
    EVEN,
    ODD,
    BilinearFormTable,
    StructureConstants,
    Subspace,
    _split_parity,
    ad_preimage,
    center,
    compose_cols,
)
from char2lie.superfunc import Poly, Space, berezin_parity

# ---------------------------------------------------------------------------
# liesuper
# ---------------------------------------------------------------------------


def is_nondegenerate(B: BilinearFormTable) -> bool:
    span = SpanBasis()
    span.extend(B.gram)
    return span.dim == B.n


def orthogonal_complement(B: BilinearFormTable, vectors: list[int]) -> list[int]:
    """Basis of the subspace orthogonal to all given vectors."""
    span = SpanBasis()
    span.extend(B.right(v) for v in vectors)
    return span.kernel(B.n)


def ad_cols(g: StructureConstants, x: int) -> list[int]:
    return [g.bracket_vec(x, 1 << j) for j in range(g.n)]


def element_name(g: StructureConstants, x: int) -> str:
    if x == 0:
        return "0"
    return "+".join(g.basis[i].name for i in bit_indices(x))


def odd_squares_span(g: StructureConstants) -> list[int]:
    """Span of squares of all odd elements: basis squares plus odd-odd
    brackets (polarization)."""
    span = SpanBasis()
    odds = g.odd_indices()
    span.extend(chain((g.sq[i] for i in odds), (g.brk[a][b] for a, b in combinations(odds, 2))))
    return span.rows


def special_center(g: StructureConstants, B: BilinearFormTable) -> Subspace:
    """Center intersected with the orthogonal complement of the span of
    odd squares."""
    z = center(g)
    perp = orthogonal_complement(B, odd_squares_span(g))
    return Subspace(_intersect(z.rows, perp, g.n))


def _intersect(rows_a: list[int], rows_b: list[int], n: int) -> list[int]:
    """Intersection of two spans inside GF(2)^n (Zassenhaus pairing).

    Eliminate rows (a, a) and (b, 0); rows whose pivot falls in the second
    block have zero first block, and their second blocks are the reduced
    echelon basis of A ∩ B.
    """
    span = SpanBasis()
    span.extend(chain((a | (a << n) for a in rows_a), rows_b))
    return [row >> n for piv, row in zip(span.pivots, span.rows) if piv >= n]


def quotient(g: StructureConstants, ideal: Subspace) -> StructureConstants:
    """Quotient by an ideal closed under squaring, on the complement of
    the ideal's pivot coordinates."""
    span = SpanBasis()
    span.extend(ideal.rows)
    rows = span.rows
    for r in rows:
        for j in range(g.n):
            if not span.contains(g.bracket_vec(r, 1 << j)):
                raise ValueError("subspace is not an ideal")
    ev, od = _split_parity(g, rows)
    for r in od:
        if not span.contains(g.sq_vec(r)):
            raise ValueError("ideal is not closed under squaring")
    pivots = set(span.pivots)
    keep = [i for i in range(g.n) if i not in pivots]
    pos = {i: k for k, i in enumerate(keep)}

    def project(vec: int) -> int:
        vec = span.reduce(vec)
        out = 0
        for i in bit_indices(vec):
            out |= 1 << pos[i]
        return out

    n2 = len(keep)
    brk = [[0] * n2 for _ in range(n2)]
    sq = [0] * n2
    for a in range(n2):
        for b in range(a, n2):
            v = project(g.brk[keep[a]][keep[b]])
            brk[a][b] = v
            brk[b][a] = v
    for a in range(n2):
        if g.parity(keep[a]) == ODD:
            sq[a] = project(g.sq[keep[a]])
    basis = [g.basis[i] for i in keep]
    meta = {"quotient_of": g.meta.get("family")}
    if g.graded_only:
        meta["graded"] = True
    return StructureConstants(basis, brk, sq, meta=meta)


class RestrictednessReport:
    def __init__(self, ok: bool, witnesses: dict, failures: list[int]):
        self.ok = ok
        self.witnesses = witnesses
        self.failures = failures


def restrictedness_check(g: StructureConstants) -> RestrictednessReport:
    """For every even basis element x, decide whether (ad_x)^2 is an inner
    derivation ad_y, and record the witness y."""
    evens = g.even_indices()
    squares = [flatten_cols(compose_cols(g.brk[i], g.brk[i]), g.n) for i in evens]
    witnesses = {}
    failures = []
    for i, y in zip(evens, ad_preimage(g, squares)):
        if y is None:
            failures.append(i)
        else:
            witnesses[i] = y
    return RestrictednessReport(not failures, witnesses, failures)


# ---------------------------------------------------------------------------
# doubleext
# ---------------------------------------------------------------------------


class RecognitionReport:
    def __init__(self, rec1: bool, rec2: bool, rec3: bool, rec4: bool, special_center_even: int = 0,
                 center_even: int = 0, center_odd: int = 0, witnesses: dict | None = None):
        self.rec1 = rec1
        self.rec2 = rec2
        self.rec3 = rec3
        self.rec4 = rec4
        self.special_center_even = special_center_even
        self.center_even = center_even
        self.center_odd = center_odd
        self.witnesses = {} if witnesses is None else witnesses


def recognition(g: StructureConstants, B: BilinearFormTable) -> RecognitionReport:
    """Evaluate the hypotheses of the four recognition propositions:
    Rec1 (even special center), Rec2 (odd center meets the cone), Rec3
    (odd form, even center), Rec4 (odd form, central odd squares in the
    squares' orthogonal complement).

    Rec4 cannot hold when B passes `verify_form`: for a central odd x,
    square invariance gives B(s(x), y) = B(x, [x, y]) = 0 for every y, so
    s(x) = 0 by nondegeneracy."""
    if not is_nondegenerate(B):
        raise ValueError("form is degenerate")
    z = center(g)
    ev_mask = g.parity_mask(EVEN)
    ev, od = [], []
    for r in z.rows:
        if r & ev_mask:
            ev.append(r & ev_mask)
        if r & ~ev_mask:
            od.append(r & ~ev_mask)
    sp_e = SpanBasis()
    sp_e.extend(ev)
    sp_o = SpanBasis()
    sp_o.extend(od)
    z_ev, z_od = list(sp_e.rows), list(sp_o.rows)

    zs = special_center(g, B)
    zs_ev = [r for r in zs.rows if not (r & ~ev_mask)]
    rec1 = bool(zs_ev)

    squares = odd_squares_span(g)
    perp_span = SpanBasis()
    perp_span.extend(orthogonal_complement(B, squares))

    # s(x + y) = s(x) + s(y) + [x, y] = s(x) + s(y) on the center, so s is
    # linear there: rec2 asks for a nonzero x in span(z_od) with s(x) in
    # perp_span, i.e. a nonzero kernel of x -> s(x) mod perp_span; rec4
    # asks for s to be nonzero on that kernel
    sq_od = [0 if g.graded_only else g.sq_vec(x) for x in z_od]
    modp = SpanBasis()
    modp.extend(transpose([perp_span.reduce(sx) for sx in sq_od], g.n))
    cone = modp.kernel(len(z_od))
    rec2 = bool(cone)
    wit2 = xor_rows(z_od, cone[0]) if cone else None

    rec3 = bool(B.parity == ODD and z_ev)

    cone_sq = [xor_rows(sq_od, c) for c in cone] if B.parity == ODD else []
    wit4 = next((sx for sx in cone_sq if sx), None)
    rec4 = wit4 is not None

    return RecognitionReport(
        rec1=rec1,
        rec2=rec2,
        rec3=rec3,
        rec4=rec4,
        special_center_even=len(zs_ev),
        center_even=len(z_ev),
        center_odd=len(z_od),
        witnesses={"rec2": wit2, "rec4": wit4},
    )


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class SuperRank(namedtuple("SuperRank", "even_rank odd_rank")):
    __slots__ = ()

    @property
    def total(self) -> int:
        return self.even_rank + self.odd_rank


def super_rank(g: StructureConstants, op) -> SuperRank:
    """Superdimension of the image, split by the parity of the source
    (the superdimension of V/Ker)."""
    if isinstance(op, LinearMap):
        cols = list(op.cols)
    else:
        cols = ad_cols(g, op)
    return SuperRank(
        span_dim(c for j, c in enumerate(cols) if g.parity(j) == EVEN),
        span_dim(c for j, c in enumerate(cols) if g.parity(j) != EVEN),
    )


def ad_rank(g: StructureConstants, x: int) -> int:
    return span_dim(ad_cols(g, x))


def has_odd_ad_rank(g: StructureConstants) -> bool:
    """Whether any element has odd ad-rank, by an exhaustive Gray-code
    walk over all 2^n elements (one xor of flattened ad columns each);
    raises ValueError above n = 16 rather than answer from a sample."""
    if g.n > 16:
        raise ValueError(f"has_odd_ad_rank searches all 2^n elements; n = {g.n} exceeds 16")
    ads = [flatten_cols(row, g.n) for row in g.brk]
    acc = 0
    for step in range(1, 1 << g.n):
        # element step ^ (step >> 1) differs from the previous one in the
        # lowest set bit of step
        acc ^= ads[(step & -step).bit_length() - 1]
        if span_dim(unflatten_cols(acc, g.n)) & 1:
            return True
    return False


class Evidence(namedtuple("Evidence", "component left right")):
    __slots__ = ()

    def __str__(self):
        return f"{self.component} differ: {self.left} vs {self.right}"


def distinguish(g1: StructureConstants, g2: StructureConstants):
    """First differing fingerprint component (a non-isomorphism
    certificate), or the string 'inconclusive'."""
    f1, f2 = fingerprint(g1), fingerprint(g2)
    for name in ("sdim", "derived_dims", "center_dim", "basis_ranks", "pair_ranks"):
        a, b = getattr(f1, name), getattr(f2, name)
        if a != b:
            return Evidence(name, a, b)
    return "inconclusive"


# ---------------------------------------------------------------------------
# superfunc
# ---------------------------------------------------------------------------


class FormValue(namedtuple("FormValue", "value parity")):
    __slots__ = ()


def berezin_form(space: Space, f: Poly, g: Poly) -> FormValue:
    """Coefficient of the product of all indeterminates in f*g."""
    space.check_poly(f)
    space.check_poly(g)
    full = space.full_mask
    val = 0
    for m in f:
        if (full ^ m) in g:
            val ^= 1
    return FormValue(val, berezin_parity(space))
