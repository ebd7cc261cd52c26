"""Finite-dimensional characteristic-2 Lie superalgebras as exact
structure-constant tables over GF(2).

A vector is an int bitmask over the basis.  The bracket table stores, for
each basis pair, the result as a mask; the squaring table stores the
square of each odd basis element.  Squares of general elements follow by
polarization: s(x) = sum s(e_i) + sum_{i<j} [e_i, e_j] over the support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import superfunc as sf
from .gf2core import BitMatrix, SpanBasis, bit_indices, flatten_cols

EVEN, ODD = 0, 1


@dataclass(frozen=True)
class BasisElement:
    name: str
    parity: int
    degree: int
    weight: tuple[int, ...]


@dataclass(frozen=True)
class BilinearFormTable:
    """Gram matrix over GF(2), rows as int masks."""

    gram: tuple[int, ...]
    parity: int

    @property
    def n(self) -> int:
        return len(self.gram)

    def pairing(self, x: int, y: int) -> int:
        v = 0
        for i in bit_indices(x):
            v ^= (self.gram[i] & y).bit_count() & 1
        return v

    def is_nondegenerate(self) -> bool:
        m = BitMatrix.from_int_rows(list(self.gram), self.n)
        return m.rank() == self.n

    def orthogonal_complement(self, vectors: list[int]) -> list[int]:
        """Basis of the subspace orthogonal to all given vectors."""
        rows = []
        for v in vectors:
            row = 0
            for i in range(self.n):
                if self.pairing(1 << i, v):
                    row |= 1 << i
            rows.append(row)
        m = BitMatrix.from_int_rows(rows, self.n)
        return [b.bits for b in m.nullspace_basis()]


@dataclass
class Subspace:
    ambient: "StructureConstants"
    rows: list[int]

    @property
    def dim(self) -> int:
        return len(self.rows)


@dataclass
class AxiomReport:
    ok: bool
    failures: list[tuple] = field(default_factory=list)

    def __str__(self):
        if self.ok:
            return "axioms: pass"
        head = ", ".join(repr(f) for f in self.failures[:3])
        return f"axioms: FAIL ({len(self.failures)} violations; first: {head})"


class StructureConstants:
    """Bracket and squaring tables on an ordered graded basis.

    When meta["graded"] is true the object is a Z/2-graded Lie algebra
    (a desuperization): the bracket is the whole structure, the squaring
    table is absent and the squaring axioms do not apply.
    """

    def __init__(self, basis, brk, sq, meta=None):
        self.basis = tuple(basis)
        self.brk = [list(row) for row in brk]
        self.sq = list(sq)
        self.meta = dict(meta or {})
        n = len(self.basis)
        if len(self.brk) != n or any(len(r) != n for r in self.brk):
            raise ValueError("bracket table shape mismatch")
        if len(self.sq) != n:
            raise ValueError("squaring table shape mismatch")

    @property
    def graded_only(self) -> bool:
        return bool(self.meta.get("graded"))

    @property
    def diag(self) -> list[int]:
        """Leibniz diagonal [e_i, e_i]; all zero for Lie objects."""
        d = self.meta.get("diag")
        return list(d) if d is not None else [0] * self.n

    @property
    def is_leibniz(self) -> bool:
        return any(self.meta.get("diag") or ())

    @property
    def n(self) -> int:
        return len(self.basis)

    def parity(self, i: int) -> int:
        return self.basis[i].parity

    def odd_indices(self) -> list[int]:
        return [i for i in range(self.n) if self.parity(i) == ODD]

    def even_indices(self) -> list[int]:
        return [i for i in range(self.n) if self.parity(i) == EVEN]

    def parity_mask(self, parity: int) -> int:
        m = 0
        for i in range(self.n):
            if self.parity(i) == parity:
                m |= 1 << i
        return m

    def cell_key(self, i: int) -> tuple:
        b = self.basis[i]
        return (b.degree, b.weight, b.parity)

    def cells(self) -> dict:
        out: dict[tuple, list[int]] = {}
        for i in range(self.n):
            out.setdefault(self.cell_key(i), []).append(i)
        return out

    # -- algebra operations on int-mask vectors --

    def bracket_vec(self, x: int, y: int) -> int:
        out = 0
        dg = self.meta.get("diag")
        for i in bit_indices(x):
            row = self.brk[i]
            for j in bit_indices(y):
                out ^= dg[i] if (dg and i == j) else row[j]
        return out

    def sq_vec(self, x: int) -> int:
        """Square of an odd element given by support mask x."""
        idx = bit_indices(x)
        out = 0
        for k, i in enumerate(idx):
            out ^= self.sq[i]
            for j in idx[k + 1 :]:
                out ^= self.brk[i][j]
        return out

    def ad_cols(self, x: int) -> list[int]:
        return [self.bracket_vec(x, 1 << j) for j in range(self.n)]

    def element_name(self, x: int) -> str:
        if x == 0:
            return "0"
        return "+".join(self.basis[i].name for i in bit_indices(x))

    # -- verification --

    def verify_axioms(self, max_failures: int = 10) -> AxiomReport:
        """Anticommutativity, parity additivity, Jacobi over all basis
        triples, and (unless graded-only) the squaring identity
        [s(f), g] = [f, [f, g]].

        Objects with a nonzero Leibniz diagonal (the po_I phenomenon:
        {w,w} = 1 for diagonal indeterminates) are instead checked against
        the left Leibniz identity; anticommutativity fails for them by
        construction and is not an axiom there.
        """
        if self.is_leibniz:
            return self._verify_leibniz(max_failures)
        fails: list[tuple] = []
        n = self.n
        pmask = [self.parity_mask(EVEN), self.parity_mask(ODD)]

        def bad_parity(target_mask: int, want: int) -> bool:
            return bool(target_mask & pmask[want ^ 1])

        for i in range(n):
            if self.brk[i][i]:
                fails.append(("diagonal", i))
            for j in range(i, n):
                if self.brk[i][j] != self.brk[j][i]:
                    fails.append(("symmetry", i, j))
                if bad_parity(self.brk[i][j], self.parity(i) ^ self.parity(j)):
                    fails.append(("bracket-parity", i, j))
            if not self.graded_only and self.parity(i) == ODD and bad_parity(self.sq[i], EVEN):
                fails.append(("squaring-parity", i))
            if len(fails) >= max_failures:
                return AxiomReport(False, fails)

        for i in range(n):
            for j in range(i + 1, n):
                bij = self.brk[i][j]
                for k in range(j + 1, n):
                    acc = 0
                    for m in bit_indices(bij):
                        acc ^= self.brk[m][k]
                    for m in bit_indices(self.brk[j][k]):
                        acc ^= self.brk[m][i]
                    for m in bit_indices(self.brk[k][i]):
                        acc ^= self.brk[m][j]
                    if acc:
                        fails.append(("jacobi", i, j, k))
                        if len(fails) >= max_failures:
                            return AxiomReport(False, fails)

        if not self.graded_only:
            for i, j in self._squaring_failures():
                fails.append(("squaring-jacobi", i, j))
                if len(fails) >= max_failures:
                    return AxiomReport(False, fails)

        return AxiomReport(not fails, fails)

    def _verify_leibniz(self, max_failures: int = 10) -> AxiomReport:
        """Left Leibniz identity [x,[y,z]] = [[x,y],z] + [y,[x,z]] over
        all basis triples (diagonal included), plus table symmetry."""
        fails: list[tuple] = []
        n = self.n
        dg = self.diag

        def tbl(i, j):
            return dg[i] if i == j else self.brk[i][j]

        for i in range(n):
            for j in range(i + 1, n):
                if self.brk[i][j] != self.brk[j][i]:
                    fails.append(("symmetry", i, j))
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    lhs = 0
                    for m in bit_indices(tbl(y, z)):
                        lhs ^= tbl(x, m)
                    rhs = 0
                    for m in bit_indices(tbl(x, y)):
                        rhs ^= tbl(m, z)
                    for m in bit_indices(tbl(x, z)):
                        rhs ^= tbl(y, m)
                    if lhs != rhs:
                        fails.append(("leibniz", x, y, z))
                        if len(fails) >= max_failures:
                            return AxiomReport(False, fails)
        return AxiomReport(not fails, fails)

    def _squaring_failures(self):
        """Pairs (i, j), odd i first, where [s(e_i), e_j] != [e_i, [e_i, e_j]]."""
        for i in self.odd_indices():
            si = self.sq[i]
            for j in range(self.n):
                lhs = 0
                for m in bit_indices(si):
                    lhs ^= self.brk[m][j]
                rhs = 0
                for m in bit_indices(self.brk[i][j]):
                    rhs ^= self.brk[i][m]
                if lhs != rhs:
                    yield i, j

    def jis_holds(self) -> bool:
        """Whether the squaring identity holds over all basis pairs (the
        test that separates honest superalgebras from desuperizations)."""
        return next(self._squaring_failures(), None) is None

    def verify_form(self, B: BilinearFormTable, max_failures: int = 10) -> AxiomReport:
        """Symmetry, invariance B([f,h],g)=B(f,[h,g]), the odd-diagonal
        conditions, and (unless graded-only) B(f^2, g) = B(f, [f,g])."""
        fails: list[tuple] = []
        n = self.n
        for i in range(n):
            if B.pairing(1 << i, 1 << i) and self.parity(i) == ODD and not self.graded_only:
                fails.append(("form-odd-diagonal", i))
            for j in range(i, n):
                if B.pairing(1 << i, 1 << j) != B.pairing(1 << j, 1 << i):
                    fails.append(("form-symmetry", i, j))
                if B.pairing(1 << i, 1 << j) and (self.parity(i) ^ self.parity(j)) != B.parity:
                    fails.append(("form-parity", i, j))
        dg = self.diag

        def tbl(i, j):
            return dg[i] if i == j else self.brk[i][j]

        for h in range(n):
            for i in range(n):
                for j in range(n):
                    lhs = B.pairing(tbl(i, h), 1 << j)
                    rhs = B.pairing(1 << i, tbl(h, j))
                    if lhs != rhs:
                        fails.append(("invariance", i, h, j))
                        if len(fails) >= max_failures:
                            return AxiomReport(False, fails)
        if not self.graded_only:
            for i in self.odd_indices():
                for j in range(n):
                    if B.pairing(self.sq[i], 1 << j) != B.pairing(1 << i, self.brk[i][j]):
                        fails.append(("square-invariance", i, j))
                        if len(fails) >= max_failures:
                            return AxiomReport(False, fails)
        return AxiomReport(not fails, fails)


# ---------------------------------------------------------------------------
# construction from the function algebras
# ---------------------------------------------------------------------------


def _monomial_basis_element(space: sf.Space, mask: int) -> BasisElement:
    return BasisElement(
        name=space.monomial_name(mask),
        parity=space.element_parity(mask),
        degree=space.degree(mask) - 2,
        weight=space.weight(mask),
    )


def _table_from_masks(space: sf.Space, masks: list[int], drop: set[int]) -> StructureConstants:
    """Structure constants on the given monomials, dropping bracket
    components on monomials in `drop` (quotient by their span)."""
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    brk = [[0] * n for _ in range(n)]
    for i in range(n):
        fi = sf.poly(masks[i])
        for j in range(i + 1, n):
            res = sf.bracket(space, fi, sf.poly(masks[j]))
            vec = 0
            for m in res:
                if m in drop:
                    continue
                if m not in index:
                    raise ValueError("bracket escapes the chosen basis")
                vec |= 1 << index[m]
            brk[i][j] = vec
            brk[j][i] = vec
    sq = [0] * n
    for i in range(n):
        if space.element_parity(masks[i]) == ODD:
            res = sf.squaring(space, sf.poly(masks[i]))
            vec = 0
            for m in res:
                if m in drop:
                    continue
                if m not in index:
                    raise ValueError("squaring escapes the chosen basis")
                vec |= 1 << index[m]
            sq[i] = vec
    basis = [_monomial_basis_element(space, m) for m in masks]
    return StructureConstants(basis, brk, sq, meta={"space": space, "masks": tuple(masks)})


def poisson_algebra(space: sf.Space) -> tuple[StructureConstants, BilinearFormTable]:
    """The full bracket algebra on all monomials (po or b) plus its
    Berezin form.  Diagonal indeterminates make the bracket Leibniz
    ({w, w} = 1); the diagonal is carried explicitly and such objects are
    verified against the Leibniz identity rather than anticommutativity.
    Flagged graded-only when no compatible squaring exists."""
    masks = list(range(1 << space.nvars))
    g = _table_from_masks(space, masks, drop=set())
    B = berezin_table(space, masks)
    index = {m: i for i, m in enumerate(masks)}
    diag = [0] * g.n
    for w in space.kind.diagonals:
        diag[index[1 << w]] = 1 << index[0]
    if any(diag):
        g.meta["diag"] = tuple(diag)
    if not g.is_leibniz and not g.jis_holds():
        g.meta["graded"] = True
        g.sq = [0] * g.n
    elif g.is_leibniz and not _graded_candidate_ok(space):
        g.meta["graded"] = True
        g.sq = [0] * g.n
    return g, B


def _graded_candidate_ok(space: sf.Space) -> bool:
    """Whether the family's simple subquotient is a genuine superalgebra
    (mixed parities with diagonal blocks are not)."""
    pars = {space.variables[w].parity for w in space.kind.diagonals}
    pars |= {space.variables[u].parity for u, _ in space.kind.pairs}
    has_diag = bool(space.kind.diagonals)
    return not (has_diag and len(pars) > 1)


def berezin_table(space: sf.Space, masks: list[int]) -> BilinearFormTable:
    index = {m: i for i, m in enumerate(masks)}
    full = space.full_mask
    gram = []
    for m in masks:
        comp = full ^ m
        gram.append(1 << index[comp] if comp in index else 0)
    return BilinearFormTable(tuple(gram), sf.berezin_parity(space))


@dataclass(frozen=True)
class FamilySpec:
    """A family label: kind 'h' with a form tag, or kind 'le'."""

    kind: str
    form: str
    a: int
    b: int

    @property
    def name(self) -> str:
        if self.kind == "le":
            return f"le(1)({self.a}|{self.b})"
        return f"h{self.form}(1)({self.a}|{self.b})"

    def space(self) -> sf.Space:
        if self.kind == "le":
            return sf.buttin_space(self.a)
        return sf.hamiltonian_space(self.form, self.a, self.b)


def family(kind: str, form: str = "", a: int = 0, b: int = 0, n: int = 0) -> FamilySpec:
    if kind == "le":
        if n < 1:
            raise ValueError("le families need n >= 1")
        return FamilySpec("le", "buttin", n, n)
    if kind != "h":
        raise ValueError("family kind must be 'h' or 'le'")
    sf.hamiltonian_space(form, a, b)  # validates
    return FamilySpec("h", form, a, b)


def build_algebra(fam: FamilySpec) -> tuple[StructureConstants, BilinearFormTable]:
    """The simple subquotient h^(1)/le^(1): monomials of degree 1..v-1
    (constants and the top monomial removed), with the induced Berezin
    form.  The construction is cross-checked against the derived-series
    oracle in the tests.

    Families whose bracket admits no compatible squaring (the partial
    desuperizations: mixed parities together with diagonal form blocks)
    are flagged graded-only and carried as Z/2-graded Lie
    algebras; the squaring identity is decided mechanically.
    """
    space = fam.space()
    v = space.nvars
    masks = [m for m in range(1 << v) if 0 < m.bit_count() < v]
    g = _table_from_masks(space, masks, drop={0, space.full_mask})
    B = berezin_table(space, masks)
    g.meta["family"] = fam
    if not g.jis_holds():
        g.meta["graded"] = True
        g.sq = [0] * g.n
    return g, B


# ---------------------------------------------------------------------------
# subspaces, series, quotients
# ---------------------------------------------------------------------------


def _split_parity(g: StructureConstants, rows: list[int]) -> tuple[list[int], list[int]]:
    """Split a parity-graded subspace basis into even and odd parts."""
    ev_mask = g.parity_mask(EVEN)
    od_mask = g.parity_mask(ODD)
    ev, od = [], []
    for r in rows:
        if r & ev_mask and r & od_mask:
            raise ValueError("subspace is not parity graded")
        (ev if r & ev_mask else od).append(r)
    return ev, od


def derived(g: StructureConstants, i: int = 1, start: list[int] | None = None) -> Subspace:
    """The i-th derived subalgebra: brackets plus squares of odd elements."""
    if i < 0:
        raise ValueError("i must be >= 0")
    cur = start if start is not None else [1 << k for k in range(g.n)]
    for _ in range(i):
        rows = _reduced_rows(cur)
        _, odd_rows = _split_parity(g, rows)
        span = SpanBasis()
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                span.add(g.bracket_vec(rows[a], rows[b]))
        for r in odd_rows:
            span.add(g.sq_vec(r))
        cur = list(span.rows)
    return Subspace(g, _reduced_rows(cur))


def _reduced_rows(vectors: list[int]) -> list[int]:
    s = SpanBasis()
    s.extend(vectors)
    return list(s.rows)


def derived_series_dims(g: StructureConstants, limit: int = 10) -> list[int]:
    dims = [g.n]
    cur = [1 << k for k in range(g.n)]
    for _ in range(limit):
        cur = derived(g, 1, start=cur).rows
        dims.append(len(cur))
        if len(cur) == 0 or dims[-1] == dims[-2]:
            break
    return dims


def center(g: StructureConstants) -> Subspace:
    """{x : [x, g] = 0}, computed as a nullspace."""
    rows = []
    for j in range(g.n):
        for t in range(g.n):
            row = 0
            for i in range(g.n):
                if (g.brk[i][j] >> t) & 1:
                    row |= 1 << i
            if row:
                rows.append(row)
    if not rows:
        return Subspace(g, [1 << k for k in range(g.n)])
    m = BitMatrix.from_int_rows(rows, g.n)
    return Subspace(g, [b.bits for b in m.nullspace_basis()])


def odd_squares_span(g: StructureConstants) -> list[int]:
    """Span of squares of all odd elements: basis squares plus odd-odd
    brackets (polarization)."""
    span = SpanBasis()
    odds = g.odd_indices()
    for i in odds:
        span.add(g.sq[i])
    for a in range(len(odds)):
        for b in range(a + 1, len(odds)):
            span.add(g.brk[odds[a]][odds[b]])
    return list(span.rows)


def special_center(g: StructureConstants, B: BilinearFormTable) -> Subspace:
    """Center intersected with the orthogonal complement of the span of
    odd squares."""
    z = center(g)
    perp = B.orthogonal_complement(odd_squares_span(g))
    return Subspace(g, _intersect(z.rows, perp, g.n))


def _intersect(rows_a: list[int], rows_b: list[int], n: int) -> list[int]:
    """Intersection of two spans inside GF(2)^n (Zassenhaus pairing).

    Eliminate rows (a, a) and (b, 0); rows whose pivot falls in the second
    block have zero first block, and their second blocks span A ∩ B.
    """
    span = SpanBasis()
    for a in rows_a:
        span.add(a | (a << n))
    for b in rows_b:
        span.add(b)
    out = SpanBasis()
    for piv, row in zip(span.pivots, span.rows):
        if piv >= n:
            out.add(row >> n)
    return list(out.rows)


def quotient(g: StructureConstants, ideal: Subspace) -> StructureConstants:
    """Quotient by an ideal closed under squaring, on the complement of
    the ideal's pivot coordinates."""
    span = SpanBasis()
    span.extend(ideal.rows)
    for r in list(span.rows):
        for j in range(g.n):
            if not span.contains(g.bracket_vec(r, 1 << j)):
                raise ValueError("subspace is not an ideal")
    ev, od = _split_parity(g, list(span.rows))
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
        for b in range(a + 1, n2):
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


def ad(g: StructureConstants, x: int) -> BitMatrix:
    """Matrix of [x, .] in the basis (columns indexed by basis)."""
    m = BitMatrix(g.n, g.n)
    for j, col in enumerate(g.ad_cols(x)):
        for t in bit_indices(col):
            m.set(t, j, 1)
    return m


def inner_span(g: StructureConstants) -> SpanBasis:
    """Span of the inner derivations, flattened by `flatten_cols`.  Tracked
    generator k is ad(e_k), so a `solve` combination mask is the element
    y with ad_y equal to the solved map."""
    span = SpanBasis(track=True)
    for k in range(g.n):
        span.add(flatten_cols(g.ad_cols(1 << k), g.n))
    return span


def compose_cols(cols_a: list[int], cols_b: list[int]) -> list[int]:
    """Columns of A∘B given columns of A and B."""
    out = []
    for cb in cols_b:
        v = 0
        for i in bit_indices(cb):
            v ^= cols_a[i]
        out.append(v)
    return out


@dataclass
class RestrictednessReport:
    ok: bool
    witnesses: dict
    failures: list[int]


def restrictedness_check(g: StructureConstants) -> RestrictednessReport:
    """For every even basis element x, decide whether (ad_x)^2 is an inner
    derivation ad_y, and record the witness y."""
    span = inner_span(g)
    witnesses = {}
    failures = []
    for i in g.even_indices():
        ci = g.ad_cols(1 << i)
        y = span.solve(flatten_cols(compose_cols(ci, ci), g.n))
        if y is None:
            failures.append(i)
        else:
            witnesses[i] = y
    return RestrictednessReport(not failures, witnesses, failures)
