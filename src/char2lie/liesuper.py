"""Finite-dimensional characteristic-2 Lie superalgebras as exact
structure-constant tables over GF(2).

A vector is an int bitmask over the basis.  The bracket table stores, for
each basis pair, the result as a mask; the squaring table stores the
square of each odd basis element.  Squares of general elements follow by
polarization: s(x) = sum s(e_i) + sum_{i<j} [e_i, e_j] over the support.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, combinations, permutations
from operator import itemgetter, xor

from . import superfunc as sf
from .gf2core import SpanBasis, bit_indices, flatten_cols, transpose, xor_rows

EVEN, ODD = 0, 1


class BasisElement(namedtuple("BasisElement", "name parity degree weight")):
    __slots__ = ()


class BilinearFormTable(namedtuple("BilinearFormTable", "gram parity")):
    """Gram matrix over GF(2), rows as int masks: bit j of gram[i] is
    B(e_i, e_j).  No __slots__: the cached gram_t lives in __dict__."""

    @property
    def n(self) -> int:
        return len(self.gram)

    @cached_property
    def gram_t(self) -> tuple[int, ...]:
        """Rows of the transposed Gram matrix: bit i of gram_t[j] is B(e_i, e_j)."""
        return tuple(transpose(self.gram, self.n))

    def left(self, x: int) -> int:
        """Mask of the j with B(x, e_j) = 1."""
        return xor_rows(self.gram, x)

    def right(self, y: int) -> int:
        """Mask of the i with B(e_i, y) = 1."""
        return xor_rows(self.gram_t, y)

    def pairing(self, x: int, y: int) -> int:
        return (self.left(x) & y).bit_count() & 1

    def is_nondegenerate(self) -> bool:
        span = SpanBasis()
        span.extend(self.gram)
        return span.dim == self.n

    def orthogonal_complement(self, vectors: list[int]) -> list[int]:
        """Basis of the subspace orthogonal to all given vectors."""
        span = SpanBasis()
        span.extend(self.right(v) for v in vectors)
        return span.kernel(self.n)


class Subspace:
    def __init__(self, rows: list[int]):
        self.rows = rows

    @property
    def dim(self) -> int:
        return len(self.rows)


class AxiomReport:
    def __init__(self, ok: bool, failures: list[tuple] | None = None):
        self.ok = ok
        self.failures = [] if failures is None else failures

    def __str__(self):
        if self.ok:
            return "axioms: pass"
        head = ", ".join(repr(f) for f in self.failures[:3])
        return f"axioms: FAIL ({len(self.failures)} violations; first: {head})"


class StructureConstants:
    """Bracket and squaring tables on an ordered graded basis.

    brk[i][j] is [e_i, e_j]; the diagonal brk[i][i] is zero on Lie objects
    and is the Leibniz diagonal on the others (the po_I objects and the
    extensions with B(Df, f) != 0).

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
        return [row[i] for i, row in enumerate(self.brk)]

    @property
    def is_leibniz(self) -> bool:
        return any(self.diag)

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
        for i in bit_indices(x):
            row = self.brk[i]
            for j in bit_indices(y):
                out ^= row[j]
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
        """Symmetry, parity additivity, Jacobi over all basis triples
        i < j < k, and (unless graded-only) the squaring identity
        [s(f), g] = [f, [f, g]].

        A nonzero diagonal brk[i][i] is the Leibniz diagonal (the po_I
        phenomenon: {w,w} = 1 for diagonal indeterminates).  Such objects
        are checked against the left Leibniz identity instead of Jacobi;
        anticommutativity fails for them by construction and is not an
        axiom there.  Symmetry, the parities and the squaring identity are
        checked on both routes.

        Jacobi and Leibniz are summed only on a symmetric table, once per
        multiset of indices, in one pass over the nonzero products
        (`_symmetric_failing`).  A table that is not symmetric is reported
        by its symmetry entries and is not summed.  Failures come in the
        order of a loop over i < j < k (over (x, y, z) for Leibniz).
        """
        fails: list[tuple] = []
        n = self.n
        brk = self.brk
        par = [e.parity for e in self.basis]
        # wrong[p]: the basis vectors a product of parity p must not contain
        wrong = [self.parity_mask(ODD), self.parity_mask(EVEN)]
        squares = not self.graded_only

        symmetric = True
        for i in range(n):
            row = brk[i]
            p = par[i]
            for j in range(i, n):
                v = row[j]
                if v != brk[j][i]:
                    fails.append(("symmetry", i, j))
                    symmetric = False
                if v & wrong[p ^ par[j]]:
                    fails.append(("bracket-parity", i, j))
            if squares and p == ODD and self.sq[i] & wrong[EVEN]:
                fails.append(("squaring-parity", i))
            if len(fails) >= max_failures:
                return AxiomReport(False, fails)

        if symmetric:
            leibniz = self.is_leibniz
            triples = _symmetric_failing(brk, leibniz)
            if leibniz:
                # the difference at (x, y, z) is the Jacobi sum of {x, y, z}
                triples = sorted({p for t in triples for p in permutations(t)})
            tag = "leibniz" if leibniz else "jacobi"
            fails += [(tag,) + t for t in triples[: max_failures - len(fails)]]
            if len(fails) >= max_failures:
                return AxiomReport(False, fails)

        if not self.graded_only:
            for i, j in self._squaring_failures():
                fails.append(("squaring-jacobi", i, j))
                if len(fails) >= max_failures:
                    return AxiomReport(False, fails)

        return AxiomReport(not fails, fails)

    def _squaring_failures(self):
        """Pairs (i, j), odd i first, where [s(e_i), e_j] != [e_i, [e_i, e_j]].

        One row at a time: [s(e_i), e_j] for every j is the xor of the rows
        brk[m] over the bits m of s(e_i), and [e_i, [e_i, e_j]] is read off
        row i only where [e_i, e_j] is nonzero."""
        brk = self.brk
        zero = [0] * self.n
        for i in self.odd_indices():
            row = brk[i]
            lhs = zero
            for m in bit_indices(self.sq[i]):
                lhs = list(map(xor, lhs, brk[m]))
            for j, (v, s) in enumerate(zip(row, lhs)):
                if s != (xor_rows(row, v) if v else 0):
                    yield i, j

    def jis_holds(self) -> bool:
        """Whether the squaring identity holds over all basis pairs (the
        test that separates honest superalgebras from desuperizations)."""
        return next(self._squaring_failures(), None) is None

    def verify_form(self, B: BilinearFormTable, max_failures: int = 10) -> AxiomReport:
        """Symmetry, invariance B([f,h],g)=B(f,[h,g]), the odd-diagonal
        conditions, and (unless graded-only) B(f^2, g) = B(f, [f,g]).

        Each identity is checked a whole row at a time: for fixed (h, i) the
        masks over j of B([e_i,e_h], e_j) and of B(e_i, [e_h,e_j]) are
        compared, and their difference lists the failures in order.  The
        form images B.left(v) and B.right(v) are computed once per distinct
        bracket value v (one map when B is symmetric)."""
        fails: list[tuple] = []
        n = self.n
        gram, gram_t = B.gram, B.gram_t
        pmask = [self.parity_mask(EVEN), self.parity_mask(ODD)]
        for i in range(n):
            if (gram[i] >> i) & 1 and self.parity(i) == ODD and not self.graded_only:
                fails.append(("form-odd-diagonal", i))
            upper = -1 << i
            asym = (gram[i] ^ gram_t[i]) & upper
            # B(e_i, e_j) may be nonzero only where p(i) + p(j) = p(B)
            wrong = gram[i] & pmask[self.parity(i) ^ B.parity ^ 1] & upper
            for j in bit_indices(asym | wrong):
                if (asym >> j) & 1:
                    fails.append(("form-symmetry", i, j))
                if (wrong >> j) & 1:
                    fails.append(("form-parity", i, j))
        values = set(chain.from_iterable(self.brk))
        left = {v: B.left(v) for v in values}
        right = left if gram == gram_t else {v: B.right(v) for v in values}
        for h, col in enumerate(zip(*self.brk)):
            # rhs[i]: mask of the j with B(e_i, [e_h, e_j]) = 1
            rhs = transpose([right[v] for v in self.brk[h]], n)
            for i, v in enumerate(col):
                for j in bit_indices(left[v] ^ rhs[i]):
                    fails.append(("invariance", i, h, j))
                    if len(fails) >= max_failures:
                        return AxiomReport(False, fails)
        if not self.graded_only:
            for i in self.odd_indices():
                gi = gram[i]
                rhs = 0
                for j, v in enumerate(self.brk[i]):
                    rhs |= ((gi & v).bit_count() & 1) << j
                for j in bit_indices(B.left(self.sq[i]) ^ rhs):
                    fails.append(("square-invariance", i, j))
                    if len(fails) >= max_failures:
                        return AxiomReport(False, fails)
        return AxiomReport(not fails, fails)


def _symmetric_failing(tbl, diagonal: bool) -> list[tuple[int, int, int]]:
    """The multisets {a, b, c} of a symmetric table, as ascending triples
    in ascending order, whose Jacobi sum is nonzero: each term [e_m,e_c],
    m in [e_a,e_b], of [[e_a,e_b],e_c] over the pairs a < b (a <= b with
    `diagonal`) is XORed into the code (i*n + j)*n + k of its sorted
    triple.  On a distinct pair {a, b} a term with c in {a, b} is skipped:
    its multiset splits twice and the two terms cancel."""
    n = len(tbl)
    rows = [[(c, w) for c, w in enumerate(row) if w] for row in tbl]
    sums: dict[int, int] = {}
    for a, row in enumerate(tbl):
        for b in range(a if diagonal else a + 1, n):
            if not row[b]:
                continue
            ab = (a * n + b) * n
            for m in bit_indices(row[b]):
                for c, w in rows[m]:
                    if c > b:
                        code = ab + c
                    elif c > a:
                        if c == b:
                            continue
                        code = (a * n + c) * n + b
                    elif c < a or a == b:
                        code = (c * n + a) * n + b
                    else:
                        continue
                    sums[code] = sums.get(code, 0) ^ w
    out = []
    for code in sorted(code for code, w in sums.items() if w):
        i, jk = divmod(code, n * n)
        out.append((i,) + divmod(jk, n))
    return out


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
    components on monomials in `drop` (quotient by their span).

    Brackets use the terms of `superfunc.bracket_terms`: row i keeps its
    side (a^x, y) of each term with a ⊇ x, so [e_i, e_j] costs a few int
    operations per term."""
    space.check_poly(masks)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    # code[m]: the basis bit of monomial m, 0 if dropped; a monomial outside
    # the basis gets its own bit above n, so that only an uncancelled one escapes
    code = [0 if m in drop else 1 << index[m] if m in index else 1 << (n + m)
            for m in range(1 << space.nvars)]
    terms = sf.bracket_terms(space)
    brk = [[0] * n for _ in range(n)]
    for i, a in enumerate(masks):
        left = [(a ^ x, y) for x, y in terms if a & x]
        row = brk[i]
        for j in range(i + 1, n):
            b = masks[j]
            vec = 0
            for ax, y in left:
                if b & y and not ax & (b ^ y):
                    vec ^= code[ax | (b ^ y)]
            if vec >> n:
                raise ValueError("bracket escapes the chosen basis")
            row[j] = vec
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
    Berezin form.  Diagonal indeterminates make the bracket Leibniz: the
    diagonal {w, w} = 1 is written into brk, and such objects are
    verified against the Leibniz identity rather than anticommutativity.
    Flagged graded-only, as in `build_algebra`, when the squaring identity
    fails."""
    masks = list(range(1 << space.nvars))
    g = _table_from_masks(space, masks, drop=set())
    B = berezin_table(space, masks)
    # basis element m is the monomial m, so the unit 1 is e_0
    for w in space.kind.diagonals:
        g.brk[1 << w][1 << w] = 1
    if not g.jis_holds():
        g.meta["graded"] = True
        g.sq = [0] * g.n
    return g, B


def berezin_table(space: sf.Space, masks: list[int]) -> BilinearFormTable:
    index = {m: i for i, m in enumerate(masks)}
    full = space.full_mask
    gram = []
    for m in masks:
        comp = full ^ m
        gram.append(1 << index[comp] if comp in index else 0)
    return BilinearFormTable(tuple(gram), sf.berezin_parity(space))


class FamilySpec(namedtuple("FamilySpec", "kind form a b")):
    """A family label: kind 'h' with a form tag, or kind 'le'."""

    __slots__ = ()

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
    if a < 0 or b < 0:
        raise ValueError("h families need a, b >= 0")
    if a + b < 2:
        # degrees 1..a+b-1 hold no monomial: the algebra would be 0-dimensional
        raise ValueError("h families need a+b >= 2")
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
    """The i-th derived subalgebra: brackets plus squares of odd elements.
    From all of g (no `start`), the first step reads the table: the
    brackets brk[a][b] for a < b and the squares of the odd e_a."""
    if i < 0:
        raise ValueError("i must be >= 0")
    cur = start
    for _ in range(i):
        span = SpanBasis()
        if cur is None:
            span.extend(chain(chain.from_iterable(row[a + 1:] for a, row in enumerate(g.brk)),
                              (g.sq[a] for a in g.odd_indices())))
        else:
            rows = _reduced_rows(cur)
            _, odd_rows = _split_parity(g, rows)
            span.extend(chain((g.bracket_vec(a, b) for a, b in combinations(rows, 2)), map(g.sq_vec, odd_rows)))
        cur = span.rows
    return Subspace(_reduced_rows([1 << k for k in range(g.n)] if cur is None else cur))


def _reduced_rows(vectors: list[int]) -> list[int]:
    s = SpanBasis()
    s.extend(vectors)
    return s.rows


def derived_series_dims(g: StructureConstants, limit: int = 10) -> list[int]:
    dims = [g.n]
    cur = None
    for _ in range(limit):
        cur = derived(g, 1, start=cur).rows
        dims.append(len(cur))
        if len(cur) == 0 or dims[-1] == dims[-2]:
            break
    return dims


def center(g: StructureConstants) -> Subspace:
    """{x : [x, g] = 0}, computed as a nullspace."""
    span = SpanBasis()
    for j in range(g.n):
        # row t: the i with e_t in [e_i, e_j]
        span.extend(transpose([row[j] for row in g.brk], g.n))
    return Subspace(span.kernel(g.n))


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
    perp = B.orthogonal_complement(odd_squares_span(g))
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


def generating_set(g: StructureConstants) -> list[int]:
    """Basis indices of a set S that generates g under the bracket, in the
    order taken: the basis is walked in order of (|degree|, index), and
    e_k is taken when it is not in the bracket closure of S so far, so
    the closure always spans g.

    This assumes the Jacobi identity (or, on a Leibniz object, the left
    Leibniz identity, under which [x, x] counts as a bracket): each ad(x)
    is then a derivation, so the closure is spanned by the right-normed
    brackets [s1, [s2, ... s_r]] of generators.  It is found as the least
    span that holds S and is closed under ad(e_s), s in S, from the rows
    brk[s]: a new generator is bracketed with the elements kept so far,
    and the walk stops once the span is full."""
    n = g.n
    span = SpanBasis()
    elems: list[int] = []  # the closure's elements as computed, spanning it
    gens: list[int] = []
    for k in sorted(range(n), key=lambda k: (abs(g.basis[k].degree), k)):
        if span.contains(1 << k):
            continue
        gens.append(k)
        row = g.brk[k]
        todo = [1 << k] + [xor_rows(row, v) for v in elems]
        while todo:
            v = todo.pop()
            if span.add(v):
                if span.dim == n:
                    return gens
                elems.append(v)
                todo.extend(xor_rows(g.brk[s], v) for s in gens)
    return gens  # reached only when n == 0


def symmetries(g: StructureConstants, gens: list[int] | None = None) -> list[tuple[int, ...]]:
    """Basis permutations p, from swaps of the family's variables, that are
    automorphisms of g as it stands: e_i -> e_p[i].

    The candidates act on the monomials of meta["space"] at meta["masks"]:
    the swap within each pair, the swap of two pairs whose variables have
    the same parities, and the swap of two diagonals of the same parity.
    One is kept when it permutes the basis, preserves parity, maps every
    cell onto a cell, and satisfies brk[p s][p j] = p(brk[s][j]) for every
    j (the Leibniz diagonal included) on the rows s of a generating set S
    and, unless g is graded only, sq[p i] = p(sq[i]) for every odd i.  The
    rows of S suffice: the x with p[x, y] = [p x, p y] for every y form a
    subalgebra under Jacobi (or the left Leibniz identity), which holds S
    and so is g.  That lemma does not reach the squares, so every odd one
    is checked.  S is `gens`, else `generating_set(g)`.  An object without
    that meta (a parsed file, an extension, a quotient) has none."""
    space, masks = g.meta.get("space"), g.meta.get("masks")
    if space is None or masks is None:
        return []
    if gens is None:
        gens = generating_set(g)
    par = [v.parity for v in space.variables]
    swaps = [((u, v),) for u, v in space.kind.pairs]
    swaps += [((u1, u2), (v1, v2)) for (u1, v1), (u2, v2) in combinations(space.kind.pairs, 2)
              if (par[u1], par[v1]) == (par[u2], par[v2])]
    swaps += [((w1, w2),) for w1, w2 in combinations(space.kind.diagonals, 2) if par[w1] == par[w2]]
    index = {m: i for i, m in enumerate(masks)}
    cell = {k: c for c, k in enumerate(g.cells())}
    cid = [cell[g.cell_key(i)] for i in range(g.n)]
    size = Counter(cid)
    values = set(chain.from_iterable(g.brk[s] for s in gens))
    if not g.graded_only:
        values.update(g.sq[i] for i in g.odd_indices())
    out = []
    for swap in swaps:
        p = []
        for m in masks:
            for a, b in swap:
                if (m >> a ^ m >> b) & 1:
                    m ^= 1 << a | 1 << b
            p.append(index.get(m))
        if None in p or any(g.parity(p[i]) != g.parity(i) for i in range(g.n)):
            continue
        # p is a bijection, so a cell maps onto a cell when its image lies
        # in one cell of its size
        to: dict[int, int] = {}
        if any(to.setdefault(cid[i], cid[p[i]]) != cid[p[i]] or size[cid[i]] != size[cid[p[i]]] for i in range(g.n)):
            continue
        img = {v: sum(1 << p[b] for b in bit_indices(v)) for v in values}
        moved = itemgetter(*p)  # row r to (r[p[j]] for j)
        if any(tuple(map(img.__getitem__, g.brk[s])) != moved(g.brk[p[s]]) for s in gens):
            continue
        if not g.graded_only and any(g.sq[p[i]] != img[g.sq[i]] for i in g.odd_indices()):
            continue
        out.append(tuple(p))
    return out


def orbits(perms, npoints: int) -> list[list[tuple[int, int | None, int | None]]]:
    """The orbits of range(npoints) under the group generated by the
    permutations perms (lists over range(npoints)), in order of their least
    point.  Each orbit is a breadth-first list of (point, parent, k) from
    its least point (parent and k None), where perms[k] carries parent to
    point."""
    seen = bytearray(npoints)
    out = []
    for r in range(npoints):
        if seen[r]:
            continue
        seen[r] = 1
        orbit = [(r, None, None)]
        for x, _, _ in orbit:  # the loop also visits the points it appends
            for k, p in enumerate(perms):
                y = p[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append((y, x, k))
        out.append(orbit)
    return out


def ad_preimage(g: StructureConstants, maps) -> list[int | None]:
    """For each map flattened by `flatten_cols`, an element y with ad_y
    equal to it, or None when the map is not inner.

    One span holds ad(e_k) with bit n*n + k set to mark e_k; a map
    reduced to no bit below n*n is inner, and its bits above are y."""
    nn = g.n * g.n
    span = SpanBasis()
    span.extend(flatten_cols(row, g.n) | 1 << (nn + k) for k, row in enumerate(g.brk))
    out = []
    for v in maps:
        r = span.reduce(v)
        out.append(None if r & ((1 << nn) - 1) else r >> nn)
    return out


def compose_cols(cols_a: list[int], cols_b: list[int]) -> list[int]:
    """Columns of A∘B given columns of A and B."""
    return [xor_rows(cols_a, cb) for cb in cols_b]


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
