"""Derivation spaces of structure-constant algebras over GF(2).

A derivation D satisfies D[ei,ej] = [Dei,ej] + [ei,Dej] for all pairs and
D(ei^2) = [Dei, ei] for odd ei.  The unknowns are the n^2 matrix entries;
the equations split into independent blocks indexed by the shift of the
multigrading (degree, weight, parity), which is what makes large systems
tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import superfunc as sf
from .gf2core import BitMatrix, SpanBasis, bit_indices, echelon_complement, flatten_cols, span_equal, unflatten_cols
from .liesuper import BilinearFormTable, FamilySpec, StructureConstants, build_algebra, inner_span

ShiftKey = tuple  # (degree shift, weight shift tuple, parity shift)


@dataclass(frozen=True)
class LinearMap:
    """A grading-homogeneous linear map: cols[j] is the image of e_j."""

    cols: tuple[int, ...]
    degree: int
    weight: tuple[int, ...]
    parity: int

    @property
    def n(self) -> int:
        return len(self.cols)

    def apply(self, x: int) -> int:
        out = 0
        for i in bit_indices(x):
            out ^= self.cols[i]
        return out

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __xor__(self, other: "LinearMap") -> "LinearMap":
        if (self.degree, self.weight, self.parity) != (other.degree, other.weight, other.parity):
            raise ValueError("shift mismatch")
        return LinearMap(tuple(a ^ b for a, b in zip(self.cols, other.cols)), self.degree, self.weight, self.parity)

    def as_vec(self) -> int:
        return flatten_cols(self.cols, self.n)

    @classmethod
    def from_vec(cls, vec: int, n: int, degree: int, weight, parity: int) -> "LinearMap":
        return cls(unflatten_cols(vec, n), degree, weight, parity)


def invariance_failures(D: LinearMap, B: BilinearFormTable):
    """Basis pairs (i, j), i <= j, in order, where B(Dei,ej) != B(ei,Dej)."""
    n = len(D.cols)
    for i in range(n):
        for j in range(i, n):
            if B.pairing(D.cols[i], 1 << j) ^ B.pairing(1 << i, D.cols[j]):
                yield i, j


def bilinear_invariant(D: LinearMap, B: BilinearFormTable) -> bool:
    return next(invariance_failures(D, B), None) is None


def extra_condition(D: LinearMap, B: BilinearFormTable, g: StructureConstants) -> bool:
    """The characteristic-2 extra: B(D(f), f) = 0 on the odd part.  A
    nonzero odd diagonal is not an obstruction to a D-extension (it is
    absorbed by the diagonal of q), but the flag is reported."""
    for i in g.odd_indices():
        if B.pairing(D.cols[i], 1 << i):
            return False
    return True


def shift_of(g: StructureConstants, cols: list[int]) -> ShiftKey | None:
    """The (degree, weight, parity) shift of a map, or None if mixed."""
    shift = None
    for j, c in enumerate(cols):
        kj = g.cell_key(j)
        for t in bit_indices(c):
            kt = g.cell_key(t)
            s = (kt[0] - kj[0], tuple(a - b for a, b in zip(kt[1], kj[1])), kt[2] ^ kj[2])
            if shift is None:
                shift = s
            elif shift != s:
                return None
    if shift is None:
        nw = len(g.basis[0].weight)
        shift = (0, (0,) * nw, 0)
    return shift


def linear_map_from_cols(g: StructureConstants, cols) -> LinearMap:
    s = shift_of(g, list(cols))
    if s is None:
        raise ValueError("map is not grading homogeneous")
    return LinearMap(tuple(cols), s[0], s[1], s[2])


@dataclass
class GradedBlocks:
    """Partition of the basis by (degree, weight, parity)."""

    cells: dict
    cell_of: list

    @classmethod
    def of(cls, g: StructureConstants) -> "GradedBlocks":
        cells = g.cells()
        return cls(cells, [g.cell_key(i) for i in range(g.n)])

    @property
    def max_cell(self) -> int:
        return max(len(v) for v in self.cells.values())


@dataclass
class DerivationSpace:
    algebra: StructureConstants
    all: list[LinearMap]
    inner: list[LinearMap]
    outer_reps: dict  # ShiftKey -> list[LinearMap]
    block_stats: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.all)

    @property
    def dim_inner(self) -> int:
        return len(self.inner)

    @property
    def dim_outer(self) -> int:
        return sum(len(v) for v in self.outer_reps.values())

    def inner_span(self) -> SpanBasis:
        return inner_span(self.algebra)

    def full_span(self) -> SpanBasis:
        s = SpanBasis()
        for d in self.all:
            s.add(d.as_vec())
        return s


def _der_row_entries(g: StructureConstants, rev, i: int, j: int, t: int):
    """Unknown entries (target, source) of the Der1 equation for the pair
    (i, j) at output coordinate t."""
    entries = []
    for m in bit_indices(g.brk[i][j]):
        entries.append((t, m))
    for u in bit_indices(rev[j][t]):
        entries.append((u, i))
    for u in bit_indices(rev[i][t]):
        entries.append((u, j))
    return entries


def _der2_row_entries(g: StructureConstants, rev, i: int, t: int):
    entries = []
    for m in bit_indices(g.sq[i]):
        entries.append((t, m))
    for u in bit_indices(rev[i][t]):
        entries.append((u, i))
    return entries


def _rev_table(g: StructureConstants) -> list[list[int]]:
    """rev[j][t] = mask of u with e_t appearing in [e_u, e_j]."""
    n = g.n
    rev = [[0] * n for _ in range(n)]
    for u in range(n):
        for j in range(n):
            for t in bit_indices(g.brk[u][j]):
                rev[j][t] |= 1 << u
    return rev


def derivation_space_naive(g: StructureConstants) -> DerivationSpace:
    """One dense linear system over all n^2 entries.  Graded-only
    algebras (desuperizations) contribute no squaring equations."""
    n = g.n
    rev = _rev_table(g)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for t in range(n):
                ent = _der_row_entries(g, rev, i, j, t)
                if ent:
                    row = 0
                    for (a, b) in ent:
                        row ^= 1 << (b * n + a)
                    if row:
                        rows.append(row)
    if not g.graded_only:
        for i in g.odd_indices():
            for t in range(n):
                ent = _der2_row_entries(g, rev, i, t)
                if ent:
                    row = 0
                    for (a, b) in ent:
                        row ^= 1 << (b * n + a)
                    if row:
                        rows.append(row)
    mat = BitMatrix.from_int_rows(rows, n * n)
    kernel = mat.nullspace_basis()
    maps = _homogenize(g, [k.bits for k in kernel])
    return _finish(g, maps, {"path": "naive", "blocks": 1, "max_block": n * n})


def _homogenize(g: StructureConstants, vecs: list[int]) -> list[LinearMap]:
    """Split solution vectors into grading-homogeneous components and
    return a deterministic reduced basis of homogeneous maps."""
    n = g.n
    per_shift: dict[ShiftKey, SpanBasis] = {}
    for vec in vecs:
        comp: dict[ShiftKey, list[int]] = {}
        for j, col in enumerate(unflatten_cols(vec, n)):
            kj = g.cell_key(j)
            for t in bit_indices(col):
                kt = g.cell_key(t)
                s = (kt[0] - kj[0], tuple(a - b for a, b in zip(kt[1], kj[1])), kt[2] ^ kj[2])
                comp.setdefault(s, [0] * n)[j] |= 1 << t
        for s, cols in comp.items():
            per_shift.setdefault(s, SpanBasis()).add(flatten_cols(cols, n))
    out = []
    for s in sorted(per_shift):
        for row in per_shift[s].rows:
            out.append(LinearMap.from_vec(row, n, *s))
    return out


def _finish(g: StructureConstants, maps: list[LinearMap], stats: dict) -> DerivationSpace:
    inner = []
    for k in range(g.n):
        cols = g.ad_cols(1 << k)
        if any(cols):
            key = g.cell_key(k)
            inner.append(LinearMap(tuple(cols), key[0], key[1], key[2]))
    by_shift: dict[ShiftKey, list[LinearMap]] = {}
    for d in maps:
        by_shift.setdefault((d.degree, d.weight, d.parity), []).append(d)
    inner_by_shift: dict[ShiftKey, list[LinearMap]] = {}
    for d in inner:
        inner_by_shift.setdefault((d.degree, d.weight, d.parity), []).append(d)
    outer: dict[ShiftKey, list[LinearMap]] = {}
    for key in sorted(by_shift):
        sub = [d.as_vec() for d in inner_by_shift.get(key, [])]
        vecs = [d.as_vec() for d in by_shift[key]]
        reps = echelon_complement(sub, vecs)
        if reps:
            outer[key] = [LinearMap.from_vec(r, g.n, *key) for r in reps]
    return DerivationSpace(g, maps, inner, outer, stats)


def derivation_space_blocked(g: StructureConstants) -> DerivationSpace:
    """Solve one independent system per grading shift."""
    n = g.n
    rev = _rev_table(g)
    key_of = [g.cell_key(i) for i in range(n)]

    def shift(kt, ka, kb=None):
        d = kt[0] - ka[0]
        w = tuple(x - y for x, y in zip(kt[1], ka[1]))
        p = kt[2] ^ ka[2]
        if kb is not None:
            d -= kb[0]
            w = tuple(x - y for x, y in zip(w, kb[1]))
            p ^= kb[2]
        return (d, w, p)

    # target masks reachable when bracketing with j
    tmask = [0] * n
    for j in range(n):
        m = 0
        for t in range(n):
            if rev[j][t]:
                m |= 1 << t
        tmask[j] = m

    block_rows: dict[ShiftKey, list[list[tuple[int, int]]]] = {}
    for i in range(n):
        ki = key_of[i]
        for j in range(i + 1, n):
            kj = key_of[j]
            if g.brk[i][j]:
                trange = range(n)
            else:
                trange = bit_indices(tmask[i] | tmask[j])
            for t in trange:
                ent = _der_row_entries(g, rev, i, j, t)
                if ent:
                    block_rows.setdefault(shift(key_of[t], ki, kj), []).append(ent)
    if not g.graded_only:
        for i in g.odd_indices():
            ki = key_of[i]
            k2 = (2 * ki[0], tuple(2 * w for w in ki[1]), 0)
            if g.sq[i]:
                trange = range(n)
            else:
                trange = bit_indices(tmask[i])
            for t in trange:
                ent = _der2_row_entries(g, rev, i, t)
                if ent:
                    block_rows.setdefault(shift(key_of[t], k2), []).append(ent)

    # unknown entry enumeration per shift
    cells: dict[tuple, list[int]] = {}
    for i, k in enumerate(key_of):
        cells.setdefault(k, []).append(i)

    def entries_for(skey: ShiftKey) -> list[tuple[int, int]]:
        ents = []
        d, w, p = skey
        for ck, src in sorted(cells.items()):
            tk = (ck[0] + d, tuple(a + b for a, b in zip(ck[1], w)), ck[2] ^ p)
            tgt = cells.get(tk)
            if tgt:
                for s in src:
                    for t in tgt:
                        ents.append((t, s))
        return ents

    shifts = sorted(block_rows)

    def solve_block(skey: ShiftKey):
        ents = entries_for(skey)
        if not ents:
            return [], 0
        col_of = {e: c for c, e in enumerate(ents)}
        ncols = len(ents)
        rows = []
        for ent in block_rows[skey]:
            row = 0
            for e in ent:
                row ^= 1 << col_of[e]
            if row:
                rows.append(row)
        if not rows:
            sols = [1 << c for c in range(ncols)]
        else:
            mat = BitMatrix.from_int_rows(rows, ncols)
            sols = [v.bits for v in mat.nullspace_basis()]
        maps = []
        for svec in sols:
            cols = [0] * n
            for c in bit_indices(svec):
                t, s = ents[c]
                cols[s] |= 1 << t
            maps.append(LinearMap(tuple(cols), *skey))
        return maps, ncols

    maps = []
    max_block = 0
    for block_maps, ncols in map(solve_block, shifts):
        maps.extend(block_maps)
        max_block = max(max_block, ncols)

    # shifts with unknowns but no constraining rows at all
    seen = set(shifts)
    extra_keys = set()
    for ck in cells:
        for tk in cells:
            s = shift(tk, ck)
            if s not in seen:
                extra_keys.add(s)
    for skey in sorted(extra_keys):
        ents = entries_for(skey)
        for (t, srz) in ents:
            cols = [0] * n
            cols[srz] = 1 << t
            maps.append(LinearMap(tuple(cols), *skey))
        max_block = max(max_block, len(ents))

    stats = {"path": "blocked", "blocks": len(shifts) + len(extra_keys), "max_block": max_block}
    return _finish(g, maps, stats)


def spaces_equal(a: DerivationSpace, b: DerivationSpace) -> bool:
    return span_equal([d.as_vec() for d in a.all], [d.as_vec() for d in b.all])


def is_derivation(g: StructureConstants, D: LinearMap) -> bool:
    """Check Der1 over all pairs and, for genuine superalgebras, Der2
    over odd basis elements."""
    n = g.n
    for i in range(n):
        di = D.cols[i]
        for j in range(i + 1, n):
            lhs = D.apply(g.brk[i][j])
            rhs = g.bracket_vec(di, 1 << j) ^ g.bracket_vec(1 << i, D.cols[j])
            if lhs != rhs:
                return False
    if not g.graded_only:
        for i in g.odd_indices():
            if D.apply(g.sq[i]) != g.bracket_vec(D.cols[i], 1 << i):
                return False
    return True


def preserves_nis(D: LinearMap, B: BilinearFormTable, g: StructureConstants) -> bool:
    """B(Dei,ej) + B(ei,Dej) = 0 for all pairs, and B(Dei,ei) = 0 for odd
    ei (the quadratic condition follows on basis elements by
    polarization; it is vacuous for desuperizations)."""
    return bilinear_invariant(D, B) and (g.graded_only or extra_condition(D, B, g))


def cohomology_equal(D1: LinearMap, D2: LinearMap, g: StructureConstants) -> bool:
    """True iff D1 + D2 is an inner derivation."""
    if (D1.degree, D1.weight, D1.parity) != (D2.degree, D2.weight, D2.parity):
        raise ValueError("shift mismatch")
    return inner_span(g).contains((D1 ^ D2).as_vec())


# ---------------------------------------------------------------------------
# closed-form generators
# ---------------------------------------------------------------------------


def _rank_one_sum(g: StructureConstants, images: dict[int, int]) -> LinearMap:
    """Map sending basis monomial (by mask) to a polynomial, zero elsewhere."""
    masks = g.meta["masks"]
    index = {m: i for i, m in enumerate(masks)}
    cols = [0] * g.n
    for src_mask, img in images.items():
        j = index.get(src_mask)
        if j is None:
            continue
        vec = 0
        for m in img:
            if m in index:
                vec |= 1 << index[m]
        cols[j] = vec
    return linear_map_from_cols(g, cols)


def _mult_op(g: StructureConstants, var_mul: int, var_del: int) -> LinearMap:
    """The operator x -> (variable var_mul) * d x / d (variable var_del)."""
    space: sf.Space = g.meta["space"]
    masks = g.meta["masks"]
    images = {}
    bm, bd = 1 << var_mul, 1 << var_del
    for m in masks:
        if (m & bd) and not (m & bm):
            images[m] = sf.poly((m ^ bd) | bm)
    return _rank_one_sum(g, images)


def _diag_projector(g: StructureConstants, keep) -> LinearMap:
    masks = g.meta["masks"]
    images = {m: sf.poly(m) for m in masks if keep(m)}
    return _rank_one_sum(g, images)


def closed_form_generators(fam: FamilySpec, g: StructureConstants | None = None) -> list[tuple[str, "LinearMap"]]:
    """The closed-form outer derivation candidates for a family, filtered
    by a mechanical Der1/Der2 check.  Returns (label, map) pairs."""
    if g is None:
        g, _ = build_algebra(fam)
    space: sf.Space = g.meta["space"]
    masks = g.meta["masks"]
    nv = space.nvars
    out: list[tuple[str, LinearMap]] = []

    def consider(label: str, D: LinearMap):
        if not D.is_zero() and is_derivation(g, D):
            out.append((label, D))

    # D_b = b d/dS(b) for every paired variable b
    for (u, v) in space.kind.pairs:
        consider(f"Db[{space.variables[u].name}]", _mult_op(g, u, v))
        consider(f"Db[{space.variables[v].name}]", _mult_op(g, v, u))

    # diagonal-variable projector (one per diagonal variable)
    for w in space.kind.diagonals:
        bw = 1 << w
        consider(f"Dtheta[{space.variables[w].name}]", _diag_projector(g, lambda m, bw=bw: bool(m & bw)))

    # Euler projector onto odd-degree monomials
    consider("Deuler", _diag_projector(g, lambda m: m.bit_count() & 1))

    # projector onto monomials with an even count of positive-weight
    # paired variables (the degree-0 weight-0 class of the pure-pair
    # families)
    pos_mask = 0
    for (u, v) in space.kind.pairs:
        pos_mask |= 1 << u
    if pos_mask:
        consider("D0even+", _diag_projector(g, lambda m: ((m & pos_mask).bit_count() & 1) == 0))

    # top-degree map S(x) -> dX/dx and, at the symmetric size, its mirror
    full = space.full_mask

    def partner(x: int) -> int:
        v = space.variables[x]
        if v.pair_index is None:
            return x
        u, w = space.kind.pairs[v.pair_index]
        return w if x == u else u

    images_top = {}
    images_mirror = {}
    for x in range(nv):
        s = partner(x)
        images_top[1 << s] = sf.poly(full ^ (1 << x))
        images_mirror[full ^ (1 << s)] = sf.poly(1 << x)
    consider("Dtop", _rank_one_sum(g, images_top))
    if nv == 4:
        consider("Dmirror", _rank_one_sum(g, images_mirror))

    return out
