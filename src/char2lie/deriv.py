"""Derivation spaces of structure-constant algebras over GF(2).

A derivation D satisfies D[ei,ej] = [Dei,ej] + [ei,Dej] (Der1) for all
pairs and D(ei^2) = [Dei, ei] (Der2) for odd ei.  The unknowns are the n^2
matrix entries; the equations split into independent blocks indexed by the
shift of the multigrading (degree, weight, parity), which is what makes
large systems tractable.

The blocked solver also drops most Der1 pairs.  For a linear map D, the
set of x with D[x,y] = [Dx,y] + [x,Dy] for every y is a subspace, and by
the Jacobi identity it is closed under the bracket.  So Der1 on the pairs
(s, y), for s in a generating set S (`liesuper.generating_set`) and every
y, gives Der1 on all pairs.  This needs Jacobi, so Leibniz objects are
refused.  Der2 stays on every odd basis element: the lemma is about the
bracket only, and Der1 on all pairs does not fix D on the squares (with
odd x, even z, x^2 = z and all brackets 0, Der1 leaves Dz free and Der2
forces Dz = 0).  The naive solver keeps every pair, so comparing the two
checks the blocking and the lemma together.  `is_derivation` checks every
pair by default; given a generating set it checks Der1 on the pairs that
touch S and Der2 on every odd index, the route `closed_form_generators`
takes on a Lie object.

The blocked solver also solves only one block of each orbit of shifts
under the family's variable symmetries (`liesuper.symmetries`): an
automorphism p carries the derivations of one shift onto those of
another by D -> p D p^-1, so the other blocks of the orbit are copies.
The naive solver solves everything at once, so it checks the copies too.

Most shifts hold no outer class, and the blocked solver stops each
solved block as soon as its equations show it.  The ad(e_k) of a shift
that satisfy Der2, the squaring identity [e_k, x^2] = [[e_k, x], x] at
every odd x, are derivations: Der1 for ad(e_k) is Jacobi, which the
generating-set lemma already assumes.  If r is their rank, the block's
kernel contains a space of dimension r, so once the rank of its rows is
its size less r the kernel is exactly their span, and no more of its rows
are emitted.  The bound uses that rank, never the size of the cell (an
e_k in the center has ad(e_k) = 0), and an ad(e_k) that fails Der2 does
not count.  The naive solver has no such shortcut, and its inner
derivations are built by `_finish` from the flattened ad(e_k).
"""

from __future__ import annotations

from collections import namedtuple
from operator import xor

from . import superfunc as sf
from .gf2core import (BitMatrix, SpanBasis, bit_indices, echelon_complement, flatten_cols, span_equal, transpose,
                      unflatten_cols, xor_rows)
from .liesuper import BilinearFormTable, StructureConstants, generating_set, orbits, symmetries

ShiftKey = tuple  # (degree shift, weight shift tuple, parity shift)


class LinearMap(namedtuple("LinearMap", "cols degree weight parity")):
    """A grading-homogeneous linear map: cols[j] is the image of e_j."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.cols)

    @property
    def shift(self) -> ShiftKey:
        return (self.degree, self.weight, self.parity)

    def apply(self, x: int) -> int:
        return xor_rows(self.cols, x)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def as_vec(self) -> int:
        return flatten_cols(self.cols, self.n)

    @classmethod
    def from_vec(cls, vec: int, n: int, degree: int, weight, parity: int) -> "LinearMap":
        return cls(unflatten_cols(vec, n), degree, weight, parity)


def invariance_failures(D: LinearMap, B: BilinearFormTable):
    """Basis pairs (i, j), i <= j, in order, where B(Dei,ej) != B(ei,Dej)."""
    n = len(D.cols)
    # rhs[i]: mask of the j with B(e_i, D e_j) = 1
    rhs = transpose([B.right(c) for c in D.cols], n)
    for i, c in enumerate(D.cols):
        for j in bit_indices((B.left(c) ^ rhs[i]) & (-1 << i)):
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


def cell_shift(ks, kt) -> ShiftKey:
    """The shift that carries cell key ks to cell key kt."""
    return (kt[0] - ks[0], tuple(a - b for a, b in zip(kt[1], ks[1])), kt[2] ^ ks[2])


def shift_of(g: StructureConstants, cols: list[int]) -> ShiftKey | None:
    """The (degree, weight, parity) shift of a map, or None if mixed."""
    shift = None
    for j, c in enumerate(cols):
        kj = g.cell_key(j)
        for t in bit_indices(c):
            s = cell_shift(kj, g.cell_key(t))
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
    return LinearMap(tuple(cols), *s)


class DerivationSpace:
    def __init__(self, all: list[LinearMap], inner: list[LinearMap], outer_reps: dict, block_stats: dict | None = None):
        self.all = all
        self.inner = inner
        self.outer_reps = outer_reps  # ShiftKey -> list[LinearMap]
        self.block_stats = {} if block_stats is None else block_stats
        self.gens = None  # the generating set the blocked solver used

    @property
    def dim(self) -> int:
        return len(self.all)

    @property
    def dim_inner(self) -> int:
        return len(self.inner)

    @property
    def dim_outer(self) -> int:
        return sum(len(v) for v in self.outer_reps.values())


def _equations(g: StructureConstants, bit, gens=None, keep=None):
    """Every nonzero equation as (i, j, t, row): Der1 of the pair i < j,
    and of (i, i) where the Leibniz diagonal [e_i, e_i] is nonzero, and,
    unless g is graded only, Der2 of odd i (given as j = i), at output
    coordinate t.  bit[s][t] is the mask of the unknown D[t][s], the
    coefficient of e_t in D e_s.

    With `gens`, the basis indices of a generating set S, Der1 is emitted
    only on the pairs with i or j in S.  When g satisfies Jacobi these cut
    out the same space as all pairs: the x with D[x,y] = [Dx,y] + [x,Dy]
    for every y form a subalgebra, which contains S and so is g.  Der2 is
    emitted on every odd i, since that lemma does not reach the squares.
    With `keep`, only the t in the mask keep(i, j) are emitted."""
    n = g.n
    full = (1 << n) - 1
    # rev[j][t]: mask of the u with e_t in [e_u, e_j]
    rev = [transpose([row[j] for row in g.brk], n) for j in range(n)]
    revb = [[bit_indices(m) if m else () for m in row] for row in rev]
    # output coordinates that bracketing with e_j can reach
    tmask = [sum(1 << t for t in range(n) if rev[j][t]) for j in range(n)]
    gmask = full if gens is None else sum(1 << s for s in gens)
    for i in range(n):
        bi = bit[i]
        first = i if g.brk[i][i] else i + 1
        for j in range(first, n) if gmask >> i & 1 else bit_indices(gmask & (-1 << first)):
            bj = bit[j]
            prod = bit_indices(g.brk[i][j])
            reach = full if prod else tmask[i] | tmask[j]
            for t in bit_indices(reach if keep is None else reach & keep(i, j)):
                row = 0
                for m in prod:
                    row ^= bit[m][t]
                for u in revb[j][t]:
                    row ^= bi[u]
                for u in revb[i][t]:
                    row ^= bj[u]
                if row:
                    yield i, j, t, row
    if not g.graded_only:
        for i in g.odd_indices():
            bi = bit[i]
            sq = bit_indices(g.sq[i])
            reach = full if sq else tmask[i]
            for t in bit_indices(reach if keep is None else reach & keep(i, i)):
                row = 0
                for m in sq:
                    row ^= bit[m][t]
                for u in revb[i][t]:
                    row ^= bi[u]
                if row:
                    yield i, i, t, row


def derivation_space_naive(g: StructureConstants) -> DerivationSpace:
    """One dense linear system over all n^2 entries.  Graded-only
    algebras (desuperizations) contribute no squaring equations.

    When the table respects the grading, every equation lies in one
    shift, so the rref of the system is block-diagonal and each kernel
    vector is a map of one shift; otherwise `linear_map_from_cols` raises
    ValueError on the first mixed one."""
    n = g.n
    bit = [[1 << (s * n + t) for t in range(n)] for s in range(n)]
    mat = BitMatrix.from_int_rows((row for _, _, _, row in _equations(g, bit)), n * n)
    maps = [linear_map_from_cols(g, unflatten_cols(v, n)) for v in mat.nullspace_basis()]
    return _finish(g, maps, {"path": "naive", "blocks": 1, "max_block": n * n})


def _finish(g: StructureConstants, maps: list[LinearMap], stats: dict, inner: list[LinearMap] | None = None,
            settled=frozenset()) -> DerivationSpace:
    """The space of `maps`, its inner derivations and the outer
    representatives of each shift: the rows of the reduced echelon form of
    the shift's maps, flattened, whose pivots are not those of its inner
    derivations.  `inner` defaults to the ad(e_k) kept when independent of
    the earlier ones of their shift, so that it is a basis and dim_inner
    is n - dim(center).  A shift in `settled` is known to hold no outer
    class and is skipped."""
    if inner is None:
        inner = []
        inner_by_shift: dict[ShiftKey, SpanBasis] = {}
        for k, row in enumerate(g.brk):
            d = LinearMap(tuple(row), *g.cell_key(k))
            if inner_by_shift.setdefault(d.shift, SpanBasis()).add(d.as_vec()):
                inner.append(d)
    by_shift: dict[ShiftKey, list[int]] = {}
    for d in maps:
        if d.shift not in settled:
            by_shift.setdefault(d.shift, []).append(d.as_vec())
    base: dict[ShiftKey, list[int]] = {}
    for d in inner:
        if d.shift in by_shift:
            base.setdefault(d.shift, []).append(d.as_vec())
    outer: dict[ShiftKey, list[LinearMap]] = {}
    for key in sorted(by_shift):
        reps = echelon_complement(base.get(key, []), by_shift[key])
        if reps:
            outer[key] = [LinearMap.from_vec(r, g.n, *key) for r in reps]
    return DerivationSpace(maps, inner, outer, stats)


def _saturation_rank(size: int, known: int) -> int:
    """The rank at which a block of `size` unknowns has for its kernel the
    span of its `known` independent derivations: that kernel has dimension
    at least `known`, so once the rank of the block's equations is
    size - known the two are equal."""
    return size - known


def _ad_squaring_holds(g: StructureConstants, perms) -> list[bool]:
    """For each k, whether ad(e_k) satisfies Der2, the squaring identity
    [e_k, x^2] = [[e_k, x], x] at every odd basis x (always, on a graded
    only object); with Jacobi, which gives Der1, ad(e_k) is then a
    derivation.  The automorphisms `perms` carry the identity at e_k to
    the one at e_p[k], squares included, so it is checked at one index of
    each of their orbits.  The table of a Lie object is symmetric, so
    [y, x] is read off the row brk[x]."""
    ok = [True] * g.n
    if g.graded_only:
        return ok
    T, sq, odd = g.brk, g.sq, g.odd_indices()
    for orbit in orbits(perms, g.n):
        row = T[orbit[0][0]]
        if not all(xor_rows(row, sq[x]) == xor_rows(T[x], row[x]) for x in odd):
            for k, _, _ in orbit:
                ok[k] = False
    return ok


def derivation_space_blocked(g: StructureConstants) -> DerivationSpace:
    """Solve one independent system per grading shift, with Der1 only on
    the pairs of `generating_set(g)` (see the module docstring).  Raises
    ValueError on a Leibniz object, where that reduction does not hold,
    and on a table whose brackets (or squares of odd elements, unless g
    is graded only) leave the cell of the grading, where the equations do
    not split into blocks.

    The automorphisms of `liesuper.symmetries(g)` permute the shifts, and
    D -> p D p^-1 carries the derivations of a shift onto those of its
    image.  So only the first block, in sorted shift order, of each orbit
    is solved; every other block gets the kernel of the block it is
    reached from, its entries (t, s) moved to (p t, p s).  Each block's
    kernel, solved or copied, is put through one `SpanBasis` and its
    reduced rows are the block's maps, so the maps are those of a solve
    of every block.

    A solved block's rows are eliminated as `_equations` yields them.
    Once their rank reaches `_saturation_rank`, the block's size less the
    rank r of the ad(e_k) of its shift that pass Der2
    (`_ad_squaring_holds`), its kernel is the span of those ad(e_k): the
    block leaves the `keep` masks, and `_equations` emits no more of its
    rows.  r is a rank, never the size of the cell, and Der2 is checked
    (Der1 is Jacobi, assumed as above).  Every block of an orbit whose
    first block stopped takes the span of its own such ad(e_k) as its
    kernel, with no move along the symmetry, and `_finish` flattens none
    of the maps of those shifts, since no outer class lives there.  A
    space has one reduced echelon form, so `all`, `inner` and
    `outer_reps` are those of a solve of every block to the end."""
    if g.is_leibniz:
        raise ValueError("the blocked solver needs a Lie object (Jacobi); this one has a Leibniz diagonal")
    n = g.n

    def code(k) -> int:
        # (degree, weights) in radix 2**16 above a parity bit, so that the
        # code of a shift is a difference of codes plus the parity xor
        # (one code per shift while degrees and weights stay below 2**12)
        lin = k[0]
        for w in k[1]:
            lin = (lin << 16) + w
        return lin << 1

    par = [g.parity(i) for i in range(n)]

    # one block per shift between two cells, its unknowns D[t][s] in the
    # order of the sorted source cells; a shift that no equation
    # constrains keeps all of its unknowns free
    cells = g.cells()
    ccode = {k: code(k) for k in cells}
    blocks: dict[int, tuple[ShiftKey, list[tuple[int, int]]]] = {}
    bit = [[0] * n for _ in range(n)]
    for ks, src in sorted(cells.items()):
        for kt, tgt in cells.items():
            c = ccode[kt] - ccode[ks] + (kt[2] ^ ks[2])
            if c not in blocks:
                blocks[c] = (cell_shift(ks, kt), [])
            ents = blocks[c][1]
            for s in src:
                for t in tgt:
                    bit[s][t] = 1 << len(ents)
                    ents.append((t, s))

    kc = [ccode[g.cell_key(i)] for i in range(n)]
    # the mask of each cell by its code and parity; [e_i, e_j] must lie in
    # the cell of code kc[i] + kc[j] and parity par[i] ^ par[j], and the
    # square of an odd e_i in the even cell of code 2 kc[i]
    cell_masks = [(kc[ts[0]], par[ts[0]], sum(1 << t for t in ts)) for ts in cells.values()]
    cell_of = {ct | pt: mask for ct, pt, mask in cell_masks}
    odd = 0 if g.graded_only else g.parity_mask(sf.ODD)
    for i, row in enumerate(g.brk):
        ki, pi = kc[i], par[i]
        stray = any(v & ~cell_of.get((ki + kc[j]) | (pi ^ par[j]), 0) for j, v in enumerate(row) if v)
        if stray or (odd >> i & 1 and g.sq[i] & ~cell_of.get(2 * ki, 0)):
            raise ValueError(f"the blocked solver needs a graded table; a product of e{i} leaves its cell")

    # the blocks in sorted shift order, and where each symmetry sends them
    order = sorted(blocks, key=lambda c: blocks[c][0])
    place = {c: b for b, c in enumerate(order)}
    gens = generating_set(g)
    perms = symmetries(g, gens)
    moves = [[place[kc[p[t]] - kc[p[s]] + (par[t] ^ par[s])] for t, s in (blocks[c][1][0] for c in order)]
             for p in perms]
    orbs = orbits(moves, len(order))
    solved = [order[orbit[0][0]] for orbit in orbs]

    # ad(e_k), in the coordinates of its block (the code of the shift
    # cell_key(k)): `inner` keeps it when it is independent of the earlier
    # ones of its block, and `known` spans the ones that are derivations
    der2 = _ad_squaring_holds(g, perms)
    inner = []
    spans: dict[int, SpanBasis] = {}
    known: dict[int, SpanBasis] = {}
    for k, row in enumerate(g.brk):
        w = 0
        for s, v in enumerate(row):
            if v:
                bs = bit[s]
                for t in bit_indices(v):
                    w |= bs[t]
        if w:
            c = kc[k] + par[k]
            if spans.setdefault(c, SpanBasis()).add(w):
                inner.append(LinearMap(tuple(row), *g.cell_key(k)))
            if der2[k]:
                known.setdefault(c, SpanBasis()).add(w)

    # each solved block's rows are eliminated as they come, and the block
    # stops once its rank reaches `bound`: its kernel is then the span of
    # `known`.  keep_masks[s + q] is the mask of the output coordinates t of a
    # pair (i, j) with kc[i] + kc[j] = s and parity q whose equations fall
    # in a block still live; the cell of t and the code c of the block fix
    # s and q
    bound = {c: _saturation_rank(len(blocks[c][1]), known[c].dim if c in known else 0) for c in solved}
    live = {c: {} for c in solved if bound[c] > 0}  # forward-reduced rows by lowest bit + 1
    keep_masks: dict[int, int] = {}

    def cell_keys(c):
        for ct, pt, mask in cell_masks:
            yield ct - (c & ~1) + ((c & 1) ^ pt), mask

    for c in live:
        for key, mask in cell_keys(c):
            keep_masks[key] = keep_masks.get(key, 0) | mask
    emitted = 0
    for i, j, t, row in _equations(g, bit, gens, lambda i, j: keep_masks.get(kc[i] + kc[j] + (par[i] ^ par[j]), 0)):
        c = kc[t] - kc[i] - kc[j] + (par[t] ^ par[i] ^ par[j])
        rows = live.get(c)
        if rows is None:  # the block stopped on an earlier row of this pair
            continue
        emitted += 1
        while row:
            low = (row & -row).bit_length()
            prev = rows.get(low)
            if prev is None:
                rows[low] = row
                break
            row ^= prev
        if len(rows) == bound[c]:
            del live[c]
            for key, mask in cell_keys(c):
                keep_masks[key] &= ~mask
            if not live:
                break

    # an orbit whose first block stopped: every block of it has the span of
    # its own `known` as its kernel, and no outer class
    kernels: list[list[int]] = [[] for _ in order]
    settled = set()
    solved_rank = 0
    for orbit in orbs:
        rep = order[orbit[0][0]]
        if rep not in live:
            for b, _, _ in orbit:
                c = order[b]
                kernels[b] = known[c].rows if c in known else []
                settled.add(c)
            solved_rank += bound[rep]
            continue
        for b, a, k in orbit:
            if a is None:
                span = SpanBasis()
                span.extend(live[rep].values())
                solved_rank += span.dim
                kernels[b] = span.kernel(len(blocks[order[b]][1]))
            else:
                p, src = perms[k], blocks[order[a]][1]
                moved = []
                for v in kernels[a]:
                    w = 0
                    for e in bit_indices(v):
                        t, s = src[e]
                        w |= bit[p[s]][p[t]]
                    moved.append(w)
                kernels[b] = moved

    maps = []
    rank = 0
    for c, kernel in zip(order, kernels):
        skey, ents = blocks[c]
        rank += len(ents) - len(kernel)
        if kernel and c not in settled:
            span = SpanBasis()
            span.extend(kernel)
            kernel = span.rows
        for svec in kernel:
            cols = [0] * n
            for e in bit_indices(svec):
                t, s = ents[e]
                cols[s] |= 1 << t
            maps.append(LinearMap(tuple(cols), *skey))

    stats = {"path": "blocked", "blocks": len(blocks), "solved": len(solved), "settled": len(settled),
             "max_block": max((len(e) for _, e in blocks.values()), default=0),
             "rows": emitted, "solved_rank": solved_rank, "rank": rank}
    space = _finish(g, maps, stats, inner, {blocks[c][0] for c in settled})
    space.gens = gens
    return space


def spaces_equal(a: DerivationSpace, b: DerivationSpace) -> bool:
    return span_equal([d.as_vec() for d in a.all], [d.as_vec() for d in b.all])


def is_derivation(g: StructureConstants, D: LinearMap, gens: list[int] | None = None) -> bool:
    """Check Der1 over all pairs i < j, and over (i, i) where the Leibniz
    diagonal T[i][i] is nonzero, and, for genuine superalgebras, Der2 over
    odd basis elements, on the rows T of `g.brk`.  By default every pair
    is checked, without the generating-set lemma, so the check is
    independent of the blocked solver.

    With `gens`, the basis indices of a generating set S of a Lie object,
    Der1 is checked only on the pairs (s, j), s in S and j any index, which
    by the lemma of the module docstring (and the symmetry of the bracket)
    gives Der1 on all pairs; Der2 is still checked at every odd index,
    since the lemma does not reach the squares.

    One row of T at a time: ad(De_i), the row of [De_i, e_j] over j, is
    the xor of the rows T[k] over the bits k of De_i; [e_i, De_j] is the
    xor of T[i] over the bits of De_j, and D[e_i, e_j] the xor of D's
    columns over the bits of T[i][j].  Der2 at odd i reads the one entry
    [De_i, e_i], the xor of T[k][i] over the bits k of De_i."""
    n = g.n
    T = g.brk
    cols = D.cols
    dbits = [bit_indices(c) for c in cols]
    for i in range(n) if gens is None else gens:
        Ti = T[i]
        ad = [0] * n
        for k in dbits[i]:
            ad = list(map(xor, ad, T[k]))
        for j in range(i if Ti[i] else i + 1, n) if gens is None else range(n):
            defect = ad[j]
            for k in dbits[j]:
                defect ^= Ti[k]
            if Ti[j]:
                defect ^= xor_rows(cols, Ti[j])
            if defect:
                return False
    for i in () if g.graded_only else g.odd_indices():
        square = 0  # [De_i, e_i]
        for k in dbits[i]:
            square ^= T[k][i]
        if xor_rows(cols, g.sq[i]) != square:
            return False
    return True


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


def closed_form_generators(g: StructureConstants, gens: list[int] | None = None) -> list[tuple[str, "LinearMap"]]:
    """The closed-form outer derivation candidates for the algebra of a
    family, filtered by a mechanical Der1/Der2 check.  Returns (label, map)
    pairs.  `gens` is `generating_set(g)` when the caller has it already
    (the blocked solver's `DerivationSpace.gens`)."""
    space: sf.Space = g.meta["space"]
    masks = g.meta["masks"]
    nv = space.nvars
    out: list[tuple[str, LinearMap]] = []

    # Der1 on the pairs of a generating set suffices on a Lie object
    if gens is None and not g.is_leibniz:
        gens = generating_set(g)

    def consider(label: str, D: LinearMap):
        if not D.is_zero() and is_derivation(g, D, gens):
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

    partner = list(range(nv))  # a diagonal variable is its own partner
    for (u, v) in space.kind.pairs:
        partner[u], partner[v] = v, u

    images_top = {}
    images_mirror = {}
    for x in range(nv):
        s = partner[x]
        images_top[1 << s] = sf.poly(full ^ (1 << x))
        images_mirror[full ^ (1 << s)] = sf.poly(1 << x)
    consider("Dtop", _rank_one_sum(g, images_top))
    if nv == 4:
        consider("Dmirror", _rank_one_sum(g, images_mirror))

    return out
