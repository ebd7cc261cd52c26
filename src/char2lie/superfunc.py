"""Supercommutative function algebras in characteristic 2, truncated so
that every indeterminate squares to zero.

A monomial is a bitmask over the ordered variable list and a polynomial is
a frozenset of masks (GF(2) coefficients).  The product of two monomials
is the union of their masks when disjoint, otherwise zero.  On top of the
algebra live the Poisson-type brackets: paired variables contribute
du f * dv g + dv f * du g, diagonal variables contribute dw f * dw g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

EVEN, ODD = 0, 1

Poly = frozenset  # frozenset[int]: set of monomial masks

ZERO: Poly = frozenset()
ONE: Poly = frozenset({0})

ROLE_PARITY = {"xi": ODD, "eta": ODD, "theta": ODD, "pi": ODD, "q": EVEN, "p": EVEN, "z": EVEN}
ROLE_WEIGHT = {"xi": 1, "pi": 1, "p": 1, "eta": -1, "q": -1, "theta": 0, "z": 0}


@dataclass(frozen=True)
class VarSpec:
    name: str
    parity: int
    role: str
    pair_index: int | None
    weight_entry: int


@dataclass(frozen=True)
class BracketKind:
    """Block structure of the bracket: index pairs (positive-weight var,
    negative-weight var) and diagonal indices."""

    tag: str
    pairs: tuple[tuple[int, int], ...]
    diagonals: tuple[int, ...]


@dataclass(frozen=True)
class Space:
    """An ordered variable list with its bracket kind.

    parity_shift is 1 for the Buttin/le families, where the bracket is odd
    on bare monomial parities and the Lie parities are shifted by one.
    """

    variables: tuple[VarSpec, ...]
    kind: BracketKind
    parity_shift: int = 0

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def full_mask(self) -> int:
        return (1 << self.nvars) - 1

    @property
    def nweights(self) -> int:
        return len(self.kind.pairs)

    def check_poly(self, f: Poly) -> None:
        for m in f:
            if m < 0 or m > self.full_mask:
                raise ValueError("monomial outside variable list")

    def degree(self, mask: int) -> int:
        return mask.bit_count()

    def monomial_parity(self, mask: int) -> int:
        p = 0
        for i, v in enumerate(self.variables):
            if (mask >> i) & 1:
                p ^= v.parity
        return p

    def element_parity(self, mask: int) -> int:
        return self.monomial_parity(mask) ^ self.parity_shift

    def weight(self, mask: int) -> tuple[int, ...]:
        w = [0] * self.nweights
        for i, v in enumerate(self.variables):
            if (mask >> i) & 1 and v.pair_index is not None:
                w[v.pair_index] += v.weight_entry
        return tuple(w)

    def monomial_name(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return ".".join(self.variables[i].name for i in range(self.nvars) if (mask >> i) & 1)


@dataclass(frozen=True)
class FormValue:
    value: int
    parity: int


def poly(*masks: int) -> Poly:
    """Polynomial from monomial masks, cancelling duplicate pairs."""
    s: set[int] = set()
    for m in masks:
        s.symmetric_difference_update({m})
    return frozenset(s)


def add(f: Poly, g: Poly) -> Poly:
    return f ^ g


def mul(space: Space, f: Poly, g: Poly) -> Poly:
    space.check_poly(f)
    space.check_poly(g)
    out: set[int] = set()
    for a in f:
        for b in g:
            if a & b:
                continue
            out.symmetric_difference_update({a | b})
    return frozenset(out)


def partial(space: Space, f: Poly, var: int) -> Poly:
    """d f / d x_var: delete the variable from each monomial containing it."""
    if not 0 <= var < space.nvars:
        raise ValueError("unknown variable")
    bit = 1 << var
    return frozenset(m ^ bit for m in f if m & bit)


@lru_cache(maxsize=None)
def bracket_terms(space: Space) -> tuple[tuple[int, int], ...]:
    """The bracket of the space's kind as single-bit mask pairs (x, y), one
    per term d_x f * d_y g: (u, v) and (v, u) for each pair, (w, w) for
    each diagonal."""
    terms = []
    for u, v in space.kind.pairs:
        terms += [(1 << u, 1 << v), (1 << v, 1 << u)]
    terms += [(1 << w, 1 << w) for w in space.kind.diagonals]
    return tuple(terms)


def bracket(space: Space, f: Poly, g: Poly) -> Poly:
    """The Poisson/Buttin bracket of the space's kind.  On monomials a, b
    the term (x, y) contributes (a^x) | (b^y) when a contains x, b contains
    y and a^x, b^y are disjoint."""
    space.check_poly(f)
    space.check_poly(g)
    terms = bracket_terms(space)
    out: set[int] = set()
    for a in f:
        for b in g:
            for x, y in terms:
                if a & x and b & y and not (a ^ x) & (b ^ y):
                    out.symmetric_difference_update({(a ^ x) | (b ^ y)})
    return frozenset(out)


def divided_square(space: Space, u: Poly) -> Poly:
    """Sum of pairwise products over a fixed monomial order; the unique
    order-independent divided square modulo constants."""
    ms = sorted(u)
    out: Poly = frozenset()
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if ms[i] & ms[j]:
                continue
            out ^= frozenset({ms[i] | ms[j]})
    return out


def squaring(space: Space, f: Poly) -> Poly:
    """The squaring on odd elements: paired part sum (du f)(dv f), diagonal
    part the divided square of dw f plus, for odd diagonal variables, the
    constant term absorbing the Leibniz diagonal {w, w} = 1 (so that the
    square of the linear monomial w is the unit)."""
    space.check_poly(f)
    for m in f:
        if space.element_parity(m) != ODD:
            raise ValueError("squaring requires an odd homogeneous element")
    out: Poly = frozenset()
    for u, v in space.kind.pairs:
        out ^= mul(space, partial(space, f, u), partial(space, f, v))
    for w in space.kind.diagonals:
        out ^= divided_square(space, partial(space, f, w))
        if space.variables[w].parity == ODD and (1 << w) in f:
            out ^= ONE
    return out


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


def berezin_parity(space: Space) -> int:
    """Parity of the Berezin pairing: the bare parity of the top monomial."""
    return space.monomial_parity(space.full_mask)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

H_FORMS = ("Pi", "I", "PiPi", "PiI", "IPi", "II")


def _block(letter: str, dim: int, names: tuple[str, str, str], parity: int):
    """Variable descriptors for one block of the form.

    Pi on even dim: pairs; Pi on odd dim: pairs plus one diagonal;
    I (even dim >= 2 only): pairs plus two diagonals.
    """
    pos_name, neg_name, diag_name = names
    if dim == 0:
        return [], 0
    if letter == "I":
        if dim % 2 or dim < 2:
            raise ValueError("type I requires even dimension >= 2")
        npairs, ndiag = dim // 2 - 1, 2
    elif letter == "Pi":
        npairs, ndiag = dim // 2, dim % 2
    else:
        raise ValueError(f"unknown form letter {letter!r}")
    out = []
    for i in range(npairs):
        out.append((f"{pos_name}{i + 1}", "pos", parity))
        out.append((f"{neg_name}{i + 1}", "neg", parity))
    for i in range(ndiag):
        out.append((f"{diag_name}{i + 1}" if ndiag > 1 else diag_name, "diag", parity))
    return out, npairs


def _split_form(form: str, a: int, b: int) -> tuple[str, str]:
    if a == 0 or b == 0:
        if form not in ("Pi", "I"):
            raise ValueError("single-block families take form Pi or I")
        return (form, form)
    table = {"PiPi": ("Pi", "Pi"), "PiI": ("Pi", "I"), "IPi": ("I", "Pi"), "II": ("I", "I")}
    if form in table:
        return table[form]
    raise ValueError(f"form {form!r} needs both an even and an odd letter")


ROLE_BY_KIND = {
    ("pos", EVEN): "p",
    ("neg", EVEN): "q",
    ("diag", EVEN): "z",
    ("pos", ODD): "xi",
    ("neg", ODD): "eta",
    ("diag", ODD): "theta",
}


@lru_cache(maxsize=None)
def hamiltonian_space(form: str, a: int, b: int) -> Space:
    """Variable space of the h/po family with `a` even and `b` odd
    indeterminates and the given form tag."""
    if a == 0 and b == 0:
        raise ValueError("empty variable list")
    even_letter, odd_letter = _split_form(form, a, b)
    specs = []
    if a:
        ev, _ = _block(even_letter, a, ("p", "q", "z"), EVEN)
        specs.extend(ev)
    if b:
        od, _ = _block(odd_letter, b, ("xi", "eta", "theta"), ODD)
        specs.extend(od)
    variables = []
    pairs = []
    diagonals = []
    pair_count = 0
    i = 0
    while i < len(specs):
        name, kindtag, parity = specs[i]
        if kindtag == "pos":
            nname, _, nparity = specs[i + 1]
            role_p = ROLE_BY_KIND[("pos", parity)]
            role_n = ROLE_BY_KIND[("neg", parity)]
            variables.append(VarSpec(name, parity, role_p, pair_count, 1))
            variables.append(VarSpec(nname, nparity, role_n, pair_count, -1))
            pairs.append((i, i + 1))
            pair_count += 1
            i += 2
        else:
            variables.append(VarSpec(name, parity, ROLE_BY_KIND[("diag", parity)], None, 0))
            diagonals.append(i)
            i += 1
    kind = BracketKind(form, tuple(pairs), tuple(diagonals))
    return Space(tuple(variables), kind, parity_shift=0)


@lru_cache(maxsize=None)
def buttin_space(n: int) -> Space:
    """Variable space of the Buttin/le family on n even q's paired with n
    odd pi's; Lie parities are shifted."""
    if n < 1:
        raise ValueError("n must be positive")
    variables = []
    pairs = []
    for i in range(n):
        variables.append(VarSpec(f"q{i + 1}", EVEN, "q", i, -1))
        variables.append(VarSpec(f"pi{i + 1}", ODD, "pi", i, 1))
        pairs.append((2 * i + 1, 2 * i))  # (positive-weight pi_i, negative q_i)
    kind = BracketKind("buttin", tuple(pairs), ())
    return Space(tuple(variables), kind, parity_shift=1)
