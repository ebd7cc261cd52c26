import hashlib
import itertools

import pytest

from char2lie import superfunc as sf
from tests.oracles import berezin_form


PI04 = sf.hamiltonian_space("Pi", 0, 4)  # xi1, eta1, xi2, eta2
I04 = sf.hamiltonian_space("I", 0, 4)  # xi1, eta1, theta1, theta2
I20 = sf.hamiltonian_space("I", 2, 0)  # z1, z2


def var(space, name):
    for i, v in enumerate(space.variables):
        if v.name == name:
            return i
    raise KeyError(name)


def mono(space, *names):
    m = 0
    for nm in names:
        m |= 1 << var(space, nm)
    return sf.poly(m)


def test_mul_square_is_zero():
    xi1 = mono(PI04, "xi1")
    assert sf.mul(PI04, xi1, xi1) == sf.ZERO


def test_mul_disjoint_union():
    xi1, eta1 = mono(PI04, "xi1"), mono(PI04, "eta1")
    assert sf.mul(PI04, xi1, eta1) == mono(PI04, "xi1", "eta1")


def test_mul_expand_cancel():
    xi1, eta1 = mono(PI04, "xi1"), mono(PI04, "eta1")
    assert sf.mul(PI04, xi1 ^ eta1, xi1) == mono(PI04, "xi1", "eta1")


def test_partial_basic():
    m = mono(PI04, "xi1", "eta1")
    assert sf.partial(PI04, m, var(PI04, "xi1")) == mono(PI04, "eta1")
    assert sf.partial(PI04, mono(PI04, "eta2"), var(PI04, "xi1")) == sf.ZERO
    with pytest.raises(ValueError):
        sf.partial(PI04, m, 99)


def test_partial_top_monomial_all_variables():
    # dX/dx equals the complementary monomial, checked by mask deletion
    full = PI04.full_mask
    for x in range(PI04.nvars):
        got = sf.partial(PI04, sf.poly(full), x)
        assert got == sf.poly(full ^ (1 << x))


def test_bracket_pi_pair():
    assert sf.bracket(PI04, mono(PI04, "xi1"), mono(PI04, "eta1")) == sf.ONE


def test_bracket_I_diagonal_is_one():
    # the Leibniz phenomenon: {z, z}_I = 1
    z1 = mono(I20, "z1")
    assert sf.bracket(I20, z1, z1) == sf.ONE


def test_bracket_hand_example():
    f = mono(PI04, "xi1", "eta1")
    g = mono(PI04, "xi1")
    assert sf.bracket(PI04, f, g) == mono(PI04, "xi1")


def test_squaring_pi_examples():
    assert sf.squaring(PI04, mono(PI04, "xi1")) == sf.ZERO
    f = mono(PI04, "xi1") ^ mono(PI04, "eta1", "xi2", "eta2")
    assert sf.squaring(PI04, f) == mono(PI04, "xi2", "eta2")


def test_squaring_theta_unit():
    # square of a lone diagonal odd variable is the unit (absorbing {w,w}=1)
    assert sf.squaring(I04, mono(I04, "theta1")) == sf.ONE


def test_squaring_requires_odd():
    with pytest.raises(ValueError):
        sf.squaring(PI04, mono(PI04, "xi1", "eta1"))


def test_polarization_exhaustive_pi04():
    # s(f+g) + s(f) + s(g) = {f,g} modulo constants, all odd f, g
    odd = [m for m in range(16) if PI04.element_parity(m) == sf.ODD]
    elems = []
    for bits in range(1 << len(odd)):
        elems.append(frozenset(odd[i] for i in range(len(odd)) if (bits >> i) & 1))
    for f in elems:
        sf_f = sf.squaring(PI04, f)
        for g in elems:
            lhs = sf.squaring(PI04, f ^ g) ^ sf_f ^ sf.squaring(PI04, g)
            rhs = sf.bracket(PI04, f, g)
            assert (lhs ^ rhs) <= sf.ONE  # difference is at most a constant


def test_polarization_with_diagonals_i04_sample():
    odd = [m for m in range(16) if I04.element_parity(m) == sf.ODD]
    import random

    rng = random.Random(3)
    for _ in range(300):
        f = frozenset(m for m in odd if rng.random() < 0.4)
        g = frozenset(m for m in odd if rng.random() < 0.4)
        lhs = sf.squaring(I04, f ^ g) ^ sf.squaring(I04, f) ^ sf.squaring(I04, g)
        rhs = sf.bracket(I04, f, g)
        assert (lhs ^ rhs) <= sf.ONE


def test_weight_and_degree_additivity():
    f = mono(PI04, "xi1", "xi2")
    g = mono(PI04, "eta1")
    prod = sf.mul(PI04, f, g)
    (pm,) = prod
    (fm,) = f
    (gm,) = g
    assert PI04.weight(pm) == tuple(a + b for a, b in zip(PI04.weight(fm), PI04.weight(gm)))
    br = sf.bracket(PI04, f, g)
    for m in br:
        assert PI04.degree(m) == PI04.degree(fm) + PI04.degree(gm) - 2
        assert PI04.weight(m) == tuple(a + b for a, b in zip(PI04.weight(fm), PI04.weight(gm)))


def test_berezin_examples():
    full = sf.poly(PI04.full_mask)
    assert berezin_form(PI04, sf.ONE, full).value == 1
    xi1 = mono(PI04, "xi1")
    assert berezin_form(PI04, xi1, xi1).value == 0
    assert berezin_form(PI04, xi1, mono(PI04, "eta1", "xi2", "eta2")).value == 1
    assert berezin_form(PI04, xi1, xi1).parity == 0  # 4 odd indeterminates


def test_berezin_invariance_on_simple_subquotient():
    # B({f,h},g) = B(f,{h,g}) over basis triples of degrees 1..3 at a+b <= 5
    for space in (PI04, I04, sf.hamiltonian_space("Pi", 0, 5), sf.buttin_space(2)):
        full = space.full_mask
        monos = [m for m in range(1 << space.nvars) if 0 < space.degree(m) < space.nvars]
        for f, h, g in itertools.product(monos[:10], monos[:10], monos[:10]):
            fh = sf.bracket(space, sf.poly(f), sf.poly(h))
            hg = sf.bracket(space, sf.poly(h), sf.poly(g))
            lhs = berezin_form(space, fh, sf.poly(g)).value
            rhs = berezin_form(space, sf.poly(f), hg).value
            assert lhs == rhs


def test_family_validation():
    with pytest.raises(ValueError):
        sf.hamiltonian_space("I", 0, 3)  # I needs even dimension
    with pytest.raises(ValueError):
        sf.hamiltonian_space("Q", 0, 4)
    with pytest.raises(ValueError):
        sf.buttin_space(0)


def test_le_parity_shift():
    b2 = sf.buttin_space(2)
    q1 = 1 << 0
    assert b2.monomial_parity(q1) == 0
    assert b2.element_parity(q1) == 1  # shifted
    assert sf.berezin_parity(b2) == 0  # two odd indeterminates


def _describe_space(space):
    """Names and parities, pairs, diagonals and parity shift of a space,
    then the weight and Lie parity of every monomial."""
    lines = [" ".join(f"{v.name}:{v.parity}" for v in space.variables),
             f"pairs {space.kind.pairs} diagonals {space.kind.diagonals} shift {space.parity_shift}"]
    lines += [f"{m} {space.weight(m)} {space.element_parity(m)}" for m in range(1 << space.nvars)]
    return "\n".join(lines)


# sha256 of the descriptions of every valid h form with a + b = size and,
# at even sizes up to 10, of le(size / 2); the list of valid forms is part
# of what is hashed
VARIABLE_SPACE_SHA256 = {
    2: "0324a88beffd9dd834e2d4b7907c98188495ae0e351b69a1d882839fdecdf019",
    3: "476e1605b7d42db7a64e95564c3e89a8db907694d9f25e3e2a06a361aa29efee",
    4: "fc4d87b450311acc1dcdb5dddb9b3dfd339616d97f33309555e579dba5a870af",
    5: "77af9c766d9bf8c03ff22b3d6947bad43224628be3b59498f6fd08494b41993e",
    6: "d4dd3f70471c61aa7573ea2dc108d7b29ade4c008db2a285911738ac2b1da602",
    7: "cb075d91026aae3b4851fc2ab1189df887892a9a763325c3cd2476f50e8d99d9",
    8: "89ff2b775dfdb8e07a67d822dedfde2fbab7eeab1ae12db93ea1c056571fffc2",
    9: "aaeb1c92b77636ba5b05628378cd4b29f0b44c68f87c3cf86a35aa34f9c24226",
    10: "1fa9174390957d6c1938e14be05a512852d2bbb0cf38f5403d0bfa817265544e",
}


def test_variable_spaces_are_pinned():
    by_size = {}
    for size in range(2, 10):
        for a in range(size + 1):
            for form in sf.H_FORMS:
                try:
                    space = sf.hamiltonian_space(form, a, size - a)
                except ValueError:
                    continue
                by_size.setdefault(size, []).append(f"h{form}({a}|{size - a})\n" + _describe_space(space))
    for n in range(1, 6):
        by_size.setdefault(2 * n, []).append(f"le({n})\n" + _describe_space(sf.buttin_space(n)))
    assert sum(map(len, by_size.values())) == 103
    for size, texts in by_size.items():
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == VARIABLE_SPACE_SHA256[size], size
    for args, message in [(("Q", 0, 4), "single-block families take form Pi or I"),
                          (("I", 0, 3), "type I requires even dimension >= 2"),
                          (("PiPi", 0, 4), "single-block families take form Pi or I"),
                          (("Pi", 0, 0), "empty variable list"),
                          (("I", 1, 2), "form 'I' needs both an even and an odd letter")]:
        with pytest.raises(ValueError) as err:
            sf.hamiltonian_space(*args)
        assert str(err.value) == message, args
