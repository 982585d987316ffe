import pytest

from sl3tensor.alcoves import classify, linked_weight, region_weights
from sl3tensor.modchar import (
    char_dim,
    from_simple_basis,
    m_char,
    m_dim,
    simple_char,
    simple_dim,
    tilting_char,
    to_simple_basis,
    weyl_comp_factors,
)
from sl3tensor.weights import dim_weyl, tau
from sl3tensor.weylchar import Character


def test_weyl_comp_factors_examples():
    assert sorted(weyl_comp_factors((3, 1), 5)) == [(2, 0), (3, 1)]
    assert sorted(weyl_comp_factors((6, 2), 5)) == [(2, 4), (6, 2)]
    assert weyl_comp_factors((1, 1), 5) == [(1, 1)]


def test_simple_char_examples():
    assert simple_char((3, 1), 5) == Character("weyl", {(3, 1): 1, (2, 0): -1})
    assert simple_dim((3, 1), 5) == 18
    assert simple_char((0, 5), 5) == Character(
        "weyl", {(0, 5): 1, (1, 3): -1, (0, 2): 1}
    )
    assert simple_dim((0, 5), 5) == 3
    assert simple_char((4, 4), 5) == Character("weyl", {(4, 4): 1})
    assert simple_dim((4, 4), 5) == 125


def test_simple_char_rejects_outside_region():
    with pytest.raises(ValueError):
        simple_char((16, 16), 5)


@pytest.mark.parametrize("p", [5, 7])
def test_simple_char_unitriangular(p):
    from sl3tensor.weights import dominance_leq

    for w in region_weights(p):
        c = simple_char(w, p)
        assert c.coeffs[w] == 1
        for mu in c.coeffs:
            if mu != w:
                assert dominance_leq(mu, w) and mu != w


@pytest.mark.parametrize("p", [5, 7])
def test_simple_dim_bounds(p):
    for w in region_weights(p):
        d = simple_dim(w, p)
        assert 0 < d <= dim_weyl(w)
        if len(weyl_comp_factors(w, p)) == 1:
            assert d == dim_weyl(w)
        else:
            assert d < dim_weyl(w)


@pytest.mark.parametrize("p", [5, 7])
def test_simple_dims_satisfy_twisted_factorization(p):
    """Independent oracle: a simple of weight w0 + p*w1 with both parts
    restricted has dimension dim L(w0) * dim L(w1)."""
    for w in region_weights(p):
        w0 = (w[0] % p, w[1] % p)
        w1 = ((w[0] - w0[0]) // p, (w[1] - w0[1]) // p)
        if w1 == (0, 0):
            continue
        if not (0 <= w1[0] <= p - 1 and 0 <= w1[1] <= p - 1):
            continue
        assert simple_dim(w, p) == simple_dim(w0, p) * simple_dim(w1, p), w


def test_tilting_char_examples():
    assert tilting_char((6, 2), 5) == Character("weyl", {(6, 2): 1, (2, 4): 1})
    assert tilting_char((1, 3), 5) == Character("weyl", {(1, 3): 1, (0, 2): 1})
    assert tilting_char((4, 4), 5) == Character("weyl", {(4, 4): 1})


@pytest.mark.parametrize("p", [5, 7])
def test_tilting_char_top_and_tau(p):
    from sl3tensor.weights import dominance_leq

    for w in region_weights(p):
        c = tilting_char(w, p)
        assert c.coeffs[w] == 1
        for v in c.coeffs:
            if v != w:
                assert dominance_leq(v, w) and v != w
        mirrored = tilting_char(tau(w), p)
        assert mirrored.coeffs == {tau(v): k for v, k in c.coeffs.items()}


def test_m_char_examples():
    c = m_char((1, 3), 5)
    assert c == Character("simple", {(1, 3): 2, (7, 0): 1, (0, 5): 1, (0, 2): 1})
    assert m_dim((1, 3), 5) == 63
    assert char_dim(c, 5) == 63
    assert m_char((1, 3), 5, basis="weyl") == Character(
        "weyl", {(7, 0): 1, (0, 5): 1, (0, 2): 1}
    )
    c2 = m_char((2, 2), 5)
    assert c2 == Character("simple", {(2, 2): 2, (6, 0): 1, (0, 6): 1, (1, 1): 1})


def test_m_char_requires_second_alcove():
    with pytest.raises(ValueError):
        m_char((0, 0), 5)
    with pytest.raises(ValueError):
        m_char((4, 1), 5)  # wall weight


@pytest.mark.parametrize("p", [5, 7])
def test_tilting_simple_expansion_is_effective(p):
    """Composition multiplicities of a tilting module are honest counts:
    the simple-basis expansion of its character is strictly positive."""
    for w in region_weights(p):
        expansion = to_simple_basis(tilting_char(w, p), p)
        assert all(k > 0 for k in expansion.coeffs.values()), (w, expansion.coeffs)


@pytest.mark.parametrize("p", [5, 7])
def test_m_char_weyl_form_is_sum_of_wall_reflections(p):
    """In the Weyl basis the character drops the doubled head and keeps the
    three reflected Weyl characters; two of them are dominance-maximal."""
    for w in region_weights(p):
        if classify(w, p) != "C2":
            continue
        mu3 = linked_weight(w, "C3", p)
        mu3p = linked_weight(w, "C3p", p)
        mu1 = linked_weight(w, "C1", p)
        assert None not in (mu3, mu3p, mu1)
        assert m_char(w, p, basis="weyl") == Character(
            "weyl", {mu3: 1, mu3p: 1, mu1: 1}
        )


def test_to_simple_basis_examples():
    assert to_simple_basis(Character("weyl", {(7, 0): 1}), 5) == Character(
        "simple", {(7, 0): 1, (1, 3): 1}
    )
    for lam in [(0, 0), (3, 1), (6, 2)]:
        c = Character("simple", {lam: 1})
        assert to_simple_basis(from_simple_basis(c, 5), 5) == c


def test_to_simple_basis_rejects_outside_region():
    with pytest.raises(ValueError):
        to_simple_basis(Character("weyl", {(16, 16): 1}), 5)


@pytest.mark.parametrize("p", [5, 7])
def test_m_prime_pattern(p):
    """Adding one copy of the bottom simple to the non-highest-weight
    character reproduces the fixed four-facet pattern in the simple basis."""
    for w in region_weights(p):
        if classify(w, p) != "C2":
            continue
        mu3 = linked_weight(w, "C3", p)
        mu3p = linked_weight(w, "C3p", p)
        mu1 = linked_weight(w, "C1", p)
        m_prime = m_char(w, p) + Character("simple", {mu1: 1})
        assert m_prime == Character(
            "simple", {mu3: 1, mu3p: 1, w: 2, mu1: 2}
        )


@pytest.mark.parametrize("p", [5, 7, 13])
def test_basis_conversion_round_trip(p):
    import random

    rng = random.Random(11)
    weights = region_weights(p)
    for _ in range(40):
        coeffs = {rng.choice(weights): rng.randint(-3, 3) for _ in range(4)}
        c = Character("weyl", coeffs)
        assert from_simple_basis(to_simple_basis(c, p), p) == c
        # the simple characters' lower terms cancel and add support below
        # the lead, which the solve must pick up in order
        s = Character("simple", coeffs)
        assert to_simple_basis(from_simple_basis(s, p), p) == s
