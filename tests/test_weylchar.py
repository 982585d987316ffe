import random
from fractions import Fraction

import pytest

from sl3tensor.weights import dim_weyl, tau
from sl3tensor.weylchar import (
    Character,
    lr_tensor,
    monomial_to_weyl,
    mono_mult,
    mult,
    mult_via_monomial,
    weyl_char_to_monomial,
    weyl_to_monomial,
)

# ---------------------------------------------------------------------------
# independent oracle: Freudenthal recursion for weight multiplicities
# ---------------------------------------------------------------------------

_GRAM = ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
_POSITIVE_ROOTS = ((2, -1), (-1, 2), (1, 1))
_ORBIT = (
    lambda x, y: (x, y),
    lambda x, y: (-x, x + y),
    lambda x, y: (x + y, -y),
    lambda x, y: (y, -x - y),
    lambda x, y: (-x - y, x),
    lambda x, y: (-y, -x),
)


def _ip(u, v):
    return sum(_GRAM[i][j] * u[i] * v[j] for i in range(2) for j in range(2))


def _dominant_image(w):
    for image in _ORBIT:
        x, y = image(*w)
        if x >= 0 and y >= 0:
            return (x, y)
    raise AssertionError(w)


def freudenthal(lam):
    """Weight multiplicities of the irreducible character, by the recursion
    on norms of shifted weights; independent of the partition-function path."""
    a, b = lam
    dominants = []
    for c1 in range(a + b + 1):
        for c2 in range(a + b + 1):
            mu = (a - 2 * c1 + c2, b + c1 - 2 * c2)
            if mu[0] >= 0 and mu[1] >= 0:
                dominants.append((c1 + c2, mu))
    dominants.sort()
    lam_rho = (a + 1, b + 1)
    norm_top = _ip(lam_rho, lam_rho)
    mult = {lam: 1}
    for height, mu in dominants:
        if mu == lam:
            continue
        rhs = Fraction(0)
        for alpha in _POSITIVE_ROOTS:
            k = 1
            while True:
                nu = (mu[0] + k * alpha[0], mu[1] + k * alpha[1])
                dom = _dominant_image(nu)
                if dom[0] + dom[1] > a + b:
                    break
                m = mult.get(dom, 0)
                if m:
                    rhs += 2 * m * _ip(nu, alpha)
                k += 1
        mu_rho = (mu[0] + 1, mu[1] + 1)
        denom = norm_top - _ip(mu_rho, mu_rho)
        value = rhs / denom
        assert value.denominator == 1
        if value:
            mult[mu] = int(value)
    full = {}
    for mu, m in mult.items():
        for image in _ORBIT:
            full[image(*mu)] = m
    return full


# ---------------------------------------------------------------------------
# monomial expansion
# ---------------------------------------------------------------------------

def test_weyl_to_monomial_examples():
    assert weyl_to_monomial((1, 0)).coeffs == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    adjoint = weyl_to_monomial((1, 1))
    assert adjoint.coeffs[(0, 0)] == 2
    assert adjoint.dimension() == 8
    c = weyl_to_monomial((2, 2))
    assert c.dimension() == 27
    assert c.coeffs[(0, 0)] == 3


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (2, 2), (3, 1), (4, 4), (5, 2)])
def test_weyl_to_monomial_matches_freudenthal(lam):
    assert weyl_to_monomial(lam).coeffs == freudenthal(lam)


def test_weyl_to_monomial_dimension_is_weyl_formula():
    for a in range(7):
        for b in range(7):
            assert weyl_to_monomial((a, b)).dimension() == dim_weyl((a, b))


def test_monomial_round_trip():
    for lam in [(0, 0), (1, 0), (3, 1), (12, 12), (12, 0)]:
        back = monomial_to_weyl(weyl_to_monomial(lam))
        assert back == Character("weyl", {lam: 1})
    # integer combinations: lower terms cancel or grow below the lead
    rng = random.Random(13)
    for _ in range(30):
        c = Character("weyl", {
            (rng.randint(0, 12), rng.randint(0, 12)): rng.randint(-3, 3)
            for _ in range(5)
        })
        assert monomial_to_weyl(weyl_char_to_monomial(c)) == c


def test_monomial_product_natural_times_dual():
    prod = mono_mult(weyl_to_monomial((1, 0)), weyl_to_monomial((0, 1)))
    assert monomial_to_weyl(prod) == Character("weyl", {(1, 1): 1, (0, 0): 1})


def test_monomial_to_weyl_rejects_asymmetric():
    with pytest.raises(ValueError):
        monomial_to_weyl(Character("monomial", {(1, 0): 1}))


def test_mono_mult_overflow_fallback_matches():
    big = 2**40
    c1 = Character("monomial", {(0, 0): big, (1, 0): big})
    c2 = Character("monomial", {(0, 0): big, (0, 1): -big})
    out = mono_mult(c1, c2)
    assert out.coeffs[(0, 0)] == big * big
    assert out.coeffs[(1, 1)] == -big * big


# ---------------------------------------------------------------------------
# Littlewood-Richardson products
# ---------------------------------------------------------------------------

def test_lr_fundamental_times_generic():
    assert lr_tensor((1, 0), (2, 3)) == Character(
        "weyl", {(3, 3): 1, (2, 2): 1, (1, 4): 1}
    )
    assert lr_tensor((1, 0), (0, 1)) == Character("weyl", {(1, 1): 1, (0, 0): 1})


def test_lr_eleven_term_expansion():
    got = lr_tensor((3, 1), (3, 1))
    expected = Character(
        "weyl",
        {
            (6, 2): 1, (4, 3): 1, (2, 4): 1, (7, 0): 1, (5, 1): 2,
            (3, 2): 2, (1, 3): 2, (0, 5): 1, (4, 0): 1, (2, 1): 1, (0, 2): 1,
        },
    )
    assert got == expected
    assert got.dimension() == 24 * 24
    assert got == mult_via_monomial(
        Character("weyl", {(3, 1): 1}), Character("weyl", {(3, 1): 1})
    )


def test_mult_examples():
    c = Character("weyl", {(3, 1): 1, (2, 0): -1})
    square = mult(c, c)
    assert square == Character(
        "weyl", {(6, 2): 1, (7, 0): 1, (4, 3): 1, (2, 4): 1, (0, 5): 1, (0, 2): 2}
    )
    assert square.dimension() == 18 * 18

    unit = Character("weyl", {(0, 0): 1})
    anything = Character("weyl", {(5, 2): 3, (1, 1): -2})
    assert mult(anything, unit) == anything

    adj = Character("weyl", {(1, 1): 1})
    sq = mult(adj, adj)
    assert sq == Character(
        "weyl", {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 1}
    )
    assert sq.dimension() == 64


def test_lr_symmetry_and_tau():
    rng = random.Random(6)
    for _ in range(60):
        lam = (rng.randint(0, 9), rng.randint(0, 9))
        mu = (rng.randint(0, 9), rng.randint(0, 9))
        prod = lr_tensor(lam, mu)
        assert prod == lr_tensor(mu, lam)
        mirrored = lr_tensor(tau(lam), tau(mu))
        assert mirrored.coeffs == {tau(w): k for w, k in prod.coeffs.items()}


def test_lr_leading_coefficient_and_positivity():
    rng = random.Random(7)
    for _ in range(80):
        lam = (rng.randint(0, 10), rng.randint(0, 10))
        mu = (rng.randint(0, 10), rng.randint(0, 10))
        prod = lr_tensor(lam, mu)
        top = (lam[0] + mu[0], lam[1] + mu[1])
        assert prod.coeffs[top] == 1
        assert all(k > 0 for k in prod.coeffs.values())
        total = sum(k * dim_weyl(w) for w, k in prod.coeffs.items())
        assert total == dim_weyl(lam) * dim_weyl(mu)


def test_lr_matches_monomial_convolution_sample():
    rng = random.Random(8)
    for _ in range(40):
        lam = (rng.randint(0, 12), rng.randint(0, 12))
        mu = (rng.randint(0, 12), rng.randint(0, 12))
        a = Character("weyl", {lam: 1})
        b = Character("weyl", {mu: 1})
        assert mult(a, b) == mult_via_monomial(a, b)


def test_character_json_round_trip_and_order():
    c = Character("weyl", {(6, 2): 1, (0, 2): 2, (4, 3): 1})
    data = c.to_json()
    assert data["basis"] == "weyl"
    assert [term["weight"] for term in data["terms"]] == [[6, 2], [4, 3], [0, 2]]
    assert Character.from_json(data) == c


def test_character_basis_validation():
    with pytest.raises(ValueError):
        Character("weyl", {(-1, 0): 1})
    Character("monomial", {(-1, 0): 1})  # fine
    with pytest.raises(ValueError):
        Character("schur", {})
    a = Character("weyl", {(1, 0): 1})
    b = Character("simple", {(1, 0): 1})
    with pytest.raises(ValueError):
        a + b
