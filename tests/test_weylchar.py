import random
from collections import namedtuple
from fractions import Fraction

import pytest

from sl3tensor.weights import WEYL_GROUP, dim_weyl, tau
from sl3tensor.weylchar import (
    Character,
    _lr_into,
    _monomial_items,
    lr_tensor,
    mult,
    mult_via_monomial,
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
    on norms of shifted weights; independent of the closed form."""
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

def _monomial_pairs(lam):
    """``(weight, multiplicity)`` pairs of the flat ``_monomial_items``."""
    items = _monomial_items(lam)
    assert type(items) is tuple and len(items) % 3 == 0
    assert all(type(v) is int for v in items)
    return [((x, y), m) for x, y, m in zip(items[::3], items[1::3], items[2::3])]


def test_monomial_items_examples():
    assert _monomial_items((1, 0)) == (1, 0, 1, -1, 1, 1, 0, -1, 1)
    assert dict(_monomial_pairs((1, 0))) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    adjoint = dict(_monomial_pairs((1, 1)))
    assert adjoint[(0, 0)] == 2
    assert sum(adjoint.values()) == 8
    c = dict(_monomial_pairs((2, 2)))
    assert sum(c.values()) == 27
    assert c[(0, 0)] == 3


@pytest.mark.parametrize("lam", [(0, 0), (1, 0), (2, 2), (3, 1), (4, 4), (5, 2)])
def test_monomial_items_match_freudenthal(lam):
    assert dict(_monomial_pairs(lam)) == freudenthal(lam)


def test_monomial_items_match_freudenthal_on_the_grid():
    # every cap min(a, b) and shell depth up to 8, then deeper and tilted shells
    extra = [(12, 12), (12, 0), (0, 12), (13, 5)]
    for lam in [(a, b) for a in range(9) for b in range(9)] + extra:
        assert dict(_monomial_pairs(lam)) == freudenthal(lam), lam


def _kostant_partition(v1, v2):
    """Ways to write (v1, v2) as c1*alpha1 + c2*alpha2 + m*theta, all >= 0."""
    n1, n2 = 2 * v1 + v2, v1 + 2 * v2
    if n1 < 0 or n2 < 0 or n1 % 3 or n2 % 3:
        return 0
    return min(n1 // 3, n2 // 3) + 1


def _monomial_items_by_partition(lam):
    """Reference: Kostant's alternating partition-function formula at every
    point of the (a+b+1)^2 grid of weights lam - c1*alpha1 - c2*alpha2."""
    a, b = lam
    images = [(image(a + 1, b + 1), sign) for image, sign in WEYL_GROUP]
    items = []
    for c1 in range(a + b + 1):
        for c2 in range(a + b + 1):
            x, y = a - 2 * c1 + c2, b + c1 - 2 * c2
            m = sum(sign * _kostant_partition(r - x - 1, s - y - 1)
                    for (r, s), sign in images)
            if m:
                items.append(((x, y), m))
    return items


def test_monomial_items_match_the_partition_formula_on_the_grid():
    for lam in [(a, b) for a in range(21) for b in range(21)]:
        assert sorted(_monomial_pairs(lam)) == sorted(_monomial_items_by_partition(lam)), lam


def test_monomial_items_dimension_is_weyl_formula():
    for a in range(7):
        for b in range(7):
            lam = (a, b)
            assert sum(m for _, m in _monomial_pairs(lam)) == dim_weyl(lam)


def test_monomial_product_natural_times_dual():
    prod = mult_via_monomial(
        Character("weyl", {(1, 0): 1}), Character("weyl", {(0, 1): 1})
    )
    assert prod == Character("weyl", {(1, 1): 1, (0, 0): 1})


def test_monomial_product_exact_for_big_coefficients():
    big = 2**40
    a = Character("weyl", {(3, 1): big, (0, 2): 7 - big, (1, 1): 3})
    b = Character("weyl", {(2, 2): big - 1, (0, 0): -big, (4, 0): 5})
    prod = mult_via_monomial(a, b)
    assert prod == mult(a, b)
    assert prod.coeffs[(5, 3)] == big * (big - 1)
    assert prod.dimension() == a.dimension() * b.dimension()


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


def test_lr_matches_monomial_on_a_full_grid():
    # every pair in the box pins the closed-form LR count, each bound of it
    grid = [(a, b) for a in range(6) for b in range(6)]
    for lam in grid:
        for mu in grid:
            assert lr_tensor(lam, mu) == mult_via_monomial(
                Character("weyl", {lam: 1}), Character("weyl", {mu: 1})
            ), (lam, mu)


def _lr_count_by_loop(nu, P, Q):
    """Reference: the closed form's enumeration over the free parameter n21."""
    skew1, skew2, skew3 = nu[0] - P[0], nu[1] - P[1], nu[2]
    if skew1 < 0 or skew2 < 0 or skew3 < 0:
        return 0
    n11, n33, count = skew1, Q[2], 0
    for n21 in range(min(skew2, P[0] - P[1], Q[0] - n11) + 1):
        n22 = skew2 - n21
        n31, n32 = Q[0] - n11 - n21, Q[1] - n22
        count += (n31 >= 0 and n32 >= 0 and n31 + n32 + n33 == skew3
                  and n31 <= P[1] and n31 + n32 <= P[1] + n21  # columns
                  and n22 <= n11 and n22 + n32 <= n11 + n21 and n33 <= n22)  # ballot
    return count


class _Writes(dict):
    """A dict that records each weight written into it, in order."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def __setitem__(self, w, c):
        self.writes.append(w)
        super().__setitem__(w, c)


def _lr_table(lam, mu):
    """The LR kernel's weights, in the order written, and counts (k = 1)."""
    out = _Writes()
    _lr_into(out, 1, lam, mu)
    return out.writes, [out[w] for w in out.writes]


def test_lr_items_match_the_loop_on_the_grid():
    # every partition of the right size, with its count by the loop: on the
    # 9 x 9 grid, then at the sizes of the p=13 box (coordinates up to 12),
    # every pair with a zero coordinate, where the kernel's row bounds
    # meet, and a seeded sample
    grid = [(a, b) for a in range(9) for b in range(9)]
    box = [(a, b) for a in range(13) for b in range(13)]
    rng = random.Random(13)
    pairs = [(lam, mu) for lam in grid for mu in grid]
    pairs += [(lam, mu) for lam in box for mu in box if 0 in lam + mu and max(lam + mu) > 8]
    pairs += [(rng.choice(box), rng.choice(box)) for _ in range(300)]
    for lam, mu in pairs:
        P = (lam[0] + lam[1], lam[1], 0)
        Q = (mu[0] + mu[1], mu[1], 0)
        total = sum(P) + sum(Q)
        expect = {}
        for nu3 in range(total // 3 + 1):
            for nu2 in range(nu3, (total - nu3) // 2 + 1):
                nu = (total - nu2 - nu3, nu2, nu3)
                count = _lr_count_by_loop(nu, P, Q)
                if count:
                    expect[(nu[0] - nu[1], nu[1] - nu[2])] = count
        weights, counts = _lr_table(lam, mu)
        assert len(weights) == len(counts) == len(expect), (lam, mu)
        assert dict(zip(weights, counts)) == expect, (lam, mu)


def test_lr_tables_repeat_with_exact_int_pair_weights():
    # a table built twice is the same, in the same order; each weight is a
    # plain pair of exact ints and each count a positive int
    grid = [(a, b) for a in range(7) for b in range(7)]
    entries = [_lr_table(lam, mu) for lam in grid for mu in grid]
    assert entries == [_lr_table(lam, mu) for lam in grid for mu in grid]
    weights = [w for ws, _ in entries for w in ws]
    assert all(type(w) is tuple and len(w) == 2 and type(w[0]) is int and type(w[1]) is int
               for w in weights)
    assert all(type(c) is int and c > 0 for _, cs in entries for c in cs)


def test_lr_kernel_adds_k_times_each_count_into_the_callers_dict():
    weights, counts = _lr_table((2, 1), (1, 3))
    out = {(0, 0): 5, weights[-1]: 1}
    _lr_into(out, -3, (2, 1), (1, 3))
    expect = {(0, 0): 5}
    for w, c in zip(weights, counts):
        expect[w] = expect.get(w, 0) - 3 * c
    expect[weights[-1]] += 1
    assert out == expect


@pytest.mark.parametrize("bad", [(1.5, 0), (True, 0), (0, False), (1, 0, 0)])
def test_product_entry_points_reject_malformed_weights(bad):
    for call in (lambda: lr_tensor(bad, (0, 1)), lambda: lr_tensor((0, 1), bad)):
        with pytest.raises(ValueError, match="weight must be two integers, got"):
            call()


def test_package_exports_exist_and_omit_the_removed_names():
    import sl3tensor

    missing = [name for name in sl3tensor.__all__ if not hasattr(sl3tensor, name)]
    assert missing == []
    for name in ("monomial_to_weyl", "weyl_to_monomial", "split_blocks", "greedy_tilting"):
        assert not hasattr(sl3tensor, name), name


def test_character_json_round_trip_and_order():
    c = Character("weyl", {(6, 2): 1, (0, 2): 2, (4, 3): 1})
    data = c.to_json()
    assert data["basis"] == "weyl"
    assert [term["weight"] for term in data["terms"]] == [[6, 2], [4, 3], [0, 2]]
    assert Character.from_json(data) == c


@pytest.mark.parametrize("terms", [
    [{"weight": [1.7, 0], "coeff": 2}],
    [{"weight": [1, 0], "coeff": 2.9}],
    [{"weight": [1, 0, 4], "coeff": 1}],
    [{"weight": [True, 0], "coeff": 1}],
    [{"weight": [1, 0], "coeff": 1}, {"weight": [1, 0], "coeff": 2}],
])
def test_character_from_json_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        Character.from_json({"basis": "weyl", "terms": terms})


@pytest.mark.parametrize("coeffs", [
    {(1.7, 0): 2.9},
    {(True, 0): 1},
    {(1, 0): 2.5},
    {(1, 0, 4): 1},
])
def test_character_rejects_malformed_terms(coeffs):
    with pytest.raises(ValueError, match="must be"):
        Character("weyl", coeffs)


def test_character_checks_accept_int_and_tuple_subclasses():
    # the exact-type fast path falls back to the general test, not to a refusal
    class Int(int):
        pass

    W = namedtuple("W", "a b")
    assert Character("weyl", {W(Int(1), 0): Int(2)}) == Character("weyl", {(1, 0): 2})
    with pytest.raises(ValueError, match="non-dominant support"):
        Character("weyl", {W(Int(-1), 0): 1})


def test_combine_rejects_a_non_integer_factor():
    c = Character("weyl", {(1, 0): 2})
    with pytest.raises(ValueError, match="must be an integer"):
        Character("weyl").combine([(0.5, c)])


@pytest.mark.parametrize("k", [True, False])
def test_combine_rejects_a_bool_factor_as_construction_does(k):
    c = Character("weyl", {(1, 0): 2})
    with pytest.raises(ValueError, match=f"coefficient must be an integer, got {k}"):
        Character("weyl", {(1, 0): k})
    with pytest.raises(ValueError, match=f"coefficient must be an integer, got {k}"):
        Character("weyl").combine([(k, c)])


def test_equal_characters_hash_equal_however_built():
    terms = {(2, 1): 3, (0, 0): -1, (1, 1): 2}
    checked = Character("weyl", terms)
    trusted = Character._trusted("weyl", dict(reversed(list(terms.items()))))
    assert list(checked.coeffs) != list(trusted.coeffs)  # insertion orders differ
    assert checked == trusted and hash(checked) == hash(trusted)
    assert hash(Character("weyl", {**terms, (5, 5): 0})) == hash(checked)  # zeros dropped
    assert len({checked, trusted, Character("simple", terms)}) == 2


def test_subtraction_is_combine_with_minus_one():
    a = Character("weyl", {(2, 1): 3, (0, 0): 1})
    b = Character._trusted("weyl", {(2, 1): 3, (1, 1): 2})
    assert a - b == a.combine(((-1, b),)) == Character("weyl", {(0, 0): 1, (1, 1): -2})
    assert a - a == Character("weyl") and not (a - a).coeffs
    with pytest.raises(ValueError, match="basis mismatch: weyl vs simple"):
        a - Character("simple", {(0, 0): 1})


def test_character_basis_validation():
    with pytest.raises(ValueError):
        Character("weyl", {(-1, 0): 1})
    with pytest.raises(ValueError, match="unknown basis"):
        Character("monomial", {(1, 0): 1})
    with pytest.raises(ValueError, match="unknown basis"):
        Character.from_json({"basis": "monomial", "terms": []})
    with pytest.raises(ValueError):
        Character("schur", {})
    a = Character("weyl", {(1, 0): 1})
    b = Character("simple", {(1, 0): 1})
    with pytest.raises(ValueError):
        a + b
