import random

import pytest

from sl3tensor.weights import (
    dim_weyl,
    dominance_leq,
    dot_reflect,
    format_weight,
    pairings,
    parse_weight,
    tau,
)


def brute_dominance(mu, lam, bound=60):
    """Oracle: search small nonnegative root coefficients directly."""
    for c1 in range(bound):
        for c2 in range(bound):
            diff = (2 * c1 - c2, -c1 + 2 * c2)
            if (lam[0] - diff[0], lam[1] - diff[1]) == mu:
                return True
    return False


def test_pairings_examples():
    assert pairings((0, 0)) == (1, 1, 2)
    assert pairings((3, 1)) == (4, 2, 6)
    assert pairings((4, 4)) == (5, 5, 10)


def test_pairings_sum_identity():
    rng = random.Random(1)
    for _ in range(200):
        w = (rng.randint(-20, 20), rng.randint(-20, 20))
        r, s, t = pairings(w)
        assert t == r + s


def test_tau():
    assert tau((3, 1)) == (1, 3)
    assert tau((2, 2)) == (2, 2)
    assert tau(tau((7, 0))) == (7, 0)


def test_dominance_examples():
    assert dominance_leq((0, 0), (1, 1))
    assert dominance_leq((2, 4), (6, 2))
    assert not dominance_leq((0, 2), (3, 1))


def test_dominance_against_brute_force():
    rng = random.Random(2)
    for _ in range(300):
        mu = (rng.randint(0, 8), rng.randint(0, 8))
        lam = (rng.randint(0, 8), rng.randint(0, 8))
        assert dominance_leq(mu, lam) == brute_dominance(mu, lam)


def test_dominance_partial_order():
    rng = random.Random(3)
    ws = [(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(40)]
    for a in ws:
        assert dominance_leq(a, a)
    for a in ws:
        for b in ws:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
            for c in ws:
                if dominance_leq(a, b) and dominance_leq(b, c):
                    assert dominance_leq(a, c)


def test_dim_weyl():
    assert dim_weyl((1, 1)) == 8
    assert dim_weyl((4, 4)) == 125
    assert dim_weyl((3, 1)) == 24
    with pytest.raises(ValueError):
        dim_weyl((-1, 2))


def test_dim_weyl_tau_invariant():
    for a in range(10):
        for b in range(10):
            assert dim_weyl((a, b)) == dim_weyl(tau((a, b)))


def test_dot_reflect_examples():
    assert dot_reflect((2, 2), "theta", 1, 5) == (1, 1)
    assert dot_reflect((0, 5), "a2", 1, 5) == (1, 3)
    assert dot_reflect((4, 1), "a1", 1, 5) == (4, 1)


def test_dot_reflect_is_involution_and_reflects_pairing():
    rng = random.Random(4)
    index = {"a1": 0, "a2": 1, "theta": 2}
    for _ in range(300):
        w = (rng.randint(-6, 12), rng.randint(-6, 12))
        root = rng.choice(["a1", "a2", "theta"])
        m = rng.randint(0, 3)
        p = rng.choice([5, 7])
        image = dot_reflect(w, root, m, p)
        assert dot_reflect(image, root, m, p) == w
        n = pairings(w)[index[root]]
        assert pairings(image)[index[root]] == 2 * m * p - n
        # the other two pairings swap, shifted by the reflection level
        r, s, t = pairings(w)
        r2, s2, t2 = pairings(image)
        if root == "a1":
            assert (s2, t2) == (t - m * p, s + m * p)
        elif root == "a2":
            assert (r2, t2) == (t - m * p, r + m * p)
        else:
            assert (r2, s2) == (m * p - s, m * p - r)


def test_weight_text_round_trip():
    assert parse_weight("3,1") == (3, 1)
    assert parse_weight(" 4 , 4 ") == (4, 4)
    assert parse_weight(format_weight((-2, 9))) == (-2, 9)
    with pytest.raises(ValueError):
        parse_weight("3;1")
    with pytest.raises(ValueError):
        parse_weight("3,1,0")


@pytest.mark.parametrize("text", ["1_0,0", "\u0663,0", "0,\u00b2", "1,\uff11", "+-1,0", "1,",
                                  "0x1,0", "1e1,0"])
def test_parse_weight_reads_only_a_sign_and_ascii_digits(text):
    # int() alone reads 1_0 as 10 and the Arabic-Indic or fullwidth digits
    with pytest.raises(ValueError, match="expected 'a,b' with integer entries"):
        parse_weight(text)


def test_parse_weight_keeps_signs_and_spaces():
    assert parse_weight("+3, -1") == (3, -1)
    assert parse_weight("\t07 ,0 ") == (7, 0)
