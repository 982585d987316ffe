import random
import re
import signal
from math import isqrt

import pytest

from sl3tensor import (
    Character,
    Summand,
    canonical_rep,
    classify,
    decompose,
    from_simple_basis,
    linked_weight,
    m_char,
    simple_char,
    simple_dim,
    tensor_char,
    tilting_char,
    to_simple_basis,
    weyl_comp_factors,
)
from sl3tensor.alcoves import _class, region_weights
from sl3tensor.decompose import summand_dim
from sl3tensor.weights import (
    _PRIME_BOUND,
    _is_prime,
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


# Every library function that takes p and answers from the region or the
# records (sweep checks p on its own), called at weights that are valid at
# p=5.  The memoized entry points, classify and canonical_rep among them,
# check p before their cache (an int p in the body, at a miss), summand_dim
# before its dimension cache, and the others read the memoized entry points
# or check p themselves.
TAKES_P = {
    "classify": lambda p: classify((1, 1), p),
    "canonical_rep": lambda p: canonical_rep((3, 3), p),
    "linked_weight": lambda p: linked_weight((0, 0), "C2", p),
    "region_weights": lambda p: region_weights(p),
    "weyl_comp_factors": lambda p: weyl_comp_factors((1, 1), p),
    "to_simple_basis": lambda p: to_simple_basis(Character("weyl", {(1, 1): 1}), p),
    "from_simple_basis": lambda p: from_simple_basis(Character("simple", {(1, 1): 1}), p),
    "simple_char": lambda p: simple_char((1, 1), p),
    "simple_dim": lambda p: simple_dim((1, 1), p),
    "tilting_char": lambda p: tilting_char((3, 3), p),
    "m_char": lambda p: m_char((1, 3), p),
    "tensor_char": lambda p: tensor_char((1, 1), (0, 0), p),
    "decompose": lambda p: decompose((1, 1), (0, 0), p),
    "summand_dim": lambda p: summand_dim(Summand("T", (1, 1), 1), p),
}


def _hung(*_):
    raise TimeoutError("no answer within the alarm")


@pytest.mark.parametrize("name", list(TAKES_P))
def test_every_function_that_takes_p_refuses_a_bad_p(name):
    # cold, then with the p=5 answer and its class cached, since 5.0
    # and True hash as 5 and 1; the message tells "5" from 5; the alarm fails
    # a call that never returns, as canonical_rep's walk would at a negative
    # p; an unhashable p must not reach a cache or the arithmetic
    call = TAKES_P[name]
    _class.cache_clear()
    for memo in (classify, canonical_rep, simple_char, simple_dim, tilting_char, m_char,
                 decompose):
        memo.cache_clear()
    previous = signal.signal(signal.SIGALRM, _hung)
    try:
        for warm in (False, True):
            if warm:
                call(5)
            for p in (0, 1, 2, 3, 4, 6, 9, -5, 5.0, True, "5", [5]):
                message = f"p must be a prime >= 5, got {p!r}"
                signal.alarm(2)
                with pytest.raises(ValueError, match=re.escape(message)):
                    call(p)
                signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _trial_division(n):
    return n >= 5 and all(n % q for q in range(2, isqrt(n) + 1))


def test_the_primality_test_agrees_with_trial_division():
    assert [n for n in range(-5, 20000) if _is_prime(n) != _trial_division(n)] == []


def test_the_primality_test_refuses_strong_pseudoprimes_to_small_bases():
    # 3215031751 and 3825123056546413051, strong pseudoprimes to the bases
    # 2, 3, 5, 7 and to every prime base up to 23: more bases must be tried
    for n in (151 * 751 * 28351, 149491 * 747451 * 34233211):
        assert not _is_prime(n)
        with pytest.raises(ValueError, match=re.escape(f"p must be a prime >= 5, got {n}")):
            classify((0, 0), n)


def test_a_p_past_the_exact_range_of_the_primality_test_is_refused():
    for p in (_PRIME_BOUND, _PRIME_BOUND + 2, 10**400):
        with pytest.raises(ValueError, match=re.escape(f"p must be below {_PRIME_BOUND}")):
            classify((0, 0), p)


def test_a_huge_prime_answers_at_once():
    # nothing is built per prime, and the primality test takes 13 rounds
    previous = signal.signal(signal.SIGALRM, _hung)
    try:
        signal.alarm(2)
        assert classify((0, 0), 10**18 + 3) == "C1"
        assert canonical_rep((3, 3), 10**18 + 3) == (3, 3)
        assert linked_weight((0, 0), "C1", 10**18 + 3) == (0, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
