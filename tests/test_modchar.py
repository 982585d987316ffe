import re
import sys

import pytest

from sl3tensor.alcoves import _placed, canonical_rep, classify, linked_weight, region_weights
from sl3tensor.decompose import decompose
from sl3tensor.modchar import (
    from_simple_basis,
    m_char,
    simple_char,
    simple_dim,
    tilting_char,
    to_simple_basis,
    weyl_comp_factors,
)
from sl3tensor.structures import diagram
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
    c = to_simple_basis(m_char((1, 3), 5), 5)
    assert c == Character("simple", {(1, 3): 2, (7, 0): 1, (0, 5): 1, (0, 2): 1})
    assert m_char((1, 3), 5).dimension() == 63
    assert from_simple_basis(c, 5).dimension() == 63
    assert m_char((1, 3), 5) == Character(
        "weyl", {(7, 0): 1, (0, 5): 1, (0, 2): 1}
    )
    c2 = to_simple_basis(m_char((2, 2), 5), 5)
    assert c2 == Character("simple", {(2, 2): 2, (6, 0): 1, (0, 6): 1, (1, 1): 1})


def test_m_char_requires_second_alcove():
    with pytest.raises(ValueError):
        m_char((0, 0), 5)
    with pytest.raises(ValueError):
        m_char((4, 1), 5)  # wall weight


def test_m_char_is_memoized():
    first = m_char((1, 3), 5)
    hits = m_char.cache_info().hits
    assert m_char((1, 3), 5) is first
    assert m_char.cache_info().hits == hits + 1
    for _ in range(2):  # errors are not cached: each call raises again
        with pytest.raises(ValueError):
            m_char((0, 0), 5)


@pytest.mark.parametrize("fn, good, bads", [  # the weight arguments, then p
    (simple_char, ((1, 0),), [((1.0, 0),), ((True, 0),)]),
    (simple_dim, ((1, 0),), [((1.0, 0),), ((True, 0),)]),
    (tilting_char, ((2, 0),), [((2.0, 0),), ((2, False),)]),
    (m_char, ((1, 3),), [((1.0, 3),), ((True, 3),)]),
    (decompose, ((1, 0), (0, 1)), [((1.0, 0), (0, 1)), ((1, 0), (0, True))]),
    (classify, ((1, 0),), [((1.0, 0),), ((True, 0),)]),
    (canonical_rep, ((1, 0),), [((1.0, 0),), ((True, 0),)]),
])
def test_cached_functions_check_the_weight_before_the_cache(fn, good, bads):
    # (1.0, 0) and (True, 0) hash as (1, 0), and 5.0 and True as 5 and 1: a
    # cold and a warm cache must both reject them.  The two alcove gates read
    # one memo, _placed, so each is tried warm after the other placed the weight
    gates = {classify: canonical_rep, canonical_rep: classify}
    memo = _placed if fn in gates else fn
    memo.cache_clear()
    for warm in (False, True):
        if warm:
            gates.get(fn, fn)(*good, 5)
        for bad in bads:
            assert bad == good
            with pytest.raises(ValueError, match="weight must be two integers, got"):
                fn(*bad, 5)
        for p in (5.0, True):
            with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
                fn(*good, p)
    if fn in gates:  # a gate keeps no memo of its own
        assert _placed.cache_info().currsize == 1 and not hasattr(fn, "cache_info")
        return
    # the cache's counters, the cache itself as cached, and the uncached body
    # as __wrapped__
    assert fn.cache_info().currsize >= 1 and not hasattr(fn.__wrapped__, "cache_info")
    assert fn.cached.__wrapped__ is fn.__wrapped__ and fn.cached.cache_info() == fn.cache_info()


def test_a_placed_non_dominant_weight_is_still_refused():
    # canonical_rep answers for any weight, so _placed holds (-1, 0) with
    # facet OUT; every reader that needs a dominant weight still refuses it
    _placed.cache_clear()
    assert canonical_rep((-1, 0), 5) == (-1, 0)
    assert _placed.cache_info().currsize == 1 and _placed((-1, 0), 5) == ((-1, 0), "out")
    for fn in (classify, simple_char, tilting_char, m_char, weyl_comp_factors):
        with pytest.raises(ValueError, match=re.escape("non-dominant weight (-1, 0)")):
            fn((-1, 0), 5)


def test_a_missing_linked_weight_raises_instead_of_truncating(monkeypatch):
    # (3, 1) lies in C2 at p=5; its C1 weight (2, 0) is a Weyl factor of
    # its simple and its tilting character and a composition factor of its
    # Weyl module.  Drop it from the linked weights that modchar reads
    # (through sys.modules: the package's names shadow its submodules).
    modchar = sys.modules["sl3tensor.modchar"]
    real = modchar._linked
    monkeypatch.setattr(modchar, "_linked",
                        lambda rep, f, p: None if f == "C1" else real(rep, f, p))
    caches = (simple_char, tilting_char, m_char)
    for fn in caches:
        fn.cache_clear()
    try:
        message = "no weight linked to (3, 1) below it in facet C1 of C2, p=5"
        for fn in (simple_char, tilting_char, weyl_comp_factors):
            with pytest.raises(AssertionError, match=re.escape(message)):
                fn((3, 1), 5)
        # M's record holds C1, so its character is incomplete too; two of
        # its weights lie above (3, 1), so it is not bounded by it
        with pytest.raises(AssertionError, match=re.escape(
                "no weight linked to (3, 1) in facet C1 of C2, p=5")):
            m_char((3, 1), 5)
    finally:
        for fn in caches:
            fn.cache_clear()


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
        assert m_char(w, p) == Character(
            "weyl", {mu3: 1, mu3p: 1, mu1: 1}
        )


@pytest.mark.parametrize("p", [5, 7, 11])
def test_m_char_is_the_sum_of_its_records_simple_characters(p):
    """The facet expansion of M gives what summing the simple characters of
    the ``m`` record's factors, each at w's linked weight, gives."""
    factors = diagram("C2", "m").layer_multiset()
    for w in region_weights(p):
        if classify(w, p) == "C2":
            assert m_char(w, p) == Character("weyl").combine(
                (k, simple_char(linked_weight(w, f, p), p)) for f, k in factors.items()), (p, w)


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
        m_prime = to_simple_basis(m_char(w, p), p) + Character("simple", {mu1: 1})
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
        # the lead, which the summed composition factors must cancel again
        s = Character("simple", coeffs)
        assert to_simple_basis(from_simple_basis(s, p), p) == s
