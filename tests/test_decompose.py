import concurrent.futures
import hashlib
import importlib
import json
import os
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3tensor.alcoves import (
    ALL_FACETS,
    _linked,
    _placed,
    canonical_rep,
    classify,
    linked_weight,
    region_weights,
    restricted_weights,
    sigma,
)
from sl3tensor.decompose import (
    FLOOR_FACETS,
    KINDS,
    Check,
    Decomposition,
    IntegrityError,
    Report,
    Summand,
    SweepResult,
    _CACHED_CHAR,
    _buckets,
    _change,
    _kind_terms,
    _resolve_block,
    _resolve_facets,
    _row,
    _summand,
    _sweep_row,
    decompose,
    summand_dim,
    sweep,
    tensor_char,
    verify,
)
from sl3tensor.modchar import (
    _expansion,
    m_char,
    simple_char,
    simple_dim,
    tilting_char,
    tilting_delta_factors,
    to_simple_basis,
    weyl_comp_factors,
)
from sl3tensor.structures import delta_factors, diagram
from sl3tensor.weights import pairings, parse_weight, tau
from sl3tensor.weylchar import Character, _lr_product, mult_via_monomial, sort_key


def summand_set(d):
    return {(s.kind, s.weight, s.multiplicity) for s in d.summands}


def summands_char(summands, p):
    """Weyl-basis character of the direct sum of the summands."""
    return Character("weyl").combine(
        (s.multiplicity, _CACHED_CHAR[s.kind](s.weight, p)) for s in summands)


def test_tensor_char_examples():
    tc = tensor_char((3, 1), (3, 1), 5)
    assert tc == Character(
        "weyl", {(6, 2): 1, (7, 0): 1, (4, 3): 1, (2, 4): 1, (0, 5): 1, (0, 2): 2}
    )
    assert tc.dimension() == 324

    assert tensor_char((0, 0), (4, 4), 5) == Character("weyl", {(4, 4): 1})

    tc2 = tensor_char((2, 2), (1, 1), 5)
    assert to_simple_basis(tc2, 5) == Character(
        "simple", {(3, 3): 1, (1, 4): 1, (4, 1): 1, (2, 2): 1}
    )
    assert tc2.dimension() == 152


def test_tensor_char_rejects_bad_input():
    with pytest.raises(ValueError):
        tensor_char((5, 0), (0, 0), 5)
    with pytest.raises(ValueError):
        tensor_char((0, 0), (0, 0), 4)
    with pytest.raises(ValueError):
        tensor_char((0, 0), (0, 0), 9)


def _in_weights(rep, pattern, p):
    """A block's ``{facet: k}`` pattern (or its items) read back as ``{weight: k}``."""
    return {_linked(rep, f, p): k for f, k in dict(pattern).items()}


def test_buckets_case3():
    tc = tensor_char((3, 1), (3, 1), 5)
    patterns = _buckets(tc.coeffs, 5)
    # each pattern keys a weight's coefficient by its facet, in the product's order
    for rep, pattern in patterns.items():
        assert list(_in_weights(rep, pattern, 5).items()) == [
            (w, k) for w, k in tc.coeffs.items() if canonical_rep(w, 5) == rep]
        assert all(classify(w, 5) == f for w, f in zip(_in_weights(rep, pattern, 5), pattern))
    blocks = {rep: _in_weights(rep, pattern, 5) for rep, pattern in patterns.items()}
    # keyed by the canonical linkage representative of each support weight
    for rep, b in blocks.items():
        assert all(canonical_rep(w, 5) == rep for w in b)
    supports = sorted(tuple(sorted(b)) for b in blocks.values())
    assert supports == [
        ((0, 2), (0, 5), (7, 0)),
        ((2, 4), (6, 2)),
        ((4, 3),),
    ]
    total = Character("weyl").combine(
        (1, Character._trusted("weyl", b)) for b in blocks.values())
    assert total == tc


def test_buckets_trivial_and_case2():
    assert len(_buckets({(0, 0): 1}, 5)) == 1
    blocks = _buckets(tensor_char((2, 2), (1, 1), 5).coeffs, 5)
    assert len(blocks) == 4
    # each block carries a single simple character
    for rep, pattern in blocks.items():
        coeffs = _in_weights(rep, pattern, 5)
        assert len(to_simple_basis(Character._trusted("weyl", coeffs), 5).coeffs) == 1
    # out of the region: inside the box around it, and past the box
    for w in ((14, 0), (30, 30)):
        with pytest.raises(ValueError, match="outside the region"):
            _buckets({w: 1}, 5)


def _resolve_character(c, case, p):
    """Every block of a Weyl-basis character, resolved and concatenated."""
    return [s for rep, pattern in sorted(_buckets(c.coeffs, p).items())
            for s in _resolve_block(rep, tuple(pattern.items()), case, p)]


def test_greedy_tilting_examples():
    singular = Character("weyl", {(6, 2): 1, (2, 4): 1})
    assert [(s.kind, s.weight, s.multiplicity) for s in _resolve_character(singular, 1, 5)] == [
        ("T", (6, 2), 1)]

    st = Character("weyl", {(4, 4): 1})
    assert [(s.kind, s.weight, s.multiplicity) for s in _resolve_character(st, 1, 5)] == [
        ("T", (4, 4), 1)]

    got = _resolve_character(tensor_char((1, 1), (1, 1), 5), 1, 5)
    assert {(s.kind, s.weight, s.multiplicity) for s in got} == {
        ("T", (2, 2), 1), ("T", (3, 0), 1), ("T", (0, 3), 1), ("T", (1, 1), 1), ("T", (0, 0), 1)
    }


@pytest.mark.parametrize("p", [5, 7, 13])
def test_greedy_tilting_recovers_tilting_combination(p):
    rng = random.Random(p)
    weights = region_weights(p)
    for _ in range(25):
        combo = {rng.choice(weights): rng.randint(1, 4) for _ in range(6)}
        block = Character("weyl").combine(
            (k, tilting_char(w, p)) for w, k in combo.items()
        )
        got = _resolve_character(block, 1, p)
        assert all(s.kind == "T" for s in got)
        assert sorted((s.weight, s.multiplicity) for s in got) == sorted(combo.items())


def test_greedy_negative_coefficient_is_integrity_error():
    with pytest.raises(IntegrityError) as info:
        _resolve_block((0, 0), (("C1", -1),), 1, 5)
    assert str(info.value) == "negative multiplicity -1 at (0, 0) during greedy pass"
    assert info.value.block == (0, 0)


def test_the_floor_solve_inverts_the_stored_records():
    # simple coordinates at the floor facets of T(C3), T(C3'), T(C2) and
    # M + T(C1), read from the layers of the stored diagrams
    def floor(*records):
        counts = sum((diagram(f, kind).layer_multiset() for f, kind in records), Counter())
        return tuple(counts[f] for f in FLOOR_FACETS)

    rows = [floor(("C3", "tilting")), floor(("C3p", "tilting")), floor(("C2", "tilting")),
            floor(("C2", "m"), ("C1", "tilting"))]
    assert rows == [(1, 0, 2, 1), (0, 1, 2, 1), (0, 0, 1, 2), (1, 1, 2, 2)]
    assert [case3_floor_solve(*row) for row in rows] == [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_case3_floor_solve():
    assert case3_floor_solve(1, 1, 2, 2) == (0, 0, 0, 1)
    assert case3_floor_solve(1, 0, 2, 1) == (1, 0, 0, 0)
    with pytest.raises(IntegrityError):
        case3_floor_solve(1, 1, 2, 1)
    with pytest.raises(IntegrityError):
        case3_floor_solve(0, 0, 1, 0)  # z = -..., negative part


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_every_regular_class_has_its_four_floor_weights(p):
    # the case-3 floor solve relies on this: no floor weight is ever absent
    reps = {canonical_rep(w, p) for w in region_weights(p)}
    regular = [rep for rep in reps if all(n % p for n in pairings(rep))]
    assert len(regular) == (p - 1) * (p - 2) // 2  # the open bottom alcove
    assert FLOOR_FACETS == ("C3", "C3p", "C2", "C1")
    for rep in regular:
        floor = [linked_weight(rep, f, p) for f in FLOOR_FACETS]
        assert None not in floor
        assert [classify(mu, p) for mu in floor] == ["C3", "C3p", "C2", "C1"]


def test_cached_characters_are_immutable():
    c = tilting_char((1, 1), 5)
    with pytest.raises(TypeError):
        c.coeffs[(0, 0)] = 7
    with pytest.raises(AttributeError):
        c.coeffs = {(0, 0): 7}
    with pytest.raises(AttributeError):
        c.basis = "simple"
    with pytest.raises(AttributeError):
        del c.coeffs
    assert c == Character("weyl", {(1, 1): 1})
    # recomputed past the result cache, so the cached character is read; in
    # the order nu <= nu2, which the uncached body computes, not copies
    assert str(decompose.__wrapped__((0, 1), (1, 0), 5)) == "T(1,1) + T(0,0)"


def test_decompose_case3_worked_example():
    d = decompose((3, 1), (3, 1), 5)
    assert d.case == 3
    assert summand_set(d) == {
        ("M", (1, 3), 1), ("T", (0, 2), 1), ("T", (6, 2), 1), ("T", (4, 3), 1)
    }
    assert d.dim_product == 324
    assert [summand_dim(s, 5) for s in d.summands] == [165, 90, 63, 6]
    report = verify(d)
    assert report.passed
    # the public report, pinned: its checks' names, verdicts and details
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("character-sum", True, ""), ("dimension", True, "324 vs 324"),
        ("summand-shape", True, ""), ("tau-equivariance", True, "")]
    assert all(type(c) is Check and c.ok is True for c in report.checks)


def test_decompose_case2_worked_example():
    d = decompose((2, 2), (1, 1), 5)
    assert d.case == 2
    assert summand_set(d) == {
        ("L", (3, 3), 1), ("T", (1, 4), 1), ("T", (4, 1), 1), ("L", (2, 2), 1)
    }
    assert sorted(summand_dim(s, 5) for s in d.summands) == [19, 35, 35, 63]
    assert d.dim_product == 152
    assert verify(d).passed


def test_decompose_case1():
    d = decompose((1, 1), (1, 1), 5)
    assert d.case == 1
    assert summand_set(d) == {
        ("T", (2, 2), 1), ("T", (3, 0), 1), ("T", (0, 3), 1),
        ("T", (1, 1), 1), ("T", (0, 0), 1),
    }
    assert sorted(summand_dim(s, 5) for s in d.summands) == [1, 8, 10, 10, 35]


def test_decompose_unit_factor():
    d = decompose((0, 0), (0, 0), 5)
    assert summand_set(d) == {("T", (0, 0), 1)}
    d = decompose((0, 0), (4, 4), 5)
    assert summand_set(d) == {("T", (4, 4), 1)}


def test_decompose_steinberg_square():
    d = decompose((4, 4), (4, 4), 5)
    assert all(s.kind == "T" for s in d.summands)
    assert sum(summand_dim(s, 5) for s in d.summands) == 15625
    assert verify(d).passed


@pytest.mark.parametrize("p", [5, 7])
def test_steinberg_times_any_simple_is_tilting(p):
    # a literature oracle: for p >= 2h - 2 = 4, St x L(lam) is tilting for
    # every restricted lam (Jantzen, RAGS II.E), with T((p-1)rho + lam) once;
    # not automatic in case 2, which may place L summands
    st = (p - 1, p - 1)
    for lam in restricted_weights(p):
        top = Summand("T", (p - 1 + lam[0], p - 1 + lam[1]), 1)
        for d in (decompose(st, lam, p), decompose(lam, st, p)):
            assert all(s.kind == "T" for s in d.summands) and top in d.summands, (p, lam)


def test_verify_catches_perturbation():
    d = decompose((3, 1), (3, 1), 5)
    broken = type(d)(
        p=d.p, left=d.left, right=d.right, case=d.case,
        summands=[
            Summand(s.kind, s.weight, s.multiplicity + (1 if i == 0 else 0))
            for i, s in enumerate(d.summands)
        ],
        dim_product=d.dim_product,
    )
    report = verify(broken)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "character-sum" in names


def _bare(*fields):  # a tuple in place of a Summand
    return fields


# Summand entries that cannot occur: (build, fields, refusal).  Where an
# entry breaks a rule on the record's own fields, construction refuses it
# with the ValueError ``refusal``; the others build, and verify reports them.
MISSHAPEN = [
    (Summand, ("X", (0, 0), 1), "kind must be one of T, L, M, got 'X'"),
    (Summand, ("M", (0, 0), 1), None),
    (Summand, ("T", (99, 0), 1), None),
    (Summand, ("T", (-1, 0), 1), "weight (-1, 0) is not dominant"),
    (Summand, ("L", (1, 0), 1), None),  # off C2, but its character computes
    (Summand, ("M", (1, 3), 1), None),  # at C2, but case 1 holds no M
    (Summand, ("L", (1, 3), 1), None),  # at C2, but case 1 holds no L
    (Summand, ("T", (1, 0), True), "multiplicity must be a positive int, got True"),
    (Summand, ("T", (1, 0), 1.0), "multiplicity must be a positive int, got 1.0"),
    (Summand, ("T", (1, 0), 1.5), "multiplicity must be a positive int, got 1.5"),
    (Summand, ("T", (1, 0), "1"), "multiplicity must be a positive int, got '1'"),
    (Summand, ("T", (1.0, 0), 1), "weight must be two integers, got (1.0, 0)"),
    (_bare, ("T", (1, 0), 1), "summand must be a Summand, got ('T', (1, 0), 1)"),
    (Summand, ("T", None, 1), "weight must be two integers, got None"),
    (Summand, ("T", 5, 1), "weight must be two integers, got 5"),
    (Summand, ("T", (1,), 1), "weight must be two integers, got (1,)"),
    (Summand, ("T", (1, 0), 0), "multiplicity must be a positive int, got 0"),
    (Summand, ("T", (1, 0), -1), "multiplicity must be a positive int, got -1"),
]


def _assert_refused(build, fields, refusal, before=()):
    """Building the entry, or a decomposition of L(1,0) x L(0,1) at p=5 that
    holds it after ``before``, raises ``refusal``."""
    with pytest.raises(ValueError) as info:
        Decomposition(5, (1, 0), (0, 1), 1, before + (build(*fields),), 9)
    assert str(info.value) == refusal


@pytest.mark.parametrize("bad", MISSHAPEN)
def test_verify_reports_misshapen_summand(bad):
    build, fields, refusal = bad
    d = decompose((1, 0), (0, 0), 5)
    assert verify(d).passed
    if refusal:  # no record holding it can be built, so verify never sees it
        _assert_refused(build, fields, refusal)
        return
    bad = build(*fields)
    report = verify(Decomposition(p=d.p, left=d.left, right=d.right, case=d.case,
                                  summands=(bad,), dim_product=d.dim_product))
    assert [c.name for c in report.checks] == [
        "character-sum", "dimension", "summand-shape", "tau-equivariance"]
    named = str(bad)
    failed = {c.name: c.detail for c in report.failures()}
    for name in ("character-sum", "dimension", "summand-shape", "tau-equivariance"):
        assert named in failed[name]


@pytest.mark.parametrize("bad", MISSHAPEN)
def test_verify_reports_a_misshapen_summand_after_valid_ones(bad):
    # the pass over the summands stops at the misshapen one and reports
    # nothing it computed from the valid ones before it
    build, fields, refusal = bad
    d = decompose((1, 0), (0, 1), 5)
    assert d.case == 1 and len(d.summands) == 2 and verify(d).passed
    if refusal:  # refused whatever comes before it
        _assert_refused(build, fields, refusal, before=d.summands)
        return
    bad = build(*fields)
    alone, after = (verify(Decomposition(5, (1, 0), (0, 1), 1, summands, d.dim_product))
                    for summands in ((bad,), d.summands + (bad,)))
    assert [c.name for c in after.checks] == [
        "character-sum", "dimension", "summand-shape", "tau-equivariance"]
    assert not any(c.ok for c in after.checks)
    assert after.checks == alone.checks


def test_verify_a_raised_multiplicity_fails_the_sum_and_the_dimension():
    d = decompose((3, 1), (3, 1), 5)
    first = d.summands[0]
    raised = (Summand(first.kind, first.weight, first.multiplicity + 1),) + d.summands[1:]
    report = verify(Decomposition(5, d.left, d.right, d.case, raised, d.dim_product))
    failed = {c.name: c.detail for c in report.failures()}
    assert set(failed) == {"character-sum", "dimension", "tau-equivariance"}
    assert failed["dimension"] == f"{d.dim_product + summand_dim(first, 5)} vs {d.dim_product}"
    assert [c.name for c in report.checks if c.ok] == ["summand-shape"]


@pytest.mark.parametrize("summands", [None, Summand("T", (1, 0), 1), "T(1,0)"],
                         ids=["none", "bare-summand", "string"])
def test_verify_reports_summands_that_are_not_a_sequence(summands):
    # a bare Summand is the right answer for this pair, yet not a tuple of
    # them; the record refuses it, so verify never sees one
    with pytest.raises(ValueError) as info:
        Decomposition(5, (1, 0), (0, 0), 1, summands, 3)
    assert str(info.value) == f"summands must be a tuple or list, got {summands!r}"


def test_verify_requires_an_m_in_case_3():
    d = decompose((3, 1), (3, 1), 5)
    without_m = tuple(s for s in d.summands if s.kind != "M")
    assert len(without_m) == len(d.summands) - 1
    report = verify(Decomposition(p=d.p, left=d.left, right=d.right, case=d.case,
                                  summands=without_m, dim_product=d.dim_product))
    failed = {c.name: c.detail for c in report.failures()}
    assert failed["summand-shape"] == "no M summand in case 3"


@pytest.mark.parametrize("pair, case, detail", [
    (((3, 1), (3, 1)), 1, "case 1 recorded, case 3 from the weights"),
    (((1, 0), (0, 1)), 3, "case 3 recorded, case 1 from the weights"),
])
def test_verify_checks_the_recorded_case(pair, case, detail):
    d = decompose(*pair, 5)
    assert verify(d).passed
    report = verify(Decomposition(5, *pair, case, d.summands, d.dim_product))
    failed = {c.name: c.detail for c in report.failures()}
    assert failed == {"summand-shape": detail}


@pytest.mark.parametrize("p, left, right, named", [
    (4, (1, 0), (0, 0), "p must be a prime >= 5, got 4"),
    (9, (1, 0), (0, 0), "p must be a prime >= 5, got 9"),
    (5.0, (1, 0), (0, 0), "p must be a prime >= 5, got 5.0"),
    (True, (1, 0), (0, 0), "p must be a prime >= 5, got True"),
    (5, (9, 9), (0, 0), "weight (9, 9) is not restricted for p=5"),
    (5, (0, 0), (5, 0), "weight (5, 0) is not restricted for p=5"),
    (5, (0, -1), (0, 0), "weight (0, -1) is not restricted for p=5"),
    (5, (1.0, 0), (0, 0), "weight must be two integers, got (1.0, 0)"),
    (5, (1, 0), (True, 0), "weight must be two integers, got (True, 0)"),
    (5, (1, 0), (1, 0, 0), "weight must be two integers, got (1, 0, 0)"),
    (5, (1, 0), None, "weight must be two integers, got None"),
], ids=["p4", "p9", "p5.0", "pTrue", "unrestricted", "unrestricted-right", "negative",
        "float", "bool", "three-ints", "none"])
def test_verify_reports_a_bad_pair(p, left, right, named):
    # the record refuses a bad pair, so verify never sees one
    with pytest.raises(ValueError) as info:
        Decomposition(p, left, right, 1, (), 1)
    assert str(info.value) == named


@pytest.mark.parametrize("case", [0, 4, -1, True, 1.0, "1", None])
def test_a_decomposition_refuses_a_case_outside_1_to_3(case):
    with pytest.raises(ValueError) as info:
        Decomposition(5, (1, 0), (0, 1), case, (), 9)
    assert str(info.value) == f"case must be 1, 2 or 3, got {case!r}"


@pytest.mark.parametrize("dim", [0, -9, True, 9.0, "9", None])
def test_a_decomposition_refuses_a_dimension_that_is_not_a_positive_int(dim):
    with pytest.raises(ValueError) as info:
        Decomposition(5, (1, 0), (0, 1), 1, (), dim)
    assert str(info.value) == f"dim_product must be a positive int, got {dim!r}"


def test_a_list_of_summands_is_stored_as_a_tuple_and_hashes():
    d = decompose((3, 1), (3, 1), 5)
    listed = Decomposition(5, (3, 1), (3, 1), 3, list(d.summands), 324)
    assert type(listed.summands) is tuple and listed.summands == d.summands
    assert listed == d and hash(listed) == hash(d)
    assert verify(listed).passed


def test_verify_checks_the_sum_by_the_second_product_route(monkeypatch):
    # one extra X(0,0) in the LR product that decompose sees: the blocks
    # still sum, and only the Brauer-Klimyk product in verify differs
    decompose_module = sys.modules["sl3tensor.decompose"]

    def plus_one(f, g, product=decompose_module._lr_product):
        out = product(f, g)
        out[0, 0] = out.get((0, 0), 0) + 1
        return out

    monkeypatch.setattr(decompose_module, "_lr_product", plus_one)
    decompose.cache_clear()
    try:
        d = decompose((1, 0), (0, 1), 5)
        assert d.case == 1 and str(d) == "T(1,1) + 2*T(0,0)"
        assert "character-sum" in {c.name for c in verify(d).failures()}
    finally:
        decompose.cache_clear()


def _plant_wrong_row(monkeypatch, prebuild=True):
    """One more T(C2) in the row of C2, as the block resolver and the row
    and basis-change builds read it.  With ``prebuild``, every row and both
    basis changes are built first, so none of them reads the wrong row."""
    if prebuild:
        for facet in ALL_FACETS:
            _row(facet)
        _change(2), _change(3)

    def wrong_row(facet):
        row = _row(facet)
        if facet == "C2":
            assert row[0] == ("C2", 1)
            row = (("C2", 2),) + row[1:]
        return row

    monkeypatch.setattr(sys.modules["sl3tensor.decompose"], "_row", wrong_row)


def test_a_wrong_row_fails_the_sum_check_of_its_block(monkeypatch):
    # built from the wrong row of C2, the row of C3 fails its own identity
    # before any answer: C2 is a Weyl factor of T(C3)
    def clear():
        for fn in (_row, _change, _resolve_facets, decompose):
            fn.cache_clear()

    _plant_wrong_row(monkeypatch, prebuild=False)
    clear()
    try:
        with pytest.raises(AssertionError, match="the row of C3 expands to"):
            decompose((3, 1), (3, 1), 5)
        # of the blocks of L(1,1) x L(1,1) at p=5 only that of (1, 1) has a
        # weight at C2, (2, 2), and no row it reads is built from the row of
        # C2: the answer is built, and verify refuses it
        d = decompose((1, 1), (1, 1), 5)
        assert {"character-sum", "dimension"} <= {c.name for c in verify(d).failures()}
    finally:
        clear()


def test_cached_decomposition_is_immutable():
    d = decompose((3, 1), (3, 1), 5)
    text, data = str(d), d.to_json()
    with pytest.raises(AttributeError):
        d.summands.clear()
    with pytest.raises(AttributeError):
        d.summands = ()
    again = decompose((3, 1), (3, 1), 5)
    assert str(again) == text and again.to_json() == data
    assert verify(again).passed


@pytest.mark.parametrize("record, fields", [
    (Summand("M", (1, 3), 2), ("kind", "weight", "multiplicity")),
    (Decomposition(p=5, left=(3, 1), right=(3, 1), case=3,
                   summands=(Summand("M", (1, 3), 1),), dim_product=324),
     ("p", "left", "right", "case", "summands", "dim_product")),
])
def test_records_are_frozen(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_records_compare_hash_print_and_pickle():
    s = Summand("M", (1, 3), 2)
    assert s == Summand("M", (1, 3), 2) != Summand("M", (1, 3), 1)
    assert s != ("M", (1, 3), 2)
    assert hash(s) == hash(("M", (1, 3), 2))
    assert repr(s) == "Summand(kind='M', weight=(1, 3), multiplicity=2)"
    assert str(s) == "2*M(1,3)"

    d = decompose((3, 1), (3, 1), 5)
    assert repr(d) == (
        "Decomposition(p=5, left=(3, 1), right=(3, 1), case=3, summands=("
        "Summand(kind='T', weight=(6, 2), multiplicity=1), "
        "Summand(kind='T', weight=(4, 3), multiplicity=1), "
        "Summand(kind='M', weight=(1, 3), multiplicity=1), "
        "Summand(kind='T', weight=(0, 2), multiplicity=1)), dim_product=324)")
    assert hash(d) == hash(decompose.__wrapped__((3, 1), (3, 1), 5))
    assert d != (d.p, d.left, d.right, d.case, d.summands, d.dim_product)

    r = SweepResult(5, 2, {"T": 3}, 1, ["x"])
    assert r == SweepResult(5, 2, {"T": 3}, 1, ["x"]) != SweepResult(5, 2, {}, 1, ["x"])
    assert repr(r) == ("SweepResult(p=5, pairs=2, summand_counts={'T': 3}, "
                       "m_pairs=1, failures=['x'])")
    report = verify(d)
    assert repr(report.checks[0]) == "Check(name='character-sum', ok=True, detail='')"
    for record in (s, d, r, report):
        again = pickle.loads(pickle.dumps(record))
        assert again == record and type(again) is type(record)


def _mixed(valid):
    """``valid`` values three times in four, else values of every other
    shape, so that a fair share of records has every field valid."""
    small = st.integers(min_value=-3, max_value=40)  # small p: its test is trial division
    other = st.one_of(small, st.booleans(), st.floats(), st.none(), st.text(max_size=3),
                      st.tuples(), st.tuples(small), st.tuples(small, small),
                      st.tuples(small, small, small), st.lists(small, max_size=3),
                      st.tuples(st.floats(), small))
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else valid)


_WEIGHT = st.tuples(st.integers(0, 12), st.integers(0, 12))
_POSITIVE = st.integers(min_value=1, max_value=400)
# a tuple or a list of mixed entries, most of them summands
_SUMMANDS = st.lists(_mixed(st.builds(Summand, st.sampled_from(KINDS), _WEIGHT, _POSITIVE)),
                     min_size=1, max_size=3).flatmap(
                         lambda entries: st.sampled_from([entries, tuple(entries)]))


def _assert_whole(record):
    """Every method of a built record works, and pickling gives it back."""
    str(record), repr(record), hash(record)
    if type(record) is Decomposition:
        json.dumps(record.to_json())
    assert record == record
    again = pickle.loads(pickle.dumps(record))
    assert again == record and hash(again) == hash(record) and str(again) == str(record)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_mixed(st.sampled_from(KINDS)), _mixed(_WEIGHT), _mixed(_POSITIVE))
def test_a_summand_is_refused_or_whole(kind, weight, multiplicity):
    try:
        record = Summand(kind, weight, multiplicity)
    except ValueError:
        return
    _assert_whole(record)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_mixed(st.sampled_from([5, 7])), _mixed(st.tuples(st.integers(0, 4), st.integers(0, 4))),
       _mixed(st.tuples(st.integers(0, 4), st.integers(0, 4))), _mixed(st.integers(1, 3)),
       _mixed(_SUMMANDS), _mixed(_POSITIVE))
def test_a_decomposition_is_refused_or_whole(p, left, right, case, summands, dim_product):
    try:
        record = Decomposition(p, left, right, case, summands, dim_product)
    except ValueError:
        return
    assert type(record.summands) is tuple
    _assert_whole(record)


def test_summand_char_consistency():
    d = decompose((3, 1), (3, 1), 5)
    total = Character("weyl", {})
    for s in d.summands:
        total = total + summands_char((s,), 5)
    assert total == tensor_char((3, 1), (3, 1), 5)


@pytest.mark.parametrize("p", [5])
def test_tau_equivariance_sample(p):
    for nu in [(3, 1), (2, 2), (4, 0), (1, 3)]:
        for nu2 in [(1, 1), (3, 1), (0, 4)]:
            d = decompose(nu, nu2, p)
            mirrored = decompose(tau(nu2), tau(nu), p)
            assert {
                (s.kind, tau(s.weight), s.multiplicity) for s in d.summands
            } == summand_set(mirrored)
            assert summand_set(decompose(nu2, nu, p)) == summand_set(d)


def test_case_assignment():
    assert decompose((3, 1), (3, 1), 5).case == 3       # both second alcove
    assert decompose((3, 1), (1, 1), 5).case == 2
    assert decompose((4, 1), (2, 2), 5).case == 2       # wall x second alcove
    assert decompose((4, 1), (4, 4), 5).case == 1


def test_m_only_in_case3_small_sweep():
    for nu in restricted_weights(5):
        d = decompose(nu, (2, 2), 5)
        kinds = {s.kind for s in d.summands}
        if "M" in kinds:
            assert d.case == 3
        if "L" in kinds:
            assert classify(nu, 5) == "C2" or classify((2, 2), 5) == "C2"


def test_sweep_rejects_bad_prime():
    for p in (4, 9):
        with pytest.raises(ValueError, match="p must be a prime >= 5"):
            sweep(p)


def test_sweep_rejects_bad_jobs_before_any_work(monkeypatch):
    decompose_module = importlib.import_module("sl3tensor.decompose")

    def work(*args, **kwargs):
        raise AssertionError("the sweep started work")

    monkeypatch.setattr(decompose_module, "_sweep_row", work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", work)
    for jobs in (0, -2, 2.5, True, "2"):
        with pytest.raises(ValueError, match=f"expected a worker count >= 1, got {jobs!r}"):
            sweep(5, run_verify=False, jobs=jobs)


def test_float_prime_is_rejected_whatever_the_cache_holds():
    decompose.cache_clear()
    for _ in range(2):  # cold, then with the p=5 pair cached
        for p in (5.0, True):
            with pytest.raises(ValueError, match=f"p must be a prime >= 5, got {p}"):
                decompose((1, 0), (0, 1), p)
        assert decompose((1, 0), (0, 1), 5).p == 5


@pytest.mark.parametrize("cached_first", [False, True])
@pytest.mark.parametrize("weight", [(1.0, 0), (True, 0)])
def test_float_or_bool_weight_is_rejected_whatever_the_cache_holds(weight, cached_first):
    decompose.cache_clear()
    if cached_first:  # both orders, so that a cache hit would answer
        decompose((1, 0), (0, 1), 5), decompose((0, 1), (1, 0), 5)
    for args in ((weight, (0, 1)), ((0, 1), weight)):
        with pytest.raises(ValueError, match="weight must be two integers, got"):
            decompose(*args, 5)
    assert decompose.cache_info().currsize == (2 if cached_first else 0)
    assert decompose((1, 0), (0, 1), 5).left == (1, 0)


def test_sweep_accepts_any_prime(monkeypatch):
    # the package re-exports the function decompose under the module's name
    decompose_module = importlib.import_module("sl3tensor.decompose")
    tasks, pairs = [], set()

    def row(task):  # the real tally over a stand-in decompose
        tasks.append(task)
        return _sweep_row(task)

    def stand_in(nu, nu2, p):
        pairs.add((nu, nu2, p))
        return Decomposition(p, nu, nu2, 1, (), 1)

    monkeypatch.setattr(decompose_module, "_sweep_row", row)
    monkeypatch.setattr(decompose_module, "decompose", stand_in)
    result = sweep(13, run_verify=False)
    assert tasks == [(13, nu, False) for nu in restricted_weights(13)]
    assert result.pairs == len(pairs) == 13**4 and result.passed
    assert {p for _, _, p in pairs} == {13}


def _as_if_checked(c):
    """A character from the unchecked internal constructor is exactly what
    the checked one builds from its terms: no zero term, and immutable."""
    assert c == Character(c.basis, dict(c.coeffs))
    assert 0 not in c.coeffs.values()
    with pytest.raises(TypeError):
        c.coeffs[(0, 0)] = 1
    with pytest.raises(AttributeError):
        c.basis = "simple"


def test_internal_characters_match_checked_construction_on_every_p5_pair():
    p = 5
    weights = restricted_weights(p)
    for nu in weights:
        for nu2 in weights:
            total = tensor_char(nu, nu2, p)
            _as_if_checked(total)
            for rep, pattern in _buckets(total.coeffs, p).items():
                block = Character._trusted("weyl", _in_weights(rep, pattern, p))
                _as_if_checked(block)
                _as_if_checked(to_simple_basis(block, p))
            _as_if_checked(summands_char(decompose(nu, nu2, p).summands, p))
            _as_if_checked(mult_via_monomial(simple_char(nu, p), simple_char(nu2, p)))


def _block_keys(p):
    """``(rep, facet pattern, case)`` of every block of every pair at p that
    a sweep splits into blocks, in sweep order, as ``decompose`` looks its
    blocks up (the memo keys on the case and the pattern): the pairs with
    nu <= nu2, since the other order copies their record."""
    for nu in restricted_weights(p):
        for nu2 in restricted_weights(p):
            if nu2 < nu:
                continue
            case = 1 + (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
            for rep, pattern in _buckets(tensor_char(nu, nu2, p).coeffs, p).items():
                yield rep, tuple(pattern.items()), case


def case3_floor_solve(a3, a3p, a2, a1):
    """Resolve a regular-block floor in the basis of the three tilting
    characters at the floor together with M plus its simple companion.

    Solves x + w = a3, y + w = a3p, 2x + 2y + z + 2w = a2,
    x + y + 2z + 2w = a1 for nonnegative integers.  Infeasibility is an
    integrity error.
    """
    # 2z from combining the last two equations, then 2w from the third
    num_z = a1 - a3 - a3p
    num_w = num_z // 2 - a2 + 2 * a3 + 2 * a3p
    if num_z % 2 or num_w % 2:
        raise IntegrityError("floor solve is non-integral")
    w = num_w // 2
    solution = (a3 - w, a3p - w, num_z // 2, w)
    if min(solution) < 0:
        raise IntegrityError(f"floor solve has negative part {solution}")
    return solution


def _resolve_by_weights(rep, pattern, case, p):
    """The block resolver on weights, as a reference for the table: peel the
    top weight's tilting character (its simple one at a second-alcove weight
    in case 2) down to the floor of a regular case-3 block, then solve the
    floor in the simple basis."""
    block = Character("weyl", _in_weights(rep, pattern, p))
    regular = all(n % p for n in pairings(rep))
    floor = tuple(linked_weight(rep, f, p) for f in FLOOR_FACETS) if case == 3 and regular else ()
    assert None not in floor
    summands = []
    while block and min(block.coeffs, key=sort_key) not in floor:
        lead = min(block.coeffs, key=sort_key)
        k = block.coeffs[lead]
        if k < 0:
            raise IntegrityError(
                f"negative multiplicity {k} at {lead} during greedy pass", block=lead)
        kind = "L" if case == 2 and classify(lead, p) == "C2" else "T"
        summands.append(Summand(kind, lead, k))
        block = block.combine([(-k, (simple_char if kind == "L" else tilting_char)(lead, p))])
    simple = to_simple_basis(block, p)
    assert set(simple.coeffs) <= set(floor), (p, rep, simple)
    if simple:
        try:
            x, y, z, w = case3_floor_solve(*(simple.coeffs.get(mu, 0) for mu in floor))
        except IntegrityError as exc:
            raise IntegrityError(f"{exc} in block {rep}", block=rep) from exc
        mu3, mu3p, mu2, mu1 = floor
        summands += [Summand(kind, mu, k) for kind, mu, k in (
            ("T", mu3, x), ("T", mu3p, y), ("T", mu2, z), ("M", mu2, w), ("T", mu1, w)) if k]
    return summands


def _assert_resolves_as_by_weights(rep, pattern, case, p):
    """The table resolver gives the weight-level reference's summands; its
    memo hands out a tuple.  ``decompose`` sorts them (``_assert_commutes``)."""
    got = _resolve_block(rep, pattern, case, p)
    assert type(_resolve_facets(case, pattern)) is tuple
    assert Counter(got) == Counter(_resolve_by_weights(rep, pattern, case, p)), (p, rep, case)


def test_block_memo_matches_weight_resolution_on_every_p5_and_p7_block():
    for p in (5, 7):
        for rep, pattern, case in dict.fromkeys(_block_keys(p)):
            _assert_resolves_as_by_weights(rep, pattern, case, p)


def _clear_sweep_caches():
    """Every memo between a sweep and the facet expansions."""
    for fn in (decompose, _resolve_facets, _summand, _row, _change, _expansion, _kind_terms,
               simple_char, simple_dim, tilting_char, m_char):
        fn.cache_clear()


def test_sweep_resolves_each_distinct_block_once():
    _clear_sweep_caches()
    sweep(5, run_verify=False)
    keys = [(case, pattern) for _, pattern, case in _block_keys(5)]
    info = _resolve_facets.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits == len(keys) - len(set(keys)) > 0
    # the rows and the expansions hold no p: at most one row per facet, one
    # expansion per kind and facet, M at C2 alone, and p=7 builds none that
    # p=5 built, so both sweeps leave what p=7 alone leaves
    assert _row.cache_info().currsize <= 33
    assert _expansion.cache_info().currsize <= 2 * 33 + 1
    sweep(7, run_verify=False)
    rows, expansions = _row.cache_info().currsize, _expansion.cache_info().currsize
    _clear_sweep_caches()
    sweep(7, run_verify=False)
    assert _row.cache_info().currsize == rows <= 33
    assert _expansion.cache_info().currsize == expansions <= 2 * 33 + 1


def test_a_verified_sweep_interns_each_summand_once():
    # _summand is keyed on the class and the facet, not on the weight: the
    # equal summands of all 625 records are still one object, one entry each
    _clear_sweep_caches()
    sweep(5, run_verify=True)
    records = [decompose.cached(nu, nu2, 5)
               for nu in restricted_weights(5) for nu2 in restricted_weights(5)]
    assert decompose.cache_info().currsize == len(records) == 625
    interned = {}
    for s in (s for d in records for s in d.summands):
        assert interned.setdefault((s.kind, s.weight, s.multiplicity), s) is s, s
    assert _summand.cache_info().currsize == len(interned)


def test_block_supports_at_p5_lie_in_those_at_p7(monkeypatch):
    """The (case, support) keys of the blocks that decompose-only sweeps
    resolve, a support being the set of facets a block's Weyl pattern
    touches: pinned as sets at p=5 and p=7 by their sorted text, closed
    under the facet involution, and the p=5 set inside the p=7 set."""
    module = sys.modules["sl3tensor.decompose"]  # the package attribute is the function
    keys, resolve = {5: set(), 7: set()}, module._resolve_facets
    for p in keys:
        def recording(case, pattern, seen=keys[p]):
            seen.add((case, frozenset(f for f, _ in pattern)))
            return resolve(case, pattern)
        monkeypatch.setattr(module, "_resolve_facets", recording)
        _clear_sweep_caches()
        sweep(p, run_verify=False)
    digests = {5: "245ea4722a68f2dc426ea7aa836f8420b5ba1b951054048a63bcb84c141dac4f",
               7: "f59b3501187fe3a77797127e4e4228c4f10809e63f764d75be19197e3ad92f0f"}
    for p, supports in keys.items():
        text = "\n".join(sorted(f"{case} {' '.join(sorted(facets))}" for case, facets in supports))
        assert hashlib.sha256(text.encode()).hexdigest() == digests[p], (p, text)
        assert {(case, frozenset(map(sigma, facets))) for case, facets in supports} == supports
    assert [sorted(Counter(case for case, _ in keys[p]).items()) for p in keys] == [
        [(1, 32), (2, 26), (3, 19)], [(1, 34), (2, 33), (3, 29)]]
    assert (len(keys[5]), len(keys[7])) == (77, 96) and keys[5] <= keys[7]


def test_rows_are_read_only():
    row = _row("C7")
    assert type(row) is tuple and all(type(term) is tuple for term in row)
    for case in (2, 3):
        pivot, summands, coords = _change(case)
        assert type(summands) is tuple and all(type(term) is tuple for term in summands)
        assert type(coords) is tuple and all(type(term) is tuple for term in coords)
    # every expansion, so every entry its cache can hold: T and L at each
    # facet, M at C2
    for kind, facet in [(kind, f) for kind in ("T", "L") for f in ALL_FACETS] + [("M", "C2")]:
        expansion = _expansion(kind, facet)
        assert type(expansion) is tuple and all(type(term) is tuple for term in expansion)
    assert _expansion.cache_info().currsize == 2 * len(ALL_FACETS) + 1 == 67
    # T(C2) = X(C2) + X(C1), and X(C1) = T(C1); L(C2) = X(C2) - X(C1)
    assert _row("C2") == (("C2", 1), ("C1", -1))
    assert _change(2) == ("C2", (("L", "C2"),), (("C2", 1), ("C1", -2)))
    assert _change(3)[:2] == ("C1", (("M", "C2"), ("T", "C1")))
    assert dict(_change(3)[2]) == {"C3": 1, "C3p": 1, "C2": -2, "C1": 4}


@pytest.mark.parametrize("p", [5, 7])
def test_every_row_recombines_to_the_weyl_character_at_every_weight(p):
    # every facet holds weights at p=5 and 7, so this reads all 33 rows
    for w in region_weights(p):
        got = Character("weyl").combine(
            (k, tilting_char(linked_weight(w, f, p), p)) for f, k in _row(classify(w, p)))
        assert got == Character("weyl", {w: 1}), (p, w)


def _in_tilting_by_layers(simple):
    """Composition factors ``{facet: k}`` in tilting coordinates, by exact
    elimination on the system whose columns are the stored tilting layers:
    a route that reads neither ``_expansion`` nor the rows."""
    layers = {f: diagram(f, "tilting").layer_multiset() for f in ALL_FACETS}
    system = [[Fraction(layers[f][g]) for f in ALL_FACETS] + [Fraction(simple.get(g, 0))]
              for g in ALL_FACETS]
    n = len(ALL_FACETS)
    for col in range(n):
        pivot = next(r for r in range(col, n) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        system[col] = [x / system[col][col] for x in system[col]]
        for r in range(n):
            if r != col and system[r][col]:
                system[r] = [a - system[r][col] * b for a, b in zip(system[r], system[col])]
    assert all(row[n].denominator == 1 for row in system)
    return {f: int(row[n]) for f, row in zip(ALL_FACETS, system) if row[n]}


def test_rows_and_basis_changes_match_the_stored_layers():
    # the Weyl module at each facet, from its delta diagram, gives its row
    for facet in ALL_FACETS:
        assert dict(_row(facet)) == _in_tilting_by_layers(Counter(delta_factors(facet))), facet
        expanded = Counter()
        for f, k in _row(facet):
            for g, c in _expansion("T", f):
                expanded[g] += k * c
        assert {g: c for g, c in expanded.items() if c} == {facet: 1}, facet
    # L(C2), and M + T(C1) from the m and tilting records, which give the
    # floor solve w = t1 / 4 and (t3 - w, t3' - w, t2 + 2w, w)
    l2 = Counter({"C2": 1})
    m1 = diagram("C2", "m").layer_multiset() + diagram("C1", "tilting").layer_multiset()
    assert _in_tilting_by_layers(l2) == dict(_change(2)[2]) == {"C2": 1, "C1": -2}
    assert _in_tilting_by_layers(m1) == dict(_change(3)[2]) == {
        "C3": 1, "C3p": 1, "C2": -2, "C1": 4}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_facet_level_characters_hold_no_p(p):
    # the premise of the rows: no class truncates a facet-level character
    for w in region_weights(p):
        facet = classify(w, p)
        tilting = Counter()
        for mu, k in tilting_char(w, p).coeffs.items():
            assert canonical_rep(mu, p) == canonical_rep(w, p), (p, w, mu)
            tilting[classify(mu, p)] += k
        assert tilting == Counter(tilting_delta_factors(facet)), (p, w)
        assert sorted(classify(mu, p) for mu in weyl_comp_factors(w, p)) == sorted(
            delta_factors(facet)), (p, w)


def test_block_failure_names_the_real_block_not_its_witness():
    # two blocks of L(3,1) x L(3,1) with one coefficient negated: a greedy
    # and a floor-solve failure
    blocks = _buckets(tensor_char((3, 1), (3, 1), 5).coeffs, 5)
    expected = {
        ((-1, 1), (6, 2)): "negative multiplicity -1 at (6, 2) during greedy pass",
        ((0, 2), (0, 2)): "floor solve has negative part (1, 1, -2, 0) in block (0, 2)",
    }
    for (rep, w), message in expected.items():
        pattern = dict(blocks[rep])
        pattern[classify(w, 5)] = -pattern[classify(w, 5)]
        with pytest.raises(IntegrityError) as exc:
            _resolve_block(rep, tuple(pattern.items()), 3, 5)
        assert str(exc.value) == message and exc.value.block == w


def test_block_memo_keys_on_case_not_on_p():
    # X(C2) + X(C1) is T(C2) in case 1 and L(C2) + 2 T(C1) in case 2, at
    # every p; each prime maps the pattern to its own class: C2 holds (3, 1)
    # at p=5 and (5, 3) at p=7 in the class of (2, 0)
    pattern = (("C2", 1), ("C1", 1))
    _resolve_facets.cache_clear()
    t31, l31, t20 = Summand("T", (3, 1), 1), Summand("L", (3, 1), 1), Summand("T", (2, 0), 2)
    assert _resolve_block((2, 0), pattern, 1, 5) == [t31]
    assert Counter(_resolve_block((2, 0), pattern, 2, 5)) == Counter([l31, t20])
    assert _resolve_facets.cache_info()[:2] == (0, 2)  # hits, misses
    assert _resolve_block((2, 0), pattern, 1, 7) == [Summand("T", (5, 3), 1)]
    assert Counter(_resolve_block((2, 0), pattern, 2, 7)) == Counter([Summand("L", (5, 3), 1), t20])
    assert _resolve_facets.cache_info()[:2] == (2, 2)
    # at p=7, (3, 1) and (2, 0) both lie in C1, of classes of their own
    assert canonical_rep((3, 1), 7) != canonical_rep((2, 0), 7)
    assert _resolve_block(canonical_rep((3, 1), 7), (("C1", 1),), 1, 7) == [
        Summand("T", (3, 1), 1)]
    assert _resolve_block(canonical_rep((2, 0), 7), (("C1", 1),), 1, 7) == [
        Summand("T", (2, 0), 1)]
    # a p=7 sweep after a p=5 sweep hits the patterns that p=5 made
    _clear_sweep_caches()
    sweep(5, run_verify=False)
    made = {(case, pattern) for _, pattern, case in _block_keys(5)}
    assert _resolve_facets.cache_info().misses == len(made)
    sweep(7, run_verify=False)
    seen = {(case, pattern) for _, pattern, case in _block_keys(7)}
    assert made & seen
    assert _resolve_facets.cache_info().misses == len(made | seen)


def _assert_commutes(nu, nu2, p):
    """``decompose(nu2, nu)`` against a reference that reads neither the
    ``decompose`` memo nor the row table: the product in that order,
    resolved block by block on weights.  The memo answers one of the two
    orders by copying the other, so this is what checks commutativity."""
    d = decompose(nu2, nu, p)
    case = 1 + (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
    assert (d.p, d.left, d.right, d.case, d.dim_product) == (
        p, nu2, nu, case, simple_dim(nu, p) * simple_dim(nu2, p)), (p, nu, nu2)
    assert list(d.summands) == sorted(d.summands, key=lambda s: (sort_key(s.weight), s.kind))
    reference = [s for rep, pattern in _buckets(tensor_char(nu2, nu, p).coeffs, p).items()
                 for s in _resolve_by_weights(rep, tuple(pattern.items()), case, p)]
    assert Counter(d.summands) == Counter(reference), (p, nu, nu2)


def test_decompose_commutes_on_every_p5_pair():
    weights = restricted_weights(5)
    for i, nu in enumerate(weights):
        for nu2 in weights[i + 1:]:  # nu < nu2: decompose(nu2, nu) is the copied order
            _assert_commutes(nu, nu2, 5)


@st.composite
def restricted_pair(draw):
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31]))
    coord = st.integers(min_value=0, max_value=p - 1)
    return p, (draw(coord), draw(coord)), (draw(coord), draw(coord))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(restricted_pair())
def test_random_prime_pairs_verify_and_commute(case):
    p, nu, nu2 = case
    d = decompose(nu, nu2, p)
    assert verify(d).passed, (p, nu, nu2)
    _assert_commutes(nu, nu2, p)
    assert any(s.kind == "M" for s in d.summands) == (d.case == 3), (p, nu, nu2)
    for rep, pattern in _buckets(tensor_char(nu, nu2, p).coeffs, p).items():
        _assert_resolves_as_by_weights(rep, tuple(pattern.items()), d.case, p)


def test_sweep_no_verify_counts_match():
    quick = sweep(5, run_verify=False)
    assert quick.pairs == 625
    assert quick.passed
    full = sweep(5, run_verify=True)
    assert full.summand_counts == quick.summand_counts
    assert full.m_pairs == quick.m_pairs


def test_a_verified_sweep_shares_each_unordered_pairs_products(monkeypatch):
    # cold: 325 = 25 * 26 / 2 unordered pairs, each with one LR and one
    # Brauer-Klimyk product (the kernels decompose and _tally call) and one
    # pass over its summands, and 625 ordered pairs, each verified and
    # cached; unverified, one LR product each too
    decompose_module = sys.modules["sl3tensor.decompose"]
    calls = Counter()

    def counted(name):
        fn = getattr(decompose_module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_lr_product", "_bk_product", "_tally", "_verify"):
        monkeypatch.setattr(decompose_module, name, counted(name))
    _clear_sweep_caches()
    result = sweep(5, run_verify=True)
    assert result.passed and result.pairs == 625
    assert calls == {"_lr_product": 325, "_bk_product": 325, "_tally": 325, "_verify": 625}
    assert decompose.cache_info().currsize == 625
    calls.clear()
    _clear_sweep_caches()
    assert sweep(5, run_verify=False).pairs == 625
    assert calls == {"_lr_product": 325}


def test_a_verified_sweep_reads_past_the_input_gates(monkeypatch):
    # cold, counted through each module's own binding of _check_weight: the
    # checked caches (weights) see the sweep's decompose of the 625 ordered
    # pairs (2 * 625) and simple_dim of the 25 restricted weights; the
    # classify gate (alcoves) runs only at a character's or _kind_terms's
    # memo miss, _check_pair (decompose) once per unordered pair, and
    # weylchar's check only in a checked Character, which the sweep never
    # builds; a library read that slips through a gate moves a count
    bindings = ("weights", "alcoves", "decompose", "weylchar")
    modules = {name: sys.modules[f"sl3tensor.{name}"] for name in bindings}
    assert {name for name, module in sys.modules.items()
            if name.startswith("sl3tensor.") and hasattr(module, "_check_weight")} == {
        f"sl3tensor.{name}" for name in bindings}
    passes = Counter()

    def counted(name, check):
        def wrapper(w):
            passes[name] += 1
            check(w)
        return wrapper

    for name, module in modules.items():
        monkeypatch.setattr(module, "_check_weight", counted(name, module._check_weight))
    _clear_sweep_caches()
    assert sweep(5, run_verify=True).passed
    counts = {name: passes[name] for name in bindings}
    assert counts == {"weights": 1275, "alcoves": 251, "decompose": 650, "weylchar": 0}, counts
    assert sum(counts.values()) == 2176


def test_a_weight_is_placed_once(monkeypatch):
    # cold: the representative's cell lookup _rep runs once per weight and
    # p, at a miss of _placed, the one memo per weight that classify,
    # canonical_rep and the library read; neither gate keeps a memo of its own
    alcoves_module = sys.modules["sl3tensor.alcoves"]
    lookups = [0]

    def counted(w, p, rep=alcoves_module._rep):
        lookups[0] += 1
        return rep(w, p)

    monkeypatch.setattr(alcoves_module, "_rep", counted)
    assert not hasattr(classify, "cache_info") and not hasattr(canonical_rep, "cache_info")
    _clear_sweep_caches()
    _placed.cache_clear()
    assert sweep(5, run_verify=True).passed
    assert lookups[0] == _placed.cache_info().misses == 113
    assert verify(decompose((12, 10), (12, 12), 13)).passed
    assert lookups[0] == _placed.cache_info().misses > 113


def test_a_verified_sweep_builds_no_checked_character(monkeypatch):
    # cold: the kernels' products stay plain dicts into the block pass and
    # the tally, and the modular characters are built from valid terms
    built = [0]

    def counted(self, *args, init=Character.__init__):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Character, "__init__", counted)
    _clear_sweep_caches()
    assert sweep(5, run_verify=True).passed
    assert built[0] == 0
    Character("weyl", {(0, 0): 1})  # the count sees a checked construction
    assert built[0] == 1


def test_a_verified_sweep_builds_no_checked_record(monkeypatch):
    # cold: decompose checks each unordered pair's inputs once, in its body,
    # and builds its records, and the interned summands, from checked parts;
    # the sweep reads each order's checks as plain values, so only the
    # public verify builds a Report of Checks
    decompose_module = sys.modules["sl3tensor.decompose"]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in (Decomposition, Summand, Check, Report):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(decompose_module, "_check_pair",
                        counted("_check_pair", decompose_module._check_pair))
    _clear_sweep_caches()
    assert sweep(5, run_verify=True).passed
    assert calls == {"_check_pair": 325}
    # one public verify wraps its four checks in one report
    assert verify(decompose((3, 1), (3, 1), 5)).passed
    assert calls == {"_check_pair": 325, "Check": 4, "Report": 1}
    # the counts see a checked construction of each record
    s = Summand("T", (1, 1), 1)
    Decomposition(5, (0, 0), (0, 0), 1, (s,), 1)
    assert calls == {"_check_pair": 326, "Check": 4, "Report": 1, "Summand": 1,
                     "Decomposition": 1}


def test_buckets_of_the_raw_lr_product_match_the_checked_product_on_every_p5_pair():
    # the kernel's dict keeps a weight whose terms cancel, with 0; the block
    # pass skips it, so each block's pattern, in order, is the checked one's
    p, cancelled = 5, 0
    for nu in restricted_weights(p):
        for nu2 in restricted_weights(p):
            raw = _lr_product(simple_char(nu, p).coeffs, simple_char(nu2, p).coeffs)
            cancelled += 0 in raw.values()
            got, expect = (
                [(rep, list(pattern.items())) for rep, pattern in _buckets(c, p).items()]
                for c in (raw, tensor_char(nu, nu2, p).coeffs))
            assert got == expect, (nu, nu2)
    assert cancelled


def test_a_verified_sweep_sorts_each_mirrored_summands_tuple_once(monkeypatch):
    # both orders of a pair mirror to records that share one summands
    # tuple: 325 sorts for the 625 ordered pairs, each still checked; the
    # public verify sorts its own at every call
    decompose_module = sys.modules["sl3tensor.decompose"]
    built = []

    def counted(summands, images=decompose_module._mirror_images):
        built.append(summands)
        return images(summands)

    monkeypatch.setattr(decompose_module, "_mirror_images", counted)
    _clear_sweep_caches()
    result = sweep(5, run_verify=True)
    assert result.passed and result.pairs == 625
    assert len(built) == 325
    assert len({id(s) for s in built}) == 325
    built.clear()
    for pair in (((1, 2), (3, 0)), ((3, 0), (1, 2))):
        assert verify(decompose(*pair, 5)).passed
    assert len(built) == 2


def _plant_bk_sign_flip(monkeypatch):
    """The Brauer-Klimyk product with the sign of its X(1,1) term flipped."""
    decompose_module = sys.modules["sl3tensor.decompose"]

    def flipped(f, g, product=decompose_module._bk_product):
        coeffs = product(f, g)
        if (1, 1) in coeffs:
            coeffs[1, 1] = -coeffs[1, 1]
        return coeffs

    monkeypatch.setattr(decompose_module, "_bk_product", flipped)


def _plant_in_records(monkeypatch, change):
    """``Decomposition._trusted``, the record builder that ``decompose``
    calls for both orders, with ``change`` applied to each record's fields."""
    real = Decomposition._trusted
    monkeypatch.setattr(Decomposition, "_trusted", lambda *fields: real(*change(*fields)))


def _plant_dimension_off_by_one(monkeypatch):
    """Each case-2 record holds one more than its product's dimension."""
    _plant_in_records(monkeypatch, lambda p, left, right, case, summands, dim:
                      (p, left, right, case, summands, dim + (case == 2)))


def _plant_case_3_recorded_as_1(monkeypatch):
    """Each case-3 record holds case 1."""
    _plant_in_records(monkeypatch, lambda p, left, right, case, summands, dim:
                      (p, left, right, 1 if case == 3 else case, summands, dim))


def _plant_failing_pair(monkeypatch):
    """``(1, 2) x (3, 0)`` raises in both orders, so its mirror, ``(0, 3) x
    (2, 1)``, fails tau-equivariance with its message."""
    def refused(p, left, right, *rest):
        if {left, right} == {(1, 2), (3, 0)}:
            raise IntegrityError(f"planted in {left} x {right}", block=left)
        return p, left, right, *rest

    _plant_in_records(monkeypatch, refused)


def _plant_identity_involution(monkeypatch):
    """The involution that verify mirrors by read as the identity."""
    monkeypatch.setattr(sys.modules["sl3tensor.decompose"], "tau", lambda w: w)


def _failures_pair_by_pair(p):
    """The failures of a sweep, from ``decompose`` and the public ``verify``
    on each ordered pair in turn."""
    failures = []
    for nu in restricted_weights(p):
        for nu2 in restricted_weights(p):
            tag = f"{nu[0]},{nu[1]} x {nu2[0]},{nu2[1]}"
            try:
                d = decompose(nu, nu2, p)
            except IntegrityError as exc:
                failures.append(f"{tag}: {exc}")
                continue
            failures += [f"{tag}: {c.name} {c.detail}" for c in verify(d).failures()]
    return sorted(failures)


@pytest.mark.parametrize("plant, failed", [
    (_plant_bk_sign_flip, "character-sum"),
    (_plant_wrong_row, "character-sum"),
    (_plant_dimension_off_by_one, "dimension"),
    (_plant_case_3_recorded_as_1, "summand-shape"),
    (_plant_failing_pair, "tau-equivariance planted"),
    (_plant_identity_involution, "tau-equivariance"),
], ids=["brauer-klimyk-sign", "wrong-row", "dimension", "recorded-case", "failing-mirror",
        "identity-involution"])
def test_a_planted_fault_fails_the_same_pairs_as_a_pair_by_pair_loop(monkeypatch, plant, failed):
    # each plant fails the check named by ``failed``; the sweep's failure
    # strings equal the public verify's, byte for byte
    def clear():  # the results; the rows stay as planted
        decompose.cache_clear()
        _resolve_facets.cache_clear()

    plant(monkeypatch)
    try:
        clear()
        swept = sweep(5, run_verify=True).failures
        clear()
        reference = _failures_pair_by_pair(5)
    finally:
        clear()
    assert swept == reference
    assert any(f.split(": ", 1)[1].startswith(failed) for f in swept), swept[:5]
    # both orders of some pair fail: the shared work hides no order
    pairs = {tuple(f.split(": ")[0].split(" x ")) for f in swept}
    assert any((right, left) in pairs for left, right in pairs if left != right)


def test_a_fault_in_the_copied_order_alone_fails_that_order(monkeypatch):
    # the record of the second order (right < left) loses its last summand:
    # its summands are no longer the tuple the first order's pass read, so
    # the sweep must check them on their own, as verify does
    real = Decomposition._trusted  # the record builder that decompose calls

    def dropping(p, left, right, case, summands, dim_product):
        return real(p, left, right, case, summands[:-1] if right < left else summands,
                    dim_product)

    def clear():
        decompose.cache_clear()
        _resolve_facets.cache_clear()

    monkeypatch.setattr(Decomposition, "_trusted", dropping)
    try:
        clear()
        swept = sweep(5, run_verify=True).failures
        clear()
        reference = _failures_pair_by_pair(5)
    finally:
        clear()
    assert swept == reference
    orders = [(tuple(map(parse_weight, f.split(": ")[0].split(" x "))), f) for f in swept]
    assert any(right < left and ": character-sum" in f for (left, right), f in orders)


def test_sweep_parallel_agrees():
    # the tasks shrink from 49 ordered pairs for (0, 0) to one for (4, 4)
    for run_verify in (False, True):
        serial = sweep(5, run_verify=run_verify)
        parallel = sweep(5, run_verify=run_verify, jobs=2)
        assert serial.to_json() == parallel.to_json()


def test_sweep_caps_worker_processes(monkeypatch):
    # a stand-in pool that records its size and maps in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = sweep(5, run_verify=False).to_json()
    for cpus, jobs in ((2, 100000), (64, 100000), (None, 3), (8, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sweep(5, run_verify=False, jobs=jobs).to_json() == serial
    # capped by the CPU count, then by the 25 tasks; one worker runs serially
    assert sizes == [2, 25]
