import concurrent.futures
import dataclasses
import importlib
import os
import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3tensor.alcoves import canonical_rep, classify, region_weights, restricted_weights
from sl3tensor.decompose import (
    IntegrityError,
    Summand,
    _greedy,
    _is_regular_rep,
    _resolve_block,
    case3_floor_solve,
    decompose,
    greedy_tilting,
    split_blocks,
    summand_dim,
    summands_char,
    sweep,
    tensor_char,
    verify,
)
from sl3tensor.modchar import floor_weights, tilting_char, to_simple_basis
from sl3tensor.weights import tau
from sl3tensor.weylchar import Character, sort_key


def summand_set(d):
    return {(s.kind, s.weight, s.multiplicity) for s in d.summands}


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


def test_split_blocks_case3():
    tc = tensor_char((3, 1), (3, 1), 5)
    blocks = split_blocks(tc, 5)
    supports = sorted(tuple(sorted(b.coeffs)) for b in blocks.values())
    assert supports == [
        ((0, 2), (0, 5), (7, 0)),
        ((2, 4), (6, 2)),
        ((4, 3),),
    ]
    total = Character("weyl", {})
    for b in blocks.values():
        total = total + b
    assert total == tc


def test_split_blocks_trivial_and_case2():
    assert len(split_blocks(Character("weyl", {(0, 0): 1}), 5)) == 1
    blocks = split_blocks(tensor_char((2, 2), (1, 1), 5), 5)
    assert len(blocks) == 4
    # each block carries a single simple character
    for block in blocks.values():
        assert len(to_simple_basis(block, 5).coeffs) == 1
    # out of the region: inside the facet table, and past it
    for w in ((14, 0), (30, 30)):
        with pytest.raises(ValueError, match="outside the region"):
            split_blocks(Character("weyl", {w: 1}), 5)


def test_greedy_tilting_examples():
    singular = Character("weyl", {(6, 2): 1, (2, 4): 1})
    got, residual = greedy_tilting(singular, 5)
    assert [(s.kind, s.weight, s.multiplicity) for s in got] == [("T", (6, 2), 1)]
    assert not residual

    st = Character("weyl", {(4, 4): 1})
    got, residual = greedy_tilting(st, 5)
    assert [(s.kind, s.weight, s.multiplicity) for s in got] == [("T", (4, 4), 1)]
    assert not residual

    block = tensor_char((1, 1), (1, 1), 5)
    got, residual = greedy_tilting(block, 5)
    assert not residual
    assert {(s.weight, s.multiplicity) for s in got} == {
        ((2, 2), 1), ((3, 0), 1), ((0, 3), 1), ((1, 1), 1), ((0, 0), 1)
    }


def test_greedy_respects_floor():
    block = Character("weyl", {(7, 0): 1, (0, 5): 1, (0, 2): 2})
    floor = frozenset({(7, 0), (0, 5), (1, 3), (0, 2)})
    got, residual = greedy_tilting(block, 5, floor)
    assert got == []
    assert residual == block


@pytest.mark.parametrize("p", [5, 7, 13])
def test_greedy_tilting_recovers_tilting_combination(p):
    rng = random.Random(p)
    weights = region_weights(p)
    for _ in range(25):
        combo = {rng.choice(weights): rng.randint(1, 4) for _ in range(6)}
        block = Character("weyl").combine(
            (k, tilting_char(w, p)) for w, k in combo.items()
        )
        got, residual = greedy_tilting(block, p)
        assert not residual
        assert all(s.kind == "T" for s in got)
        assert [(s.weight, s.multiplicity) for s in got] == sorted(
            combo.items(), key=lambda item: sort_key(item[0])
        )


def test_greedy_negative_coefficient_is_integrity_error():
    with pytest.raises(IntegrityError) as info:
        greedy_tilting(Character("weyl", {(0, 0): -1}), 5)
    assert str(info.value) == "negative multiplicity -1 at (0, 0) during greedy pass"
    assert info.value.block == (0, 0)


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
    regular = [rep for rep in reps if _is_regular_rep(rep, p)]
    assert len(regular) == (p - 1) * (p - 2) // 2  # the open bottom alcove
    for rep in regular:
        floor = floor_weights(rep, p)
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
    # recomputed past the result cache, so the cached character is read
    assert str(decompose.__wrapped__((1, 0), (0, 1), 5)) == "T(1,1) + T(0,0)"


def test_decompose_case3_worked_example():
    d = decompose((3, 1), (3, 1), 5)
    assert d.case == 3
    assert summand_set(d) == {
        ("M", (1, 3), 1), ("T", (0, 2), 1), ("T", (6, 2), 1), ("T", (4, 3), 1)
    }
    assert d.dim_product == 324
    assert [summand_dim(s, 5) for s in d.summands] == [165, 90, 63, 6]
    assert verify(d).passed


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


@pytest.mark.parametrize("bad", [
    Summand("X", (0, 0), 1),
    Summand("M", (0, 0), 1),
    Summand("T", (99, 0), 1),
    Summand("T", (-1, 0), 1),
    Summand("L", (1, 0), 1),  # off C2, but its character computes
])
def test_verify_reports_misshapen_summand(bad):
    d = decompose((1, 0), (0, 0), 5)
    assert verify(d).passed
    report = verify(dataclasses.replace(d, summands=(bad,)))
    assert [c.name for c in report.checks] == [
        "character-sum", "dimension", "summand-shape", "tau-equivariance"]
    failed = {c.name: c.detail for c in report.failures()}
    for name in ("character-sum", "dimension", "summand-shape"):
        assert str(bad) in failed[name]


def test_cached_decomposition_is_immutable():
    d = decompose((3, 1), (3, 1), 5)
    text, data = str(d), d.to_json()
    with pytest.raises(AttributeError):
        d.summands.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.summands = ()
    again = decompose((3, 1), (3, 1), 5)
    assert str(again) == text and again.to_json() == data
    assert verify(again).passed


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


def test_sweep_accepts_any_prime(monkeypatch):
    # the package re-exports the function decompose under the module's name
    decompose_module = importlib.import_module("sl3tensor.decompose")
    seen = {}

    def stub(p, pairs, run_verify):
        seen.update(p=p, pairs=len(pairs), run_verify=run_verify)
        return "stub"

    monkeypatch.setattr(decompose_module, "_sweep_pairs", stub)
    assert sweep(13, run_verify=False) == "stub"
    assert seen == {"p": 13, "pairs": 13**4, "run_verify": False}


def _as_if_checked(c):
    """A character from the unchecked internal constructor is exactly what
    the checked one builds from its terms: no zero term, and immutable."""
    assert c == Character(c.basis, dict(c.coeffs))
    assert 0 not in c.coeffs.values()
    with pytest.raises(TypeError):
        c.coeffs[(0, 0)] = 1
    with pytest.raises(AttributeError):
        c.basis = "monomial"


def test_internal_characters_match_checked_construction_on_every_p5_pair():
    p = 5
    weights = restricted_weights(p)
    for nu in weights:
        for nu2 in weights:
            total = tensor_char(nu, nu2, p)
            _as_if_checked(total)
            case = 1 + (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
            for rep, block in split_blocks(total, p).items():
                _as_if_checked(block)
                if case == 2:
                    _, residual = _greedy(
                        block, p, lambda w: "L" if classify(w, p) == "C2" else "T")
                else:
                    floor = (floor_weights(rep, p)
                             if case == 3 and _is_regular_rep(rep, p) else ())
                    _, residual = greedy_tilting(block, p, frozenset(floor))
                _as_if_checked(residual)
                if residual:
                    _as_if_checked(to_simple_basis(residual, p))
            _as_if_checked(summands_char(decompose(nu, nu2, p).summands, p))


def _block_keys(p):
    """``(rep, flat items, case)`` of every block of every pair at p, in
    sweep order, as ``decompose`` keys its block memo."""
    for nu in restricted_weights(p):
        for nu2 in restricted_weights(p):
            case = 1 + (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
            for rep, block in split_blocks(tensor_char(nu, nu2, p), p).items():
                yield rep, tuple(chain.from_iterable(block.coeffs.items())), case


def test_block_memo_matches_unmemoized_resolution_on_every_p5_pair():
    for rep, items, case in _block_keys(5):
        got = _resolve_block(rep, items, case, 5)
        assert type(got) is tuple
        assert got == _resolve_block.__wrapped__(rep, items, case, 5), (rep, case)


def test_sweep_resolves_each_distinct_block_once():
    decompose.cache_clear()
    _resolve_block.cache_clear()
    sweep(5, run_verify=False)
    keys = list(_block_keys(5))
    info = _resolve_block.cache_info()
    assert info.misses == len(set(keys))
    assert info.hits == len(keys) - len(set(keys)) > 0


def test_block_memo_keys_on_case_and_prime():
    # X(3,1) + X(2,0) is T(3,1) at p=5; (3,1) lies in C2 there, so case 2
    # takes L(3,1) first.  At p=7 both weights lie in C1: two tiltings.
    items = ((3, 1), 1, (2, 0), 1)
    t31, l31, t20 = Summand("T", (3, 1), 1), Summand("L", (3, 1), 1), Summand("T", (2, 0), 2)
    assert _resolve_block((2, 0), items, 1, 5) == (t31,)
    assert _resolve_block((2, 0), items, 2, 5) == (l31, t20)
    assert _resolve_block((2, 0), items, 1, 7) == (t31, Summand("T", (2, 0), 1))


def summand_multiset(d):
    return Counter((s.kind, s.weight, s.multiplicity) for s in d.summands)


def test_decompose_commutes_on_every_p5_pair():
    weights = restricted_weights(5)
    for i, nu in enumerate(weights):
        for nu2 in weights[i + 1:]:
            assert summand_multiset(decompose(nu, nu2, 5)) == summand_multiset(
                decompose(nu2, nu, 5)
            ), (nu, nu2)


@st.composite
def restricted_pair(draw):
    p = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23]))
    coord = st.integers(min_value=0, max_value=p - 1)
    return p, (draw(coord), draw(coord)), (draw(coord), draw(coord))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(restricted_pair())
def test_random_prime_pairs_verify_and_commute(case):
    p, nu, nu2 = case
    d = decompose(nu, nu2, p)
    assert verify(d).passed, (p, nu, nu2)
    assert summand_multiset(decompose(nu2, nu, p)) == summand_multiset(d)
    assert any(s.kind == "M" for s in d.summands) == (d.case == 3), (p, nu, nu2)


def test_sweep_no_verify_counts_match():
    quick = sweep(5, run_verify=False)
    assert quick.pairs == 625
    assert quick.passed
    full = sweep(5, run_verify=True)
    assert full.summand_counts == quick.summand_counts
    assert full.m_pairs == quick.m_pairs


def test_sweep_parallel_agrees():
    serial = sweep(5, run_verify=False)
    parallel = sweep(5, run_verify=False, jobs=2)
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
    # capped by the CPU count, then by the 25 chunks; one worker runs serially
    assert sizes == [2, 25]
