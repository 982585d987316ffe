"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact integer arithmetic; the only tolerances are the
stated wall-clock budgets.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import hashlib
import json
import random
import time
from collections import Counter

from sl3tensor import sprime
from sl3tensor.decompose import decompose, summand_dim, sweep, tensor_char, verify
from sl3tensor.modchar import simple_dim, to_simple_basis
from sl3tensor.alcoves import ALL_FACETS
from sl3tensor.structures import delta_factors, diagram, tilting_delta_factors
from sl3tensor.quiver import is_isomorphic
from sl3tensor.weylchar import Character, lr_tensor, mult_via_monomial


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# sha256 of every per-pair decomposition JSON in (a, b, c, d) order, one
# line each, and of the sweep summary JSON; any change to an answer or to
# its serialisation changes them.
GOLDEN_SWEEP_DIGESTS = {
    5: ("2eac4e1e364f439d82dc0c32a58104cf79aa3744c795e6eadff81b78774a80c6",
        "22c82cf8a4c77308124af8d6ed5dad0bf712cef36cbad30acebf19a5f3643e21"),
    7: ("a79118aa6ced68f848f23266753c9cbe518067cab30bf6f7656ee25c310c0a7d",
        "5d0a6694c764f99ceb8545bc801e39344bf2060747c21e2a809510106eb0a3e1"),
}


def _canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _sweep_digests(result):
    p = result.p
    weights = [(a, b) for a in range(p) for b in range(p)]
    pairs = hashlib.sha256()
    for nu in weights:
        for nu2 in weights:
            pairs.update(_canonical(decompose(nu, nu2, p).to_json()) + b"\n")
    return pairs.hexdigest(), hashlib.sha256(_canonical(result.to_json())).hexdigest()


def test_criterion_1_case3_example():
    start = time.perf_counter()
    d = decompose((3, 1), (3, 1), 5)
    elapsed = time.perf_counter() - start
    got = {(s.kind, s.weight, s.multiplicity) for s in d.summands}
    assert got == {
        ("M", (1, 3), 1), ("T", (0, 2), 1), ("T", (6, 2), 1), ("T", (4, 3), 1)
    }
    dims = {(s.kind, s.weight): summand_dim(s, 5) for s in d.summands}
    assert dims[("M", (1, 3))] == 63
    assert dims[("T", (0, 2))] == 6
    assert dims[("T", (6, 2))] == 165
    assert dims[("T", (4, 3))] == 90
    assert sum(dims.values()) == 324 == 18 * 18 == d.dim_product
    assert verify(d).passed
    assert elapsed < 1.0
    _report(1, f"M(1,3)+T(0,2)+T(6,2)+T(4,3), 63+6+165+90=324, {elapsed:.3f}s")


def test_criterion_2_case2_example():
    start = time.perf_counter()
    d = decompose((2, 2), (1, 1), 5)
    elapsed = time.perf_counter() - start
    got = {(s.kind, s.weight, s.multiplicity) for s in d.summands}
    assert got == {
        ("L", (3, 3), 1), ("T", (1, 4), 1), ("T", (4, 1), 1), ("L", (2, 2), 1)
    }
    dims = {(s.kind, s.weight): summand_dim(s, 5) for s in d.summands}
    assert dims[("L", (3, 3))] == 63
    assert dims[("T", (1, 4))] == 35
    assert dims[("T", (4, 1))] == 35
    assert dims[("L", (2, 2))] == 19
    assert sum(dims.values()) == 152 == 19 * 8 == d.dim_product
    assert verify(d).passed
    assert elapsed < 1.0
    _report(2, f"L(3,3)+T(1,4)+T(4,1)+L(2,2), 63+35+35+19=152, {elapsed:.3f}s")


def test_criterion_3_simple_basis_display():
    got = to_simple_basis(tensor_char((3, 1), (3, 1), 5), 5)
    expected = Character(
        "simple",
        {(6, 2): 1, (2, 4): 2, (4, 3): 1, (7, 0): 1, (0, 5): 1, (1, 3): 2, (0, 2): 2},
    )
    assert got == expected
    _report(3, "simple-basis form of the (3,1) x (3,1) character matches exactly")


def test_criterion_4_sweeps():
    start = time.perf_counter()
    res5 = sweep(5, run_verify=True)
    t5 = time.perf_counter() - start
    assert res5.pairs == 625
    assert res5.failures == []
    assert t5 < 60.0
    assert _sweep_digests(res5) == GOLDEN_SWEEP_DIGESTS[5]

    start = time.perf_counter()
    res7 = sweep(7, run_verify=True)
    t7 = time.perf_counter() - start
    assert res7.pairs == 2401
    assert res7.failures == []
    assert t7 < 600.0
    assert _sweep_digests(res7) == GOLDEN_SWEEP_DIGESTS[7]
    _report(4, f"sweep p=5: 625 pairs 0 failures {t5:.1f}s; "
               f"p=7: 2401 pairs 0 failures {t7:.1f}s")


def test_criterion_5_fundamental_tensor_identity():
    for a in range(16):
        for b in range(16):
            expected = {}
            for w in [(a + 1, b), (a, b - 1), (a - 1, b + 1)]:
                if w[0] >= 0 and w[1] >= 0:
                    expected[w] = 1
            assert lr_tensor((1, 0), (a, b)) == Character("weyl", expected), (a, b)
    _report(5, "natural-module tensor identity holds for all 0 <= a,b <= 15")


def test_criterion_6_lr_oracle_equivalence():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(500):
        lam = (rng.randint(0, 12), rng.randint(0, 12))
        mu = (rng.randint(0, 12), rng.randint(0, 12))
        direct = lr_tensor(lam, mu)
        oracle = mult_via_monomial(
            Character("weyl", {lam: 1}), Character("weyl", {mu: 1})
        )
        assert direct == oracle, (lam, mu)
    elapsed = time.perf_counter() - start
    _report(6, f"500 random pairs agree with the convolution oracle, {elapsed:.1f}s")


def test_criterion_7_steinberg():
    d = decompose((4, 4), (4, 4), 5)
    assert all(s.kind == "T" for s in d.summands)
    assert sum(summand_dim(s, 5) for s in d.summands) == 15625 == d.dim_product
    assert simple_dim((0, 5), 5) == 3
    _report(7, "Steinberg square is pure tilting of dimension 15625; "
               "dim L(0,5) = 3")


def test_criterion_8_counting_oracle():
    for facet in ALL_FACETS:
        expansion = Counter()
        for g in tilting_delta_factors(facet):
            expansion.update(delta_factors(g))
        assert diagram(facet, "tilting").layer_multiset() == expansion, facet
    _report(8, f"tilting diagrams re-derive all {len(ALL_FACETS)} filtration tables")


def test_criterion_9_quiver_suite():
    start = time.perf_counter()
    alg = sprime.algebra()
    p1 = alg.projective("1")
    rad1, _, _ = p1.loewy()
    assert rad1 == [{"1": 1}, {"2": 1}, {"1": 1}]
    rad3, _, _ = alg.projective("3").loewy()
    assert rad3 == [{"3": 1}, {"2": 1}]
    p2 = alg.projective("2")
    rad2, _, rigid2 = p2.loewy()
    assert rad2 == [{"2": 1}, {"1": 1, "3": 1, "3p": 1}, {"2": 2}]
    assert rigid2

    m2 = sprime.module_m2(alg)
    _, _, rigidm = m2.loewy()
    assert rigidm
    assert is_isomorphic(m2.contravariant_dual(), m2)
    for combo in (((1, ("b1'", "b1")),), ((1, ("b2'", "b2")),)):
        q = p2.quotient_by(combo)
        assert q.total_dim == 5
        assert not is_isomorphic(q.contravariant_dual(), q)

    expected_edges = {
        ("b1'b1", "b2'b2"): {
            ("a'", "e2", "a'"), ("b1'", "e2", "b1'"), ("b2'", "e2", "b2'"),
            ("b1", "b1'", "b1'b1"), ("b2", "b2'", "b2'b2"),
            ("a", "a'", "b1'b1"), ("a", "a'", "b2'b2"),
        },
        ("a'a", "b2'b2"): {
            ("a'", "e2", "a'"), ("b1'", "e2", "b1'"), ("b2'", "e2", "b2'"),
            ("a", "a'", "a'a"), ("b2", "b2'", "b2'b2"),
            ("b1", "b1'", "a'a"), ("b1", "b1'", "b2'b2"),
        },
        ("a'a", "b1'b1"): {
            ("a'", "e2", "a'"), ("b1'", "e2", "b1'"), ("b2'", "e2", "b2'"),
            ("a", "a'", "a'a"), ("b1", "b1'", "b1'b1"),
            ("b2", "b2'", "a'a"), ("b2", "b2'", "b1'b1"),
        },
    }
    for names, want in expected_edges.items():
        assert sprime.p2_coefficient_quiver(names, alg).edge_set() == want

    checks = sprime.report()
    failures = [(n, d) for n, ok, d in checks if not ok]
    assert not failures, failures

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(9, f"all {len(checks)} path-algebra checks pass, {elapsed:.2f}s")
