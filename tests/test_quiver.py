import itertools
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from sl3tensor import sprime, structures
from sl3tensor.quiver import (
    Arrow,
    FDModule,
    PathAlgebra,
    Presentation,
    Quiver,
    _rref,
    coefficient_quiver,
    hom_space,
    is_isomorphic,
    parse_presentation,
)


@pytest.fixture(scope="module")
def alg():
    return sprime.algebra()


@pytest.fixture(scope="module")
def projectives(alg):
    return {v: alg.projective(v) for v in ("1", "2", "3", "3p")}


def test_presentation_parses():
    pres = sprime.presentation()
    assert set(pres.quiver.vertices) == {"1", "2", "3", "3p"}
    assert len(pres.quiver.arrows) == 6
    assert len(pres.relations) == 10
    assert pres.duality["a"] == "a'"
    assert pres.duality["b1'"] == "b1"


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_presentation("a: 1 -> 2\nb: 2 -> 3\na.b - b = 0")  # endpoints differ
    with pytest.raises(ValueError):
        parse_presentation("a: 1 -> 2\na': 2 -> 1\na.a' - a = 0")  # inhomogeneous
    with pytest.raises(ValueError):
        parse_presentation("a: 1 -> 2\na: 2 -> 3")  # duplicate names
    with pytest.raises(ValueError):
        parse_presentation("a: 1 -> 2", duality={"a": "a"})  # no direction reversal


def test_algebra_stabilizes(alg):
    assert alg.stabilized
    assert alg.max_length == 2
    assert alg.dimension == 13
    per_vertex = {v: alg.projective(v).total_dim for v in ("1", "2", "3", "3p")}
    assert per_vertex == {"1": 3, "2": 6, "3": 2, "3p": 2}


def test_loop_quiver_does_not_stabilize():
    loop = PathAlgebra(
        Presentation(Quiver([Arrow("x", "v", "v")]), []), length_bound=5
    )
    assert not loop.stabilized
    with pytest.raises(RuntimeError):
        _ = loop.dimension


def test_extra_relation_shrinks_algebra():
    pres = parse_presentation(
        sprime.PRESENTATION_TEXT + "\nb1'.b1 - b2'.b2 = 0", duality=sprime.DUALITY
    )
    smaller = PathAlgebra(pres, 6)
    assert smaller.stabilized
    assert smaller.dimension < 13


def test_projective_p1_uniserial(projectives):
    p1 = projectives["1"]
    assert p1.dims == {"1": 2, "2": 1, "3": 0, "3p": 0}
    rad, soc, rigid = p1.loewy()
    assert rad == [{"1": 1}, {"2": 1}, {"1": 1}]
    assert rigid


def test_projective_p3(projectives):
    rad, _, rigid = projectives["3"].loewy()
    assert rad == [{"3": 1}, {"2": 1}]
    assert rigid
    rad_p, _, _ = projectives["3p"].loewy()
    assert rad_p == [{"3p": 1}, {"2": 1}]


def test_projective_p2_structure(projectives):
    p2 = projectives["2"]
    assert p2.total_dim == 6
    rad, soc, rigid = p2.loewy()
    assert rad == [{"2": 1}, {"1": 1, "3": 1, "3p": 1}, {"2": 2}]
    assert soc == [{"2": 2}, {"1": 1, "3": 1, "3p": 1}, {"2": 1}]
    assert rigid


def test_projective_heads(projectives):
    for v, module in projectives.items():
        rad, _, _ = module.loewy()
        assert rad[0] == {v: 1}


def test_relations_hold_exactly(projectives):
    for module in projectives.values():
        module.check_relations()  # raises on failure


def test_vertex_simple_is_rigid(alg):
    simple = type(alg.projective("1"))(
        sprime.presentation(), {"1": 1, "2": 0, "3": 0, "3p": 0}, {}
    )
    rad, soc, rigid = simple.loewy()
    assert rad == [{"1": 1}] and soc == [{"1": 1}] and rigid


def test_layer_reciprocity(projectives):
    vertices = ("1", "2", "3", "3p")
    rads = {v: projectives[v].loewy()[0] for v in vertices}
    for mu in vertices:
        for lam in vertices:
            depth = max(len(rads[mu]), len(rads[lam]))
            for i in range(depth):
                left = rads[mu][i].get(lam, 0) if i < len(rads[mu]) else 0
                right = rads[lam][i].get(mu, 0) if i < len(rads[lam]) else 0
                assert left == right


def test_filtration_reciprocity(projectives):
    """Standard-filtration multiplicities of projectives match the Weyl
    composition numbers (solved triangularly from composition multisets)."""
    delta_comp = {
        "1": {"1": 1},
        "2": {"2": 1, "1": 1},
        "3": {"3": 1, "2": 1},
        "3p": {"3p": 1, "2": 1},
    }
    for mu, module in projectives.items():
        comp = dict(module.composition_multiset())
        filt = {}
        for lam in ("3", "3p", "2", "1"):
            n = comp.get(lam, 0)
            filt[lam] = n
            for x, c in delta_comp[lam].items():
                comp[x] = comp.get(x, 0) - n * c
        assert not any(comp.values())
        for lam in delta_comp:
            assert filt[lam] == delta_comp[lam].get(mu, 0)


def test_dual_p1_is_p1(projectives):
    p1 = projectives["1"]
    assert is_isomorphic(p1.contravariant_dual(), p1)


def test_dual_is_involution(projectives):
    p2 = projectives["2"]
    assert is_isomorphic(p2.contravariant_dual().contravariant_dual(), p2)


def test_dual_p2_differs(projectives):
    p2 = projectives["2"]
    assert not is_isomorphic(p2.contravariant_dual(), p2)


def test_m2_structure(alg):
    m2 = sprime.module_m2(alg)
    assert m2.total_dim == 5
    assert m2.composition_multiset() == {"1": 1, "2": 2, "3": 1, "3p": 1}
    rad, soc, rigid = m2.loewy()
    assert rad == [{"2": 1}, {"1": 1, "3": 1, "3p": 1}, {"2": 1}]
    assert rigid
    assert is_isomorphic(m2.contravariant_dual(), m2)


def test_asymmetric_quotients_not_self_dual(alg):
    p2 = alg.projective("2")
    for combo in (((1, ("b1'", "b1")),), ((1, ("b2'", "b2")),), ((1, ("a'", "a")),)):
        q = p2.quotient_by(combo)
        assert q.total_dim == 5
        assert not is_isomorphic(q.contravariant_dual(), q)


def test_quotient_edge_cases(alg):
    p2 = alg.projective("2")
    assert p2.quotient_by(((1, ()),)).total_dim == 0
    zero_combo = ((1, ("b1'", "b1")), (-1, ("b1'", "b1")))
    assert p2.quotient_by(zero_combo) is p2


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when a series never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("series", ["radical_series", "socle_series", "loewy"])
def test_loewy_series_reject_non_nilpotent_arrows(series):
    loop = FDModule(parse_presentation("x: 1 -> 1\n"), {"1": 1}, {"x": ((1,),)})
    with _deadline(5), pytest.raises(ValueError, match="nilpotent"):
        getattr(loop, series)()


def test_zero_module_has_empty_loewy_series(alg):
    zero = alg.projective("2").quotient_by(((1, ()),))
    with _deadline(5):
        assert zero.radical_series() == []
        assert zero.socle_series() == []
        assert zero.loewy() == ([], [], True)


def _iso_by_product_grid(m, n):
    """Reference: the product of all vertex determinants searched on the
    grid {0..D}^n, D the total dimension and n the hom-space dimension."""
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_space(m, n)
    vertices = [v for v in m.pres.quiver.vertices if m.dims[v]]
    for coeffs in itertools.product(range(m.total_dim + 1), repeat=len(basis)):
        if all(len(_rref([[sum(c * phi[v][i][j] for c, phi in zip(coeffs, basis))
                           for j in range(m.dims[v])] for i in range(m.dims[v])])[1])
               == m.dims[v] for v in vertices):
            return True
    return False


def test_vertex_by_vertex_search_matches_the_product_grid(alg, projectives):
    # the seven module pairs that sprime.report decides
    p1, p2 = projectives["1"], projectives["2"]
    m2 = sprime.module_m2(alg)
    pairs = [(p1.contravariant_dual(), p1),
             (p2.contravariant_dual().contravariant_dual(), p2),
             (p2.contravariant_dual(), p2),
             (m2.contravariant_dual(), m2)]
    for path in (("b1'", "b1"), ("b2'", "b2"), ("a'", "a")):
        q = p2.quotient_by(((1, path),))
        pairs.append((q.contravariant_dual(), q))
    got = [is_isomorphic(m, n) for m, n in pairs]
    assert got == [_iso_by_product_grid(m, n) for m, n in pairs]
    assert got == [True, True, False, True, False, False, False]


def test_m2_not_isomorphic_to_other_quotients(alg):
    p2 = alg.projective("2")
    m2 = sprime.module_m2(alg)
    other = p2.quotient_by(((1, ("b1'", "b1")),))
    assert not is_isomorphic(m2, other)


def test_hom_space_dimensions(projectives):
    p2, p3 = projectives["2"], projectives["3"]
    # dim Hom(P(v), X) equals the multiplicity of the vertex simple in X
    assert len(hom_space(p2, p2)) == 3
    assert len(hom_space(p3, p3)) == 1
    assert len(hom_space(p2, p3)) == 1
    assert len(hom_space(p3, p2)) == 1


def test_hom_space_between_vertex_simples():
    # no arrow acts on a vertex simple, so the hom equations have no rows
    pres = sprime.presentation()
    s1 = FDModule(pres, {"1": 1}, {})
    s2 = FDModule(pres, {"2": 1}, {})
    assert hom_space(s1, s1) == [{"1": ((1,),), "2": (), "3": (), "3p": ()}]
    assert hom_space(s1, s2) == []
    assert is_isomorphic(s1, s1)


def test_coefficient_quiver_shapes(alg):
    cq = sprime.p2_coefficient_quiver(("b1'b1", "b2'b2"), alg)
    doubled = [e for e in cq.edge_set() if e[1] == "a'"]
    assert len(doubled) == 2  # the middle vertex-1 node carries two edges
    assert all(c == 1 for _, _, _, c in cq.edges)

    cq2 = sprime.p2_coefficient_quiver(("a'a", "b2'b2"), alg)
    from_one = [e for e in cq2.edge_set() if e[1] == "a'"]
    assert len(from_one) == 1  # one edge fewer from the vertex-1 node
    from_three = [e for e in cq2.edges if e[1] == "b1'"]
    assert len(from_three) == 2
    assert sorted(c for _, _, _, c in from_three) == [Fraction(-1), Fraction(1)]

    cq3 = sprime.p2_coefficient_quiver(("a'a", "b1'b1"), alg)
    from_threep = [e for e in cq3.edge_set() if e[1] == "b2'"]
    assert len(from_threep) == 2


def test_coefficient_quiver_validates_basis(alg):
    p2 = alg.projective("2")
    basis = sprime.middle_basis(p2, ("b1'b1", "b2'b2"))
    basis["1"] = []  # wrong size
    with pytest.raises(ValueError):
        coefficient_quiver(p2, basis)
    with pytest.raises(ValueError):
        sprime.middle_basis(p2, ("b1'b1", "b1'b1"))


def test_coefficient_quiver_dot(alg):
    cq = sprime.p2_coefficient_quiver(("a'a", "b2'b2"), alg)
    dot = cq.to_dot("P2")
    assert dot.startswith('digraph "P2"')
    assert "(-1)" in dot  # coefficient annotation on the non-unit edge


@pytest.mark.parametrize("arrow, facet", [("b2'", "C3"), ("b1'", "C3p")])
def test_p2_quotients_realize_the_tilting_records_at_c3_and_c3p(alg, arrow, facet):
    # P2 less the submodule one arrow generates is the tilting module at the
    # other third-alcove facet: rigid, self-dual, with the stored layers
    q = alg.projective("2").quotient_by(((1, (arrow,)),))
    rad, _, rigid = q.loewy()
    assert q.total_dim == 4
    assert rad == sprime._stored_layers(facet, "tilting")
    assert rigid
    assert is_isomorphic(q.contravariant_dual(), q)


def test_report_all_green():
    results = sprime.report()
    assert len(results) >= 30
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, failures


@pytest.mark.parametrize("key, layers, fails", [
    # C1 moved from M's middle layer to its bottom: the composition holds
    (("C2", "m"), (("C2",), ("C3", "C3p"), ("C2", "C1")), {"M2-loewy"}),
    # C1 added to the second layer of the Weyl module at C3
    (("C3", "delta"), (("C3",), ("C2", "C1")), {"P3-delta", "filtration-reciprocity"}),
    # C1 moved from the bottom of the tilting module at C2 to its middle
    (("C2", "tilting"), (("C1",), ("C2", "C1")), {"P1-uniserial-121"}),
], ids=["m-record", "delta-C3", "tilting-C2"])
def test_a_record_mutation_fails_the_quiver_suite(key, layers, fails):
    # the suite checks the shipped records, not literals of its own
    stored = structures._DIAGRAMS[key]
    structures._DIAGRAMS[key] = stored._replace(layers=layers)
    try:
        failed = {name for name, ok, _ in sprime.report() if not ok}
    finally:
        structures._DIAGRAMS[key] = stored
    assert failed == fails
    assert all(ok for _, ok, _ in sprime.report())
