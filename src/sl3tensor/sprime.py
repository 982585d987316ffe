"""The four-vertex quotient path algebra governing the lowest alcoves.

Vertices 1, 2, 3, 3p label the simple modules of the four lowest facets;
the algebra is the path algebra of the double-arrow star below modulo the
relations listed in PRESENTATION_TEXT.  Its projectives realize the small
Weyl and tilting structures exactly, and the quotient M2 of the projective
at vertex 2 is the non-highest-weight module attached to the second alcove:
rigid, contravariantly self-dual, with head and socle at vertex 2.

The vertices stand for the facets C1, C2, C3 and C3'.  :func:`report` checks
the stored delta records at C3 and C3' against P3 and P3p, the four lowest
Weyl compositions by reciprocity, the m record against M2 and T(C2) against P1.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from .quiver import (
    CoefficientQuiver,
    FDModule,
    PathAlgebra,
    Presentation,
    coefficient_quiver,
    is_isomorphic,
    parse_presentation,
)
from .structures import delta_factors, diagram

_VERTEX = {"C1": "1", "C2": "2", "C3": "3", "C3p": "3p"}  # stored facet -> vertex

PRESENTATION_TEXT = """
a:   1  -> 2
a':  2  -> 1
b1:  3  -> 2
b1': 2  -> 3
b2:  3p -> 2
b2': 2  -> 3p

a.b1' = 0
a.b2' = 0
a.a'.a = 0
b1.a' = 0
b1.b1' = 0
b1.b2' = 0
b2.a' = 0
b2.b1' = 0
b2.b2' = 0
a'.a - b1'.b1 - b2'.b2 = 0
"""

DUALITY = {"a": "a'", "b1": "b1'", "b2": "b2'"}


def presentation() -> Presentation:
    return parse_presentation(PRESENTATION_TEXT, duality=DUALITY)


def algebra() -> PathAlgebra:
    return PathAlgebra(presentation(), 6)


def module_m2(alg: PathAlgebra) -> FDModule:
    """Quotient of the vertex-2 projective by the difference of the two
    length-two return paths; the unique self-dual dimension-5 quotient."""
    return alg.projective("2").quotient_by(((1, ("b1'", "b1")), (-1, ("b2'", "b2"))))


def _by_vertex(*layers) -> Dict[str, int]:  # a facet off the quiver keeps its label
    return dict(Counter(_VERTEX.get(f, f) for layer in layers for f in layer))


def _stored_layers(facet: str, kind: str) -> List[Dict[str, int]]:
    return [_by_vertex(layer) for layer in diagram(facet, kind).layers]


def middle_basis(p2: FDModule, names: Tuple[str, str]) -> Dict[str, List[Tuple[str, object]]]:
    """Labelled basis of the vertex-2 projective with a chosen pair of
    length-two paths spanning the bottom layer.

    Valid names: "a'a", "b1'b1", "b2'b2"; exactly two of them.
    """
    combos = {
        "a'a": ((1, ("a'", "a")),),
        "b1'b1": ((1, ("b1'", "b1")),),
        "b2'b2": ((1, ("b2'", "b2")),),
    }
    if len(names) != 2 or any(n not in combos for n in names) or names[0] == names[1]:
        raise ValueError(f"basis must pick two distinct of {sorted(combos)}")
    basis = p2.coordinate_basis()
    gv, gi = p2.generator
    basis["2"] = [basis[gv][gi]]
    for n in names:
        vertex, vec = p2.eval_path_combo(combos[n])
        assert vertex == "2"
        basis["2"].append((n, vec))
    return basis


def p2_coefficient_quiver(names: Tuple[str, str], alg: PathAlgebra) -> CoefficientQuiver:
    p2 = alg.projective("2")
    return coefficient_quiver(p2, middle_basis(p2, names))


# ---------------------------------------------------------------------------
# the full invariant suite over this algebra
# ---------------------------------------------------------------------------

def report() -> List[Tuple[str, bool, str]]:
    """Run every structural check; returns (name, ok, detail) triples."""
    checks: List[Tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    alg = algebra()
    add("algebra-stabilizes", alg.stabilized, f"max path length {alg.max_length}")
    add("algebra-dimension", alg.dimension == 13, f"dim {alg.dimension}")
    add("algebra-path-length", alg.max_length == 2, f"{alg.max_length}")

    projectives = {v: alg.projective(v) for v in ("1", "2", "3", "3p")}
    for v, mod in projectives.items():
        try:
            mod.check_relations()
            add(f"relations-P{v}", True)
        except AssertionError as exc:
            add(f"relations-P{v}", False, str(exc))

    p1, p2, p3, p3p = (projectives[v] for v in ("1", "2", "3", "3p"))
    loewy = {v: mod.loewy() for v, mod in projectives.items()}
    rad1, _, rigid1 = loewy["1"]
    add("P1-uniserial-121", rad1 == _stored_layers("C2", "tilting"))
    add("P1-rigid", rigid1)
    rad3, _, rigid3 = loewy["3"]
    add("P3-delta", rad3 == _stored_layers("C3", "delta") and rigid3)
    rad3p, _, rigid3p = loewy["3p"]
    add("P3p-delta", rad3p == _stored_layers("C3p", "delta") and rigid3p)
    rad2, _, rigid2 = loewy["2"]  # P2 is not self-dual, so it is no stored record
    add(
        "P2-loewy",
        rad2 == [{"2": 1}, {"1": 1, "3": 1, "3p": 1}, {"2": 2}],
        str(rad2),
    )
    add("P2-rigid", rigid2)
    add("P2-dim", p2.total_dim == 6, str(p2.total_dim))

    # layer reciprocity: multiplicity of a vertex simple in layer i of one
    # projective equals the mirrored multiplicity
    vertices = ("1", "2", "3", "3p")
    rads = {v: loewy[v][0] for v in vertices}
    recp_ok = True
    for mu in vertices:
        for lam in vertices:
            depth = max(len(rads[mu]), len(rads[lam]))
            for i in range(depth):
                left = rads[mu][i].get(lam, 0) if i < len(rads[mu]) else 0
                right = rads[lam][i].get(mu, 0) if i < len(rads[lam]) else 0
                if left != right:
                    recp_ok = False
    add("layer-reciprocity", recp_ok)

    # reciprocity between projective filtration counts and stored Weyl factors
    delta_comp = {v: _by_vertex(delta_factors(f)) for f, v in _VERTEX.items()}
    order = ("3", "3p", "2", "1")  # filtration solve, highest first
    bh_ok = True
    for mu in vertices:
        comp = dict(projectives[mu].composition_multiset())
        filt: Dict[str, int] = {}
        for lam in order:
            n = comp.get(lam, 0)
            filt[lam] = n
            for x, c in delta_comp[lam].items():
                comp[x] = comp.get(x, 0) - n * c
        if any(comp.values()):
            bh_ok = False
        for lam in vertices:
            if filt.get(lam, 0) != delta_comp[lam].get(mu, 0):
                bh_ok = False
    add("filtration-reciprocity", bh_ok)

    # duality behaviour of the projectives
    add("dual-P1-is-P1", is_isomorphic(p1.contravariant_dual(), p1))
    add("dual-involution-P2", is_isomorphic(p2.contravariant_dual().contravariant_dual(), p2))
    add("dual-P2-not-P2", not is_isomorphic(p2.contravariant_dual(), p2))

    m2 = module_m2(alg)
    radm, _, rigidm = m2.loewy()
    add("M2-dim", m2.total_dim == 5, str(m2.total_dim))
    add("M2-loewy", radm == _stored_layers("C2", "m"), str(radm))
    add("M2-rigid", rigidm)
    add("M2-composition", m2.composition_multiset() == _by_vertex(*diagram("C2", "m").layers))
    add("M2-self-dual", is_isomorphic(m2.contravariant_dual(), m2))

    # the other natural dimension-5 quotients are not self-dual
    for name, combo in (
        ("b1'b1", ((1, ("b1'", "b1")),)),
        ("b2'b2", ((1, ("b2'", "b2")),)),
        ("a'a", ((1, ("a'", "a")),)),
    ):
        quotient = p2.quotient_by(combo)
        ok = quotient.total_dim == 5 and not is_isomorphic(
            quotient.contravariant_dual(), quotient
        )
        add(f"quotient-{name}-not-self-dual", ok)

    # head quotient collapses, zero element is a no-op
    add("quotient-by-head-kills", p2.quotient_by(((1, ()),)).total_dim == 0)
    zero = p2.quotient_by(((1, ("b1'", "b1")), (-1, ("b1'", "b1"))))
    add("quotient-by-zero-noop", zero is p2)

    # the three coefficient quivers of the vertex-2 projective
    expected = {
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
    for names, want in expected.items():
        cq = p2_coefficient_quiver(names, alg)
        add(
            f"coefficient-quiver-{names[0]}-{names[1]}",
            cq.edge_set() == want,
            str(sorted(cq.edge_set() - want) + sorted(want - cq.edge_set())),
        )

    return checks
