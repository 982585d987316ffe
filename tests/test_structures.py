import json
import pkgutil
from collections import Counter

import pytest

from sl3tensor.alcoves import _CELLS, ALL_FACETS, VERTICES, sigma
from sl3tensor.modchar import _expansion, tilting_delta_factors
from sl3tensor.structures import delta_factors, diagram, diagram_dot


def test_delta_factor_examples():
    assert Counter(delta_factors("C2")) == Counter(["C2", "C1"])
    assert Counter(delta_factors("W3|4")) == Counter(["W3|4", "W2|3p"])
    assert delta_factors("Vrho") == ["Vrho"]
    assert Counter(delta_factors("C7")) == Counter(
        ["C7", "C6", "C6p", "C3", "C3p", "C5", "C4", "C4p", "C1"]
    )


def test_tilting_factor_examples():
    assert Counter(tilting_delta_factors("C4")) == Counter(["C4", "C3", "C3p", "C2"])
    assert Counter(tilting_delta_factors("W5|7")) == Counter(
        ["W5|7", "W4|6", "W4p|6p", "W1|2"]
    )
    assert tilting_delta_factors("C1") == ["C1"]
    assert Counter(tilting_delta_factors("C8")) == Counter(
        ["C8", "C6", "C5", "C4", "C3", "C2"]
    )
    # the wall between alcoves 6 and 8 keeps its lowest filtration factor
    assert Counter(tilting_delta_factors("W6|8")) == Counter(
        ["W6|8", "W4|5", "W2|3"]
    )


def test_every_facet_has_data():
    for facet in ALL_FACETS:
        assert delta_factors(facet)
        assert tilting_delta_factors(facet)
        assert diagram(facet, "delta")
        assert diagram(facet, "tilting")
    with pytest.raises(ValueError):
        delta_factors("out")
    with pytest.raises(ValueError):
        tilting_delta_factors("out")
    with pytest.raises(ValueError):
        diagram("C1", "m")  # stored only at the second alcove


def test_self_multiplicity_one():
    for facet in ALL_FACETS:
        assert Counter(delta_factors(facet))[facet] == 1
        assert Counter(tilting_delta_factors(facet))[facet] == 1


def test_sigma_equivariance_of_tables():
    for facet in ALL_FACETS:
        mirrored = sigma(facet)
        assert Counter(map(sigma, delta_factors(facet))) == Counter(
            delta_factors(mirrored)
        )
        assert Counter(map(sigma, tilting_delta_factors(facet))) == Counter(
            tilting_delta_factors(mirrored)
        )


def test_sigma_equivariance_of_diagram_layers():
    for facet in ALL_FACETS:
        for kind in ("delta", "tilting"):
            d = diagram(facet, kind)
            m = diagram(sigma(facet), kind)
            assert [Counter(map(sigma, layer)) for layer in d.layers] == [
                Counter(layer) for layer in m.layers
            ]


def test_delta_diagram_top_layer_is_facet():
    for facet in ALL_FACETS:
        assert diagram(facet, "delta").layers[0] == (facet,)


def test_delta_diagram_matches_table():
    # the composition factors are read from the layers, stated nowhere else
    for facet in ALL_FACETS:
        assert diagram(facet, "delta").layer_multiset() == Counter(
            delta_factors(facet)
        )


def test_counting_oracle():
    """A round trip: the Weyl filtration derived from each tilting diagram's
    layers, expanded through the Weyl layers, gives back those layers."""
    for facet in ALL_FACETS:
        expansion = Counter()
        for g in tilting_delta_factors(facet):
            expansion.update(delta_factors(g))
        assert diagram(facet, "tilting").layer_multiset() == expansion, facet


def test_tilting_layers_read_the_same_from_either_end():
    # a tilting module is contravariantly self-dual, so its Loewy layers
    # read bottom-up are its layers read top-down
    for facet in ALL_FACETS:
        layers = [Counter(layer) for layer in diagram(facet, "tilting").layers]
        assert layers == layers[::-1], facet


def test_derived_tilting_filtrations_hold_their_top_weyl_factor_once():
    # a Weyl filtration has no negative factor, and Δ(facet) is its top
    for facet in ALL_FACETS:
        filtration = dict(_expansion("T", facet))
        assert all(k > 0 for k in filtration.values()), (facet, filtration)
        assert filtration[facet] == 1, (facet, filtration)


def test_m_diagram():
    d = diagram("C2", "m")
    assert [list(layer) for layer in d.layers] == [["C2"], ["C3", "C1", "C3p"], ["C2"]]
    assert d.layer_multiset() == Counter({"C2": 2, "C3": 1, "C1": 1, "C3p": 1})


def test_specific_tilting_diagrams():
    t45 = diagram("W4|5", "tilting")
    assert [list(layer) for layer in t45.layers] == [
        ["W2|3"], ["W3p|4p"], ["W4|5", "W2|3"], ["W3p|4p"], ["W2|3"]
    ]
    t3 = diagram("C3", "tilting")
    assert [list(layer) for layer in t3.layers] == [["C2"], ["C3", "C1"], ["C2"]]


def test_edges_join_adjacent_layers():
    for facet in ALL_FACETS:
        for kind in ("delta", "tilting"):
            d = diagram(facet, kind)
            for li, ii, lj, jj in d.edges:
                assert lj == li + 1
                assert 0 <= ii < len(d.layers[li])
                assert 0 <= jj < len(d.layers[lj])


# An alcove in cell (i, j) has length 2(i + j) + [upper triangle], so its
# length parity is whether it is an upper triangle; a wall takes the parity
# of its lower-numbered alcove, the first in its label.
_UPPER = {label: upper for (_, _, upper), label in _CELLS.items()}


def _parity(facet):
    return _UPPER["C" + facet[1:].split("|")[0] if facet.startswith("W") else facet]


def test_stored_diagrams_obey_length_parity():
    # away from the vertices, whose classes are single weights: each layer
    # holds one parity, consecutive layers alternate, and every edge joins
    # opposite parities
    records = [diagram(f, kind) for f in ALL_FACETS if f not in VERTICES
               for kind in ("delta", "tilting")] + [diagram("C2", "m")]
    assert len(records) == 61
    for d in records:
        parities = [{_parity(x) for x in layer} for layer in d.layers]
        assert all(len(layer) == 1 for layer in parities), (d.facet, d.kind, parities)
        assert all(a != b for a, b in zip(parities, parities[1:])), (d.facet, d.kind)
        for li, ii, lj, jj in d.edges:
            assert _parity(d.layers[li][ii]) != _parity(d.layers[lj][jj]), (d.facet, d.kind, li, ii)
    assert sum(len(d.edges) for d in records) == 519


def test_diagram_dot_output():
    text = diagram_dot(diagram("C3", "tilting"))
    assert text.startswith("digraph")
    assert "rank=same" in text
    assert text.count("->") == 4
    # a labeler returning None drops the node and its edges
    text2 = diagram_dot(diagram("C3", "tilting"), labeler=lambda f: None if f == "C1" else f)
    assert text2.count("->") == 2


def test_data_file_carries_only_fields_something_reads():
    text = pkgutil.get_data("sl3tensor", "data/structures.json").decode()
    records = json.loads(text)
    fields = {"facet", "kind", "layers", "edges"}
    assert len(records) == 2 * len(ALL_FACETS) + 1
    for rec in records:
        assert set(rec) == fields, (rec["facet"], rec["kind"])
    # the canonical form, so a hand edit shows as a reviewable diff
    assert text == json.dumps(records, indent=1, sort_keys=True) + "\n"
