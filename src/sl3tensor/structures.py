"""Facet-indexed structure data: layered diagrams of Weyl, tilting and M
modules.

The tables are shipped as literal JSON records (one per facet and kind) in
``data/structures.json`` and are never regenerated at runtime.  Layer lists
run top to bottom; edges join entries of adjacent layers and are stored as
``[layer_i, index_i, layer_i+1, index_j]``.  A Weyl module's composition
factors are the layers of its ``delta`` diagram and are stated nowhere else.

For the non-uniserial tilting modules in the two largest alcove families the
source diagrams show Loewy layers with only the standard-filtration edges
drawn; those edge lists are partial by nature and are used for rendering
only.  Layer multisets are the load-bearing data: :mod:`~sl3tensor.modchar`
reads each tilting module's Weyl filtration from them.
"""

from __future__ import annotations

import json
import pkgutil
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

from .alcoves import ALL_FACETS

KINDS = ("delta", "tilting", "m")


class AlperinDiagram(NamedTuple):
    facet: str
    kind: str
    layers: Tuple[Tuple[str, ...], ...]
    edges: Tuple[Tuple[int, int, int, int], ...]

    def layer_multiset(self) -> Counter:
        return Counter(x for layer in self.layers for x in layer)


def _load() -> Dict[Tuple[str, str], AlperinDiagram]:
    text = pkgutil.get_data("sl3tensor", "data/structures.json")
    diagrams = {}
    for rec in json.loads(text):
        facet, kind = rec["facet"], rec["kind"]
        diagrams[facet, kind] = AlperinDiagram(
            facet, kind, tuple(map(tuple, rec["layers"])), tuple(map(tuple, rec["edges"])))
    for facet in ALL_FACETS:
        if (facet, "delta") not in diagrams or (facet, "tilting") not in diagrams:
            raise AssertionError(f"structure data missing facet {facet}")
    return diagrams


_DIAGRAMS = _load()


def delta_factors(facet: str) -> List[str]:
    """Composition factors of the Weyl module at a facet: its diagram's layers."""
    if (facet, "delta") not in _DIAGRAMS:
        raise ValueError(f"no composition data for facet {facet!r}")
    return [x for layer in _DIAGRAMS[facet, "delta"].layers for x in layer]


def diagram(facet: str, kind: str) -> AlperinDiagram:
    """Stored layered diagram; kind is 'delta', 'tilting' or 'm'."""
    if kind not in KINDS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    key = (facet, kind)
    if key not in _DIAGRAMS:
        raise ValueError(f"no stored {kind} diagram for facet {facet!r}")
    return _DIAGRAMS[key]


def diagram_dot(d: AlperinDiagram, labeler=None, title: str | None = None) -> str:
    """Graphviz rendering of a layered diagram.

    ``labeler(facet_label) -> str or None`` relabels nodes; entries mapped to
    None are dropped together with their edges.
    """
    labeler = labeler or (lambda x: x)
    lines = [f'digraph "{title or d.kind + " " + d.facet}" {{']
    lines.append("  rankdir=TB;")
    lines.append("  node [shape=box];")
    lines.append("  edge [arrowhead=none];")
    kept = {}
    for i, layer in enumerate(d.layers):
        names = []
        for j, entry in enumerate(layer):
            text = labeler(entry)
            if text is None:
                continue
            name = f"n{i}_{j}"
            kept[(i, j)] = name
            lines.append(f'  {name} [label="{text}"];')
            names.append(name)
        if names:
            lines.append("  { rank=same; " + "; ".join(names) + "; }")
    for li, ii, lj, jj in d.edges:
        if (li, ii) in kept and (lj, jj) in kept:
            lines.append(f"  {kept[(li, ii)]} -> {kept[(lj, jj)]};")
    lines.append("}")
    return "\n".join(lines)
