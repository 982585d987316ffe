"""Facet classification, linkage classes, and linked-weight lookup.

The fundamental region is the union of the fourteen labelled alcoves around
the origin, their sixteen interior walls, and three special vertices.  Facet
labels are plain strings:

* alcoves      ``"C1"`` .. ``"C9"``, with a trailing ``p`` for the mirror
  image under the diagram involution (``"C3p"``); alcoves 1, 2, 5, 7 are
  fixed by the involution and carry no primed variant,
* walls        ``"W3|4"``, ``"W2|3p"``, ... (components ordered by number),
* vertices     ``"Vrho"`` (= (p-1)rho), ``"V1"``, ``"V2"``,
* ``"out"``    for dominant weights outside the region.

Classification is by the pairing triple ``(r, s, t)`` of a weight against
the positive coroots: the cell indices ``(r // p, s // p)`` select a box and
the sign of ``t - (i + j + 1) p`` selects its lower or upper triangle; a
wall is named by the alcoves half a step to either side, in doubled integer
pairings.  ``classify`` and ``canonical_rep`` read one table per prime, built
on first use over a box around the region (a, b < 3p, a+b+2 <= 4p); the same
pass builds the block index of ``linked_weight`` and ``region_weights``, and
weights outside the box are computed directly.  The table checks p before it
is built, so every function here that reads it refuses a p that is no prime
>= 5; ``sigma`` and ``linked_weight`` refuse an unknown facet label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .weights import WEYL_GROUP, Weight, _check_prime, is_dominant, pairings

ALCOVES = (
    "C1", "C2", "C3", "C3p", "C4", "C4p", "C5", "C6", "C6p",
    "C7", "C8", "C8p", "C9", "C9p",
)
WALLS = (
    "W1|2", "W2|3", "W2|3p", "W3|4", "W3p|4p", "W4|5", "W4p|5", "W4|6",
    "W4p|6p", "W5|7", "W6|8", "W6p|8p", "W7|9", "W7|9p", "W8|9", "W8p|9p",
)
VERTICES = ("Vrho", "V1", "V2")
OUT = "out"

ALL_FACETS = ALCOVES + WALLS + VERTICES

# (r-cell, s-cell, is_upper_triangle) -> alcove label
_CELLS = {
    (0, 0, False): "C1", (0, 0, True): "C2",
    (1, 0, False): "C3", (1, 0, True): "C4",
    (0, 1, False): "C3p", (0, 1, True): "C4p",
    (1, 1, False): "C5", (1, 1, True): "C7",
    (2, 0, False): "C6", (2, 0, True): "C8",
    (0, 2, False): "C6p", (0, 2, True): "C8p",
    (2, 1, False): "C9",
    (1, 2, False): "C9p",
}

_SIGMA_FIXED_NUMBERS = {1, 2, 5, 7}


def _parse_component(text: str) -> Tuple[int, bool]:
    primed = text.endswith("p")
    return int(text[:-1] if primed else text), primed


def _format_component(num: int, primed: bool) -> str:
    return f"{num}p" if primed else str(num)


def is_alcove(label: str) -> bool:
    return label.startswith("C")


def wall_components(label: str) -> Tuple[Tuple[int, bool], Tuple[int, bool]]:
    lo, hi = label[1:].split("|")
    return _parse_component(lo), _parse_component(hi)


def _wall_label(a: Tuple[int, bool], b: Tuple[int, bool]) -> str:
    lo, hi = sorted((a, b))
    return f"W{_format_component(*lo)}|{_format_component(*hi)}"


def sigma(label: str) -> str:
    """Involution on facet labels induced by the diagram involution."""
    if label not in ALL_FACETS and label != OUT:
        raise ValueError(f"unknown facet label {label!r}")

    def flip(comp: Tuple[int, bool]) -> Tuple[int, bool]:
        num, primed = comp
        if num in _SIGMA_FIXED_NUMBERS:
            return (num, False)
        return (num, not primed)

    if label == OUT or label in VERTICES:
        return {"V1": "V2", "V2": "V1"}.get(label, label)
    if is_alcove(label):
        return "C" + _format_component(*flip(_parse_component(label[1:])))
    a, b = wall_components(label)
    return _wall_label(flip(a), flip(b))


def _open_cell(r: int, s: int, t: int, p: int) -> Optional[str]:
    """Alcove containing a regular point with the given integer pairings."""
    if r <= 0 or s <= 0:
        return None
    i, j = r // p, s // p
    return _CELLS.get((i, j, t > (i + j + 1) * p))


def _classify(w: Weight, p: int) -> str:
    """Facet label of a dominant weight, computed from its pairings."""
    if not is_dominant(w):
        raise ValueError(f"non-dominant weight {w}")
    r, s, t = pairings(w)
    if (r, s) == (p, p):
        return "Vrho"
    if (r, s) == (2 * p, p):
        return "V1"
    if (r, s) == (p, 2 * p):
        return "V2"
    singular = (r % p == 0) + (s % p == 0) + (t % p == 0)
    if singular == 0:
        return _open_cell(r, s, t, p) or OUT
    if singular > 1:
        return OUT
    # half a step to either side of the wall, in doubled pairings against 2p
    dr, ds = (0, 1) if s % p == 0 else (1, 0)
    lower = _open_cell(2 * r - dr, 2 * s - ds, 2 * t - 1, 2 * p)
    upper = _open_cell(2 * r + dr, 2 * s + ds, 2 * t + 1, 2 * p)
    if lower is None or upper is None:
        return OUT
    label = _wall_label(
        _parse_component(lower[1:]), _parse_component(upper[1:])
    )
    assert label in WALLS, f"unexpected wall {label} at {w}, p={p}"
    return label


def classify(w: Weight, p: int) -> str:
    """Facet label of a dominant weight relative to p."""
    try:
        return _facet_table(p)[0][w][0]
    except (KeyError, TypeError):  # outside the table, or a list
        return _classify(w, p)


def is_restricted(w: Weight, p: int) -> bool:
    return 0 <= w[0] <= p - 1 and 0 <= w[1] <= p - 1


def restricted_weights(p: int) -> List[Weight]:
    return [(a, b) for a in range(p) for b in range(p)]


def _canonical_rep(w: Weight, p: int) -> Weight:
    r, s, _ = pairings(w)
    while True:
        for image, _ in WEYL_GROUP:
            rr, ss = image(r, s)
            if rr >= 0 and ss >= 0:
                r, s = rr, ss
                break
        else:  # pragma: no cover - the orbit always meets the dominant cone
            raise AssertionError(f"no dominant Weyl image for {(r, s)}")
        t = r + s
        if t <= p:
            return (r - 1, s - 1)
        m = (t - 1) // p
        u = t - m * p
        r -= u
        s -= u


def canonical_rep(w: Weight, p: int) -> Weight:
    """The linkage-class representative in the closed bottom alcove.

    Two weights are linked iff their representatives coincide.  The result
    may be non-dominant (coordinates down to -1) for singular classes.
    """
    try:
        return _facet_table(p)[0][w][1]
    except (KeyError, TypeError):  # outside the table, or a list
        return _canonical_rep(w, p)


@lru_cache(maxsize=None, typed=True)  # typed: 5.0 and True must not hit 5 and 1
def _facet_table(p: int) -> Tuple[Dict[Weight, Tuple[str, Weight]], Dict]:
    """``{w: (facet, rep)}`` over the weights with a, b < 3p and a+b+2 <= 4p,
    and the block index ``{(rep, facet): w}`` of the in-region ones."""
    _check_prime(p)  # once per prime, for every reader of the region
    table: Dict[Weight, Tuple[str, Weight]] = {}
    index: Dict[Tuple[Weight, str], Weight] = {}
    for a in range(3 * p):
        for b in range(min(3 * p, 4 * p - 1 - a)):
            w = (a, b)
            label, rep = table[w] = (_classify(w, p), _canonical_rep(w, p))
            if label == OUT:
                continue
            first = index.setdefault((rep, label), w)
            if first != w:
                raise AssertionError(
                    f"facet {label} holds two linked weights {first} and {w}")
    return table, index


def region_weights(p: int) -> List[Weight]:
    """All dominant weights in the labelled region."""
    return list(_facet_table(p)[1].values())


def linked_weight(w: Weight, target: str, p: int) -> Optional[Weight]:
    """The dominant in-region weight linked to w in the target facet, if any."""
    found = _facet_table(p)[1].get((canonical_rep(w, p), target))
    if found is None and target not in ALL_FACETS:
        raise ValueError(f"unknown facet label {target!r}")
    return found
