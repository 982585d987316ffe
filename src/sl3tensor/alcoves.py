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

Every fact is read from one p-free table of affine Weyl elements, one per cell
of the box [0, 3p)^2 of pairings ``(r, s, t)`` with the positive coroots: the
indices ``(r // p, s // p)`` and the sign of ``t - (i + j + 1) p`` name a cell.
``_CELLS`` holds the cells of the 14 alcoves of ``_ELEMENTS``, ``_BOX`` all 18
with each element's inverse, and ``canonical_rep`` applies the one whose cell
holds the pairings mod 3p.  ``sigma`` transposes the cells; a wall is named by
the alcoves half a step to either side, through a table read from ``WALLS``.
``_placed`` is the one memo per weight, of its representative and facet, read
past the checks of ``classify`` and ``canonical_rep``.  ``linked_weight`` and
``region_weights`` read ``_linked``, the image of a representative under the
element that ``_LINK`` holds for a facet, with the walls it must lie on; no class
is kept.  Nothing is built per prime, so a huge prime or weight answers at once.
Every function here refuses a bad p; ``sigma`` and ``linked_weight`` refuse an
unknown label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .weights import WEYL_GROUP, Weight, _check_prime, _check_weight, is_dominant, pairings

# alcove -> (index of A in WEYL_GROUP, u, v): the element x + rho -> A(x + rho)
# + p(u, v) of the affine Weyl group W_p = W x pZ(roots) that maps the bottom
# alcove onto it, the same at every p (the linkage principle, Jantzen RAGS II.6)
_ELEMENTS = {
    "C1": (0, 0, 0), "C2": (5, 1, 1), "C3": (3, 1, 1), "C3p": (4, 1, 1), "C4": (2, 1, 1),
    "C4p": (1, 1, 1), "C5": (0, 1, 1), "C6": (4, 3, 0), "C6p": (3, 0, 3), "C7": (5, 2, 2),
    "C8": (1, 3, 0), "C8p": (2, 0, 3), "C9": (3, 2, 2), "C9p": (4, 2, 2),
}
ALCOVES = tuple(_ELEMENTS)
WALLS = (
    "W1|2", "W2|3", "W2|3p", "W3|4", "W3p|4p", "W4|5", "W4p|5", "W4|6",
    "W4p|6p", "W5|7", "W6|8", "W6p|8p", "W7|9", "W7|9p", "W8|9", "W8p|9p",
)
_VERTICES = {(1, 1): "Vrho", (2, 1): "V1", (1, 2): "V2"}  # (r, s) / p -> vertex
VERTICES = tuple(_VERTICES.values())
OUT = "out"

ALL_FACETS = ALCOVES + WALLS + VERTICES

# {the two alcoves of a wall: wall}
_WALL_OF = {frozenset("C" + c for c in wall[1:].split("|")): wall for wall in WALLS}


def _cell(i: int, u: int, v: int) -> Tuple[int, int, bool]:
    """(r-cell, s-cell, is_upper_triangle) of the image A(1, 1) + 3(u, v) of the
    bottom alcove's centre, in pairings at p = 3, under an element (A, u, v)."""
    x, y = WEYL_GROUP[i][0](1, 1)
    r, s = x + 3 * u, y + 3 * v
    return r // 3, s // 3, r + s > (r // 3 + s // 3 + 1) * 3


_CELLS = {_cell(*element): alcove for alcove, element in _ELEMENTS.items()}
# {cell: (A^-1, u, v)} over the 18 closed cells of the box: the 14 alcoves' and the
# four beyond the region; A^-1 carries A(1, 1) back to (1, 1), as rho is regular
_BOX = {_cell(i, u, v): (B, u, v)
        for i, u, v in (*_ELEMENTS.values(), (0, 2, 2), (1, 2, 2), (2, 2, 2), (5, 3, 3))
        for B, _ in WEYL_GROUP if B(*WEYL_GROUP[i][0](1, 1)) == (1, 1)}
# tau swaps the pairings r and s: it transposes the cells and the vertices
_SIGMA = {OUT: OUT, **{alcove: _CELLS[j, i, up] for (i, j, up), alcove in _CELLS.items()},
          **{vertex: _VERTICES[j, i] for (i, j), vertex in _VERTICES.items()}}
_SIGMA.update({wall: _WALL_OF[frozenset(map(_SIGMA.get, pair))] for pair, wall in _WALL_OF.items()})


def wall_components(label: str) -> Tuple[Tuple[int, bool], Tuple[int, bool]]:
    return tuple((int(c.rstrip("p")), c.endswith("p")) for c in label[1:].split("|"))


def sigma(label: str) -> str:
    """Involution on facet labels induced by the diagram involution (``_SIGMA``)."""
    if label not in ALL_FACETS and label != OUT:
        raise ValueError(f"unknown facet label {label!r}")
    return _SIGMA[label]


def _open_cell(r: int, s: int, t: int, p: int) -> Optional[str]:
    """Alcove containing a regular point with the given integer pairings."""
    if r <= 0 or s <= 0:
        return None
    i, j = r // p, s // p
    return _CELLS.get((i, j, t > (i + j + 1) * p))


def classify(w: Weight, p: int) -> str:
    """Facet label of a dominant weight relative to p, from its pairings."""
    _check_weight(w)
    _check_prime(p)  # an exact int before the lookup: 5.0 and True hash as 5 and 1
    if not is_dominant(w):
        raise ValueError(f"non-dominant weight {w}")
    return _placed(w, p)[1]


def _label(w: Weight, p: int) -> str:
    """The body of :func:`classify` past its checks, p checked: OUT wherever a or b < 0."""
    r, s, t = pairings(w)
    singular = (r % p == 0) + (s % p == 0) + (t % p == 0)
    if singular == 0:
        return _open_cell(r, s, t, p) or OUT
    if singular > 1:  # two of r, s, t in pZ put the third there too
        return _VERTICES.get((r // p, s // p), OUT)
    # half a step to either side of the wall, in doubled pairings against 2p
    dr, ds = (0, 1) if s % p == 0 else (1, 0)
    lower = _open_cell(2 * r - dr, 2 * s - ds, 2 * t - 1, 2 * p)
    upper = _open_cell(2 * r + dr, 2 * s + ds, 2 * t + 1, 2 * p)
    if lower is None or upper is None:
        return OUT
    label = _WALL_OF.get(frozenset((lower, upper)))
    assert label, f"no wall between {lower} and {upper} at {w}, p={p}"
    return label


@lru_cache(maxsize=None)
def _placed(w: Weight, p: int) -> Tuple[Weight, str]:
    """``(representative, facet)`` of any w, p checked: the one memo per weight."""
    return _rep(w, p), _label(w, p)


def is_restricted(w: Weight, p: int) -> bool:
    return 0 <= w[0] <= p - 1 and 0 <= w[1] <= p - 1


def restricted_weights(p: int) -> List[Weight]:
    return [(a, b) for a in range(p) for b in range(p)]


def canonical_rep(w: Weight, p: int) -> Weight:
    """The linkage-class representative in the closed bottom alcove, by one lookup.

    Two weights are linked iff their representatives coincide.  The result
    may be non-dominant (coordinates down to -1) for singular classes.
    """
    _check_weight(w)
    _check_prime(p)  # at a negative p the pairings mod 3p would miss the box
    return _placed(w, p)[0]


def _rep(w: Weight, p: int) -> Weight:
    """The body of :func:`canonical_rep` past its check, p checked: the inverse of the
    element of the closed cell of ``_BOX`` holding the pairings mod 3p (a pZ(roots) shift)."""
    r, s = (w[0] + 1) % (3 * p), (w[1] + 1) % (3 * p)
    i, j = r // p, s // p
    inverse, u, v = _BOX[i, j, r + s > (i + j + 1) * p]
    x, y = inverse(r - u * p, s - v * p)
    return (x - 1, y - 1)


def _link() -> Dict[str, Tuple[Tuple[bool, bool, bool], Tuple[int, int, int]]]:
    """``{facet: (walls, element)}``: the walls ``(r == 0, s == 0, r + s == p)`` of the
    bottom alcove that hold the representatives whose class meets the facet, and an
    element carrying them there, read at p = 6 from the labelled images of the centre,
    wall midpoints and vertices: each facet must be reached from one place, at one image."""
    reached: Dict[str, dict] = {}
    for r, s in ((2, 2), (0, 3), (3, 0), (3, 3), (0, 0), (6, 0), (0, 6)):
        for i, u, v in _ELEMENTS.values():
            x, y = WEYL_GROUP[i][0](r, s)
            w = (x + 6 * u - 1, y + 6 * v - 1)
            reached.setdefault(_label(w, 6), {})[(r == 0, s == 0, r + s == 6), w] = (i, u, v)
    assert all(len(reached.get(f, ())) == 1 for f in ALL_FACETS), {
        f: list(reached.get(f, ())) for f in ALL_FACETS if len(reached.get(f, ())) != 1}
    return {f: (walls, element) for f in ALL_FACETS for (walls, _), element in reached[f].items()}


_LINK = _link()


def _linked(rep: Weight, facet: str, p: int) -> Optional[Weight]:
    """The weight of ``rep``'s class in ``facet``, p checked: the image A(rep + rho) +
    p(u, v) - rho under the facet's element, if ``rep`` lies on the facet's walls."""
    walls, (i, u, v) = _LINK[facet]
    r, s = rep[0] + 1, rep[1] + 1
    if walls != (r == 0, s == 0, r + s == p):
        return None
    x, y = WEYL_GROUP[i][0](r, s)
    return (x + u * p - 1, y + v * p - 1)


def region_weights(p: int) -> List[Weight]:
    """All dominant weights of the labelled region, sorted: the union of every class."""
    _check_prime(p)
    return sorted(filter(None, (_linked((r - 1, s - 1), f, p)
                                for r in range(p + 1) for s in range(p + 1 - r) for f in _LINK)))


def linked_weight(w: Weight, target: str, p: int) -> Optional[Weight]:
    """The dominant in-region weight linked to w in the target facet, if any."""
    rep = canonical_rep(w, p)  # a bad weight or p first; the label is compared, not hashed
    if target not in ALL_FACETS:
        raise ValueError(f"unknown facet label {target!r}")
    return _linked(rep, target, p)
