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

Classification is by the pairing triple ``(r, s, t)`` of a weight against the
positive coroots: the cell indices ``(r // p, s // p)`` select a box and the
sign of ``t - (i + j + 1) p`` its lower or upper triangle, and ``_CELLS``
reads each alcove's cell from its element in ``_ELEMENTS``; a wall is named by
the alcoves half a step to either side, through a table read from ``WALLS``.
``classify`` and ``canonical_rep`` answer from the weight alone, memoized per
weight behind the checks of ``weights._checked_cache``; ``_placed`` holds both
answers past the checks, one entry per product weight of ``decompose``.
``linked_weight`` and ``region_weights`` read the class of a representative
(``_class``): its images under the 14 affine Weyl elements of ``_ELEMENTS``,
one per alcove, labelled by ``_label``, the uncached body of ``classify``.
Nothing is built per prime and the walk of ``canonical_rep`` starts mod 3p, so
a huge prime or weight answers at once.  Every function here refuses a bad p;
``sigma`` and ``linked_weight`` refuse an unknown label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .weights import WEYL_GROUP, Weight, _check_prime, _checked_cache, is_dominant, pairings

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
    bottom alcove's centre, in pairings at p = 3, under an element of ``_ELEMENTS``."""
    x, y = WEYL_GROUP[i][0](1, 1)
    r, s = x + 3 * u, y + 3 * v
    return r // 3, s // 3, r + s > (r // 3 + s // 3 + 1) * 3


_CELLS = {_cell(*element): alcove for alcove, element in _ELEMENTS.items()}


def is_alcove(label: str) -> bool:
    return label.startswith("C")


def wall_components(label: str) -> Tuple[Tuple[int, bool], Tuple[int, bool]]:
    return tuple((int(c.rstrip("p")), c.endswith("p")) for c in label[1:].split("|"))


def sigma(label: str) -> str:
    """Involution on facet labels induced by the diagram involution: alcoves other
    than C1, C2, C5, C7 swap a trailing p, and walls go through their two alcoves."""
    if label not in ALL_FACETS and label != OUT:
        raise ValueError(f"unknown facet label {label!r}")
    if label in WALLS:
        return _WALL_OF[frozenset(sigma("C" + c) for c in label[1:].split("|"))]
    if label in ("C1", "C2", "C5", "C7") or not is_alcove(label):
        return {"V1": "V2", "V2": "V1"}.get(label, label)
    return label[:-1] if label.endswith("p") else label + "p"


def _open_cell(r: int, s: int, t: int, p: int) -> Optional[str]:
    """Alcove containing a regular point with the given integer pairings."""
    if r <= 0 or s <= 0:
        return None
    i, j = r // p, s // p
    return _CELLS.get((i, j, t > (i + j + 1) * p))


@_checked_cache
def classify(w: Weight, p: int) -> str:
    """Facet label of a dominant weight relative to p, from its pairings."""
    _check_prime(p)
    if not is_dominant(w):
        raise ValueError(f"non-dominant weight {w}")
    return _label(w, p)


def _label(w: Weight, p: int) -> str:
    """The body of :func:`classify` past its checks: a, b >= -1 (OUT if one is -1), p checked."""
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
    """``(canonical_rep(w, p), classify(w, p))`` past their checks: w dominant, p checked."""
    return _rep(w, p), _label(w, p)


def is_restricted(w: Weight, p: int) -> bool:
    return 0 <= w[0] <= p - 1 and 0 <= w[1] <= p - 1


def restricted_weights(p: int) -> List[Weight]:
    return [(a, b) for a in range(p) for b in range(p)]


@_checked_cache
def canonical_rep(w: Weight, p: int) -> Weight:
    """The linkage-class representative in the closed bottom alcove.

    Two weights are linked iff their representatives coincide.  The result
    may be non-dominant (coordinates down to -1) for singular classes.
    """
    _check_prime(p)  # at a negative p the walk would never end
    return _rep(w, p)


def _rep(w: Weight, p: int) -> Weight:
    """The body of :func:`canonical_rep` past its check, p checked: a walk from the
    pairings mod 3p (a translation by pZ(roots)), so it is bounded at any w."""
    r, s = (w[0] + 1) % (3 * p), (w[1] + 1) % (3 * p)
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
        u = (t - 1) % p + 1  # reflect in the wall t = mp just below t
        r, s = r - u, s - u


@lru_cache(maxsize=None)
def _class(rep: Weight, p: int) -> Dict[str, Weight]:
    """``{facet: w}`` over the in-region weights linked to ``rep``: the images
    x + rho = A(rep + rho) + p(u, v) of ``rep``, in the closed bottom alcove,
    under the 14 elements of ``_ELEMENTS``, one in each closed alcove."""
    r, s, _ = pairings(rep)
    index: Dict[str, Weight] = {}
    for i, u, v in _ELEMENTS.values():
        x, y = WEYL_GROUP[i][0](r, s)
        w = (x + u * p - 1, y + v * p - 1)
        label = _label(w, p)  # a, b >= -1 in a closed alcove; p checked by the caller
        if label != OUT and index.setdefault(label, w) != w:
            raise AssertionError(
                f"facet {label} holds two linked weights {index[label]} and {w}")
    return index


def region_weights(p: int) -> List[Weight]:
    """All dominant weights of the labelled region, sorted: the union of every class."""
    _check_prime(p)
    return sorted(w for r in range(p + 1) for s in range(p + 1 - r)
                  for w in _class((r - 1, s - 1), p).values())


def linked_weight(w: Weight, target: str, p: int) -> Optional[Weight]:
    """The dominant in-region weight linked to w in the target facet, if any."""
    found = _class(canonical_rep(w, p), p).get(target)
    if found is None and target not in ALL_FACETS:
        raise ValueError(f"unknown facet label {target!r}")
    return found
