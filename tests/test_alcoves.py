import re
import signal
from collections import Counter

import pytest

from sl3tensor import alcoves
from sl3tensor.alcoves import (
    ALCOVES,
    ALL_FACETS,
    OUT,
    VERTICES,
    WALLS,
    _BOX,
    _CELLS,
    _ELEMENTS,
    _LINK,
    _WALL_OF,
    _label,
    _placed,
    _rep,
    canonical_rep,
    classify,
    is_restricted,
    linked_weight,
    region_weights,
    sigma,
    wall_components,
)
from sl3tensor.weights import WEYL_GROUP, dot_reflect, is_dominant, pairings, tau


def test_classify_examples():
    assert classify((0, 0), 5) == "C1"
    assert classify((4, 4), 5) == "Vrho"
    assert classify((6, 2), 5) == "W3|4"
    assert classify((4, 3), 5) == "W2|3"
    assert classify((8, 8), 5) == "C7"
    assert classify((9, 4), 5) == "V1"
    assert classify((4, 9), 5) == "V2"
    # a weight is two ints in a tuple: a list is refused, as everywhere
    with pytest.raises(ValueError, match=re.escape("weight must be two integers, got [6, 2]")):
        classify([6, 2], 5)
    with pytest.raises(ValueError):
        classify((-1, 0), 5)
    with pytest.raises(ValueError):
        classify([2, -1], 5)


def test_classify_out_of_region():
    assert classify((16, 16), 5) == OUT       # beyond the outer boundary
    assert classify((14, 0), 5) == OUT        # cell past the third column
    assert classify((9, 9), 5) == OUT         # apex point, doubly singular


def _walk(w, p):
    """The weight of the closed bottom alcove linked to w, by dot reflections:
    in the walls of a1 and a2 into the dominant chamber, then in the theta
    wall just below, until <w + rho, theta^> is at most p."""
    for _ in range(100):
        r, s, t = pairings(w)
        if r < 0 or s < 0:
            w = dot_reflect(w, "a1" if r < 0 else "a2", 0, p)
        elif t > p:
            w = dot_reflect(w, "theta", (t - 1) // p, p)
        else:
            return w
    raise AssertionError(f"no walk from {w} at p={p}")


def test_sigma_is_involution_on_labels():
    for label in ALCOVES + WALLS + VERTICES + (OUT,):
        assert sigma(sigma(label)) == label
    assert sigma("C2") == "C2"
    assert sigma("W2|3") == "W2|3p"
    assert sigma("W7|9") == "W7|9p"
    assert sigma("V1") == "V2"


def test_sigma_keeps_the_rule_on_names():
    # the table read from the transposed cells keeps the naming rule: four
    # alcoves, Vrho and OUT fixed, V1 and V2 swapped, every other alcove
    # toggling its trailing p, and each wall through its two alcoves
    fixed = ("C1", "C2", "C5", "C7", "Vrho", OUT)
    assert [sigma(label) for label in fixed] == list(fixed)
    assert (sigma("V1"), sigma("V2")) == ("V2", "V1")
    for alcove in set(ALCOVES) - set(fixed):
        assert sigma(alcove) == (alcove[:-1] if alcove.endswith("p") else alcove + "p")
    for wall in WALLS:
        assert sigma(wall) == _WALL_OF[frozenset(sigma("C" + c) for c in wall[1:].split("|"))]


def test_unknown_facet_labels_are_refused():
    # C1 has no primed variant; the region index holds no OUT entry, and
    # sigma fixes OUT
    for label in ("C10", "C1p", "W1|99", "Wfoo", "bogus", "", "V3", OUT):
        if label != OUT:
            with pytest.raises(ValueError, match=re.escape(f"unknown facet label {label!r}")):
                sigma(label)
        with pytest.raises(ValueError, match=re.escape(f"unknown facet label {label!r}")):
            linked_weight((0, 0), label, 5)


@pytest.mark.parametrize("label", [["C1"], {"C1": 1}, None, "C10"])
def test_linked_weight_refuses_a_label_of_any_type(label):
    # the label is compared with the facet names, not hashed, so a list is
    # unknown too; a bad weight or p is refused before the label
    with pytest.raises(ValueError, match=re.escape(f"unknown facet label {label!r}")):
        linked_weight((0, 0), label, 5)
    with pytest.raises(ValueError, match=re.escape("weight must be two integers, got [0, 0]")):
        linked_weight([0, 0], label, 5)
    with pytest.raises(ValueError, match=re.escape("p must be a prime >= 5, got 4")):
        linked_weight((0, 0), label, 4)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_classify_tau_equivariance(p):
    for a in range(3 * p):
        for b in range(3 * p):
            w = (a, b)
            assert classify(tau(w), p) == sigma(classify(w, p))


@pytest.mark.parametrize("p", [5, 7])
def test_every_facet_is_realized(p):
    seen = {classify(w, p) for w in region_weights(p)}
    assert set(ALCOVES + WALLS + VERTICES) <= seen


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_wall_adjacency(p):
    """Stepping off a wall in the singular direction lands in exactly the
    two alcoves named by the wall label."""
    exercised = set()
    for w in region_weights(p):
        label = classify(w, p)
        if not label.startswith("W"):
            continue
        r, s, t = pairings(w)
        if s % p == 0:
            lo, hi = (w[0], w[1] - 1), (w[0], w[1] + 1)
        else:
            lo, hi = (w[0] - 1, w[1]), (w[0] + 1, w[1])
        if not (is_dominant(lo) and is_dominant(hi)):
            continue
        got = {classify(lo, p), classify(hi, p)}
        if any(g.startswith("W") or g in VERTICES or g == OUT for g in got):
            continue  # perturbation crossed into another singular stratum
        (n1, p1), (n2, p2) = wall_components(label)
        names = {
            "C" + (f"{n1}p" if p1 else str(n1)),
            "C" + (f"{n2}p" if p2 else str(n2)),
        }
        assert got == names, (w, label, got)
        exercised.add(label)
    assert exercised == set(WALLS)


def test_canonical_rep_examples():
    assert canonical_rep((0, 0), 5) == (0, 0)
    assert canonical_rep((2, 2), 5) == (1, 1)
    assert canonical_rep((7, 0), 5) == (0, 2)
    with pytest.raises(ValueError, match=re.escape("weight must be two integers, got [7, 0]")):
        canonical_rep([7, 0], 5)
    assert canonical_rep((-3, 1), 5) == (1, -1)  # non-dominant input


@pytest.mark.parametrize("p", [5, 7])
def test_canonical_rep_reflection_invariant(p):
    # every weight of [-3p, 6p)^2, dominant or not, through every wall of
    # each root at m = -2 .. 4: cells of the box and beyond it alike
    for a in range(-3 * p, 6 * p):
        for b in range(-3 * p, 6 * p):
            rep = canonical_rep((a, b), p)
            for root in ("a1", "a2", "theta"):
                for m in range(-2, 5):
                    image = dot_reflect((a, b), root, m, p)
                    assert canonical_rep(image, p) == rep, ((a, b), root, m)


def test_canonical_rep_lands_in_bottom_closure():
    # in the closed bottom alcove, and linked to w: the walk by dot
    # reflections reaches the same weight
    for p in (5, 7):
        for a in range(-3 * p, 6 * p):
            for b in range(-3 * p, 6 * p):
                rep = canonical_rep((a, b), p)
                r, s, t = pairings(rep)
                assert r >= 0 and s >= 0 and t <= p, (a, b)
                assert rep == _walk((a, b), p), (a, b)


def _hung(*_):
    raise TimeoutError("no answer within the alarm")


@pytest.mark.parametrize("p", [5, 7])
def test_a_far_translate_has_the_same_class(p):
    """p(3, 0) and p(0, 3) lie in pZ(roots), so a translate by 3p * 10**24 is
    linked to its weight; the representative is read from the pairings mod
    3p, so it answers at once however far the translate is."""
    far = 3 * p * 10**24
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    try:
        big, near = (10**30, 3), (10**30 % (3 * p), 3)
        assert canonical_rep(big, p) == canonical_rep(near, p)
        for facet in ALL_FACETS:
            assert linked_weight(big, facet, p) == linked_weight(near, facet, p)
        for a in range(-p, 3 * p):
            for b in range(-p, 3 * p):
                rep = canonical_rep((a, b), p)
                for shifted in ((a + far, b), (a, b + far), (a - far, b + far)):
                    assert canonical_rep(shifted, p) == rep, (a, b, shifted)
                    for facet in ALL_FACETS:
                        assert linked_weight(shifted, facet, p) == linked_weight((a, b), facet, p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cells_are_read_from_the_elements():
    """Each element carries the bottom alcove's centre into its own alcove's
    cell: a wrong element shows up as a wrong or a missing cell."""
    assert _CELLS == {
        (0, 0, False): "C1", (0, 0, True): "C2",
        (1, 0, False): "C3", (1, 0, True): "C4",
        (0, 1, False): "C3p", (0, 1, True): "C4p",
        (1, 1, False): "C5", (1, 1, True): "C7",
        (2, 0, False): "C6", (2, 0, True): "C8",
        (0, 2, False): "C6p", (0, 2, True): "C8p",
        (2, 1, False): "C9",
        (1, 2, False): "C9p",
    }


def test_box_holds_one_element_per_cell():
    """The 18 elements reach the 18 cells of the box one each, the 14 region
    cells with the elements of ``_ELEMENTS``, and ``_rep`` carries every
    regular point of the box into the open bottom alcove."""
    assert set(_BOX) == {(i, j, up) for i in range(3) for j in range(3) for up in (False, True)}
    for cell, alcove in _CELLS.items():
        inverse, u, v = _BOX[cell]
        i = next(i for i, (A, _) in enumerate(WEYL_GROUP)
                 if inverse(*A(1, 0)) == (1, 0) and inverse(*A(0, 1)) == (0, 1))
        assert (i, u, v) == _ELEMENTS[alcove], alcove
    for p in (5, 7):
        for r in range(3 * p):
            for s in range(3 * p):
                if r % p and s % p and (r + s) % p:
                    x, y, t = pairings(_rep((r - 1, s - 1), p))
                    assert x > 0 and y > 0 and t < p, (r, s, p)


def test_wall_table_holds_two_alcoves_per_wall():
    assert len(_WALL_OF) == len(WALLS) == 16
    assert sorted(_WALL_OF.values()) == sorted(WALLS)
    for alcoves, wall in _WALL_OF.items():
        assert len(alcoves) == 2 and alcoves <= set(ALCOVES), wall


def test_elements_are_tau_equivariant():
    """The element of an alcove's mirror is tau A tau, with u and v swapped."""
    def conjugate(i):  # the index of tau A tau, read on a basis
        A = WEYL_GROUP[i][0]
        images = [tau(A(*tau(e))) for e in ((1, 0), (0, 1))]
        return next(j for j, (B, _) in enumerate(WEYL_GROUP) if [B(1, 0), B(0, 1)] == images)

    assert tuple(_ELEMENTS) == ALCOVES
    for alcove, (i, u, v) in _ELEMENTS.items():
        assert _ELEMENTS[sigma(alcove)] == (conjugate(i), v, u), alcove


def test_link_table_is_read_from_the_elements():
    """The representatives whose class meets a facet lie on fixed walls
    ``(r == 0, s == 0, t == p)`` of the bottom alcove: on none for an alcove,
    on one for a wall, on two for a vertex; tau swaps r and s and keeps t."""
    walls = {facet: on for facet, (on, _) in _LINK.items()}
    assert set(walls) == set(ALL_FACETS)
    assert all(element in _ELEMENTS.values() for _, element in _LINK.values())
    assert all(walls[alcove] == (False, False, False) for alcove in ALCOVES)
    assert Counter(walls[wall] for wall in WALLS) == {
        (True, False, False): 5, (False, True, False): 5, (False, False, True): 6}
    assert [walls[v] for v in ("Vrho", "V1", "V2")] == [
        (True, True, False), (False, True, True), (True, False, True)]
    for facet, (r, s, t) in walls.items():
        assert walls[sigma(facet)] == (s, r, t), facet


@pytest.mark.parametrize("p", [5, 7])
def test_label_reads_out_on_the_chamber_walls(p):
    # _placed labels every weight canonical_rep is asked about, those off
    # the dominant chamber too; no non-dominant one is in the region
    for a in range(-2 * p, 3 * p):
        for b in range(-2 * p, 3 * p):
            if a < 0 or b < 0:
                assert _label((a, b), p) == OUT, (a, b)


def test_linked_weight_examples():
    assert linked_weight((1, 3), "C3", 5) == (7, 0)
    assert linked_weight((1, 3), "C1", 5) == (0, 2)
    # the class of (2,0) does meet alcove 3, in the dominant weight (5,0)
    assert linked_weight((2, 0), "C3", 5) == (5, 0)
    # singular classes can miss whole wall families
    assert linked_weight((4, 1), "W3|4", 5) is None


@pytest.mark.parametrize("p", [5, 7])
def test_linked_weight_identity(p):
    for w in region_weights(p):
        assert linked_weight(w, classify(w, p), p) == w


def test_building_a_class_leaves_the_classify_memo_to_its_callers():
    # _linked maps the representative by the facet's element and labels
    # nothing, so only the weight asked about is placed; _placed is the
    # module's one memo, and no class is kept
    memos = [name for name, value in vars(alcoves).items() if hasattr(value, "cache_info")]
    assert memos == ["_placed"]
    _placed.cache_clear()
    assert linked_weight((1, 3), "C3", 5) == (7, 0)
    assert _placed.cache_info().currsize == 1 and _placed((1, 3), 5) == ((0, 2), "C2")
    assert _placed.cache_info().hits == 1  # the weight placed was (1, 3)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_one_lookup_reads_the_representative_and_the_facet(p):
    # every dominant weight of the box a, b < 3p, those outside the region
    # too, against the uncached bodies that classify and canonical_rep read
    facets = set()
    for a in range(3 * p):
        for b in range(3 * p):
            expect = (_rep((a, b), p), _label((a, b), p))
            assert _placed((a, b), p) == expect, (a, b)
            facets.add(expect[1])
    assert facets == set(ALL_FACETS) | {OUT}


def test_is_restricted():
    assert is_restricted((4, 4), 5)
    assert not is_restricted((5, 0), 5)
    assert is_restricted((3, 1), 5)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29])
def test_table_matches_direct_computation(p):
    """The block index ``{(rep, facet): w}`` built by a scan of a box larger
    than the region with the uncached ``_label``, grouped by the walk of dot
    reflections, not by the element table: ``linked_weight`` answers from it
    at every facet, and ``region_weights`` lists its weights."""
    walked = {(a, b): _walk((a, b), p) for a in range(4 * p) for b in range(4 * p)}
    index, region = {}, []
    for a in range(4 * p):
        for b in range(4 * p):
            w = (a, b)
            facet, rep = _label(w, p), walked[w]
            if a < 3 * p and b < 3 * p and a + b + 2 <= 4 * p and facet != OUT:
                assert index.setdefault((rep, facet), w) == w, (w, facet)
                region.append(w)
    assert region_weights(p) == region
    for a in range(4 * p):
        for b in range(4 * p):
            rep = walked[a, b]
            for facet in ALL_FACETS:
                assert linked_weight((a, b), facet, p) == index.get((rep, facet)), (a, b, facet)
