import random
import re
import signal

import pytest

from sl3tensor.alcoves import (
    ALCOVES,
    ALL_FACETS,
    OUT,
    VERTICES,
    WALLS,
    _CELLS,
    _ELEMENTS,
    _WALL_OF,
    _class,
    _label,
    _placed,
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


def test_sigma_is_involution_on_labels():
    for label in ALCOVES + WALLS + VERTICES + (OUT,):
        assert sigma(sigma(label)) == label
    assert sigma("C2") == "C2"
    assert sigma("W2|3") == "W2|3p"
    assert sigma("W7|9") == "W7|9p"
    assert sigma("V1") == "V2"


def test_unknown_facet_labels_are_refused():
    # C1 has no primed variant; the region index holds no OUT entry, and
    # sigma fixes OUT
    for label in ("C10", "C1p", "W1|99", "Wfoo", "bogus", "", "V3", OUT):
        if label != OUT:
            with pytest.raises(ValueError, match=re.escape(f"unknown facet label {label!r}")):
                sigma(label)
        with pytest.raises(ValueError, match=re.escape(f"unknown facet label {label!r}")):
            linked_weight((0, 0), label, 5)


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
    rng = random.Random(5)
    for _ in range(300):
        w = (rng.randint(0, 3 * p - 2), rng.randint(0, 3 * p - 2))
        root = rng.choice(["a1", "a2", "theta"])
        m = rng.randint(0, 3)
        image = dot_reflect(w, root, m, p)
        if is_dominant(image):
            assert canonical_rep(image, p) == canonical_rep(w, p)


def test_canonical_rep_lands_in_bottom_closure():
    for p in (5, 7):
        for w in region_weights(p):
            r, s, t = pairings(canonical_rep(w, p))
            assert r >= 0 and s >= 0 and t <= p


def _hung(*_):
    raise TimeoutError("no answer within the alarm")


@pytest.mark.parametrize("p", [5, 7])
def test_a_far_translate_has_the_same_class(p):
    """p(3, 0) and p(0, 3) lie in pZ(roots), so a translate by 3p * 10**24 is
    linked to its weight; the walk to the representative starts mod 3p, so
    it answers at once however far the translate is."""
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


@pytest.mark.parametrize("p", [5, 7])
def test_label_reads_out_on_the_chamber_walls(p):
    # _class labels images with a coordinate of -1; none lies in the region
    for c in range(-1, 3 * p):
        assert _label((-1, c), p) == OUT, c
        assert _label((c, -1), p) == OUT, c


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
    # _class labels the 14 images of its representative; none of them was asked for
    for fn in (classify, canonical_rep, _class):
        fn.cache_clear()
    assert linked_weight((1, 3), "C3", 5) == (7, 0)
    assert _class.cache_info().currsize == 1
    assert classify.cache_info().currsize == 0


@pytest.mark.parametrize("p", [5, 7, 11])
def test_one_lookup_reads_the_representative_and_the_facet(p):
    # every dominant weight of the box a, b < 3p, those outside the region too
    facets = set()
    for a in range(3 * p):
        for b in range(3 * p):
            expect = (canonical_rep((a, b), p), classify((a, b), p))
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
    than the region with the uncached bodies: ``linked_weight`` answers from
    it at every facet, and ``region_weights`` lists its weights."""
    index, region = {}, []
    for a in range(4 * p):
        for b in range(4 * p):
            w = (a, b)
            facet, rep = classify.__wrapped__(w, p), canonical_rep.__wrapped__(w, p)
            if a < 3 * p and b < 3 * p and a + b + 2 <= 4 * p and facet != OUT:
                assert index.setdefault((rep, facet), w) == w, (w, facet)
                region.append(w)
    assert region_weights(p) == region
    for a in range(4 * p):
        for b in range(4 * p):
            rep = canonical_rep.__wrapped__((a, b), p)
            for facet in ALL_FACETS:
                assert linked_weight((a, b), facet, p) == index.get((rep, facet)), (a, b, facet)
