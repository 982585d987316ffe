"""Modular character engine.

Simple characters are computed by the triangular recursion over the
facet-indexed composition tables: the simple character at a weight is its
Weyl character minus the simple characters of the lower composition factors.
Tilting characters are sums of Weyl characters over the stored filtration
factors.  Both are memoized per (weight, p) by ``functools.lru_cache``
(``simple_char.cache_info()`` reports hits, misses and size); the cached
characters are immutable, so callers cannot alter them.  The change of basis
from Weyl to simple characters is the shared triangular solver
:func:`~sl3tensor.weylchar.peel` with simple characters as the expansion.

Weights whose facet data would be needed outside the fundamental region are
rejected rather than extrapolated.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, List, Tuple

from . import structures
from .alcoves import OUT, classify, linked_weight
from .weights import Weight, dominance_leq
from .weylchar import Character, peel


def _linked_below(w: Weight, p: int, entries_of) -> Iterator[Weight]:
    """Linked weights of the facet entries ``entries_of(facet of w)`` that
    exist and lie below w; the others are truncated away, which happens only
    near the dominance boundary."""
    facet = classify(w, p)
    if facet == OUT:
        raise ValueError(f"weight {w} lies outside the fundamental region for p={p}")
    for g in entries_of(facet):
        mu = linked_weight(w, g, p)
        if mu is not None and dominance_leq(mu, w):
            yield mu


def weyl_comp_factors(w: Weight, p: int) -> List[Weight]:
    """Composition factor weights of the Weyl module at w (multiplicity one
    each)."""
    return list(_linked_below(w, p, structures.delta_factors))


@lru_cache(maxsize=None)
def simple_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the simple module at w."""
    result = Character("weyl", {w: 1}).combine(
        (-1, simple_char(mu, p)) for mu in weyl_comp_factors(w, p) if mu != w
    )
    assert result.coeffs.get(w) == 1, f"lost unitriangularity at {w}"
    return result


def simple_dim(w: Weight, p: int) -> int:
    return simple_char(w, p).dimension()


@lru_cache(maxsize=None)
def tilting_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the indecomposable tilting module at w."""
    result = Character(
        "weyl", Counter(_linked_below(w, p, structures.tilting_delta_factors)))
    assert result.coeffs.get(w) == 1, f"tilting character at {w} lost its top"
    return result


def floor_weights(w: Weight, p: int) -> Tuple[Weight, Weight, Weight, Weight]:
    """Linked weights of w in alcoves 3, 3', 2, 1: the floor of its class.

    Every regular class, so every second-alcove weight, has all four.
    """
    mus = tuple(linked_weight(w, f, p) for f in ("C3", "C3p", "C2", "C1"))
    if None in mus:
        raise AssertionError(f"incomplete reflection set for {w}, p={p}")
    return mus  # type: ignore[return-value]


def m_char(w: Weight, p: int, basis: str = "simple") -> Character:
    """Character of the non-highest-weight indecomposable at a second-alcove
    weight: head and socle simple at w, heart the three wall-reflected
    simples."""
    if basis == "weyl":
        return from_simple_basis(m_char(w, p), p)
    if basis != "simple":
        raise ValueError(f"unsupported basis {basis!r} for m_char")
    if classify(w, p) != "C2":
        raise ValueError(f"{w} is not in the second alcove for p={p}")
    mu3, mu3p, _, mu1 = floor_weights(w, p)
    return Character("simple", {w: 2, mu3: 1, mu3p: 1, mu1: 1})


def m_dim(w: Weight, p: int) -> int:
    return m_char(w, p, basis="weyl").dimension()


def to_simple_basis(c: Character, p: int) -> Character:
    """Exact change of basis from Weyl to simple characters."""
    if c.basis != "weyl":
        raise ValueError("expected a weyl-basis character")
    steps, _ = peel(c.coeffs, lambda lead, k: simple_char(lead, p).coeffs.items())
    return Character("simple", dict(steps))


def from_simple_basis(c: Character, p: int) -> Character:
    """Exact change of basis from simple to Weyl characters."""
    if c.basis != "simple":
        raise ValueError("expected a simple-basis character")
    return Character("weyl").combine(
        (k, simple_char(w, p)) for w, k in c.coeffs.items()
    )


def char_dim(c: Character, p: int | None = None) -> int:
    """Dimension of a character in any basis (simple basis needs p)."""
    if c.basis == "simple":
        if p is None:
            raise ValueError("simple-basis dimension needs p")
        return sum(k * simple_dim(w, p) for w, k in c.coeffs.items())
    return c.dimension()
