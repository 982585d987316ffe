"""Modular character engine.

Simple characters are computed by the triangular recursion over the
facet-indexed composition tables: the simple character at a weight is its
Weyl character minus the simple characters of the lower composition factors.
Tilting characters are sums of Weyl characters over the stored filtration
factors.  Both are memoized per (p, weight); the caches are append-only and
idempotent, so concurrent use at worst repeats work.  The change of basis
from Weyl to simple characters is the shared triangular solver
:func:`~sl3tensor.weylchar.peel` with simple characters as the expansion.

Weights whose facet data would be needed outside the fundamental region are
rejected rather than extrapolated.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import structures
from .alcoves import OUT, classify, linked_weight
from .weights import Weight, dominance_leq
from .weylchar import Character, peel

_SIMPLE_CACHE: Dict[Tuple[int, Weight], Character] = {}
_TILTING_CACHE: Dict[Tuple[int, Weight], Character] = {}


def _require_in_region(w: Weight, p: int) -> str:
    facet = classify(w, p)
    if facet == OUT:
        raise ValueError(f"weight {w} lies outside the fundamental region for p={p}")
    return facet


def weyl_comp_factors(w: Weight, p: int) -> List[Weight]:
    """Composition factor weights of the Weyl module at w (multiplicity one
    each).  Facet entries whose linked weight fails to exist below w are
    truncated away; this happens only near the dominance boundary."""
    facet = _require_in_region(w, p)
    out = []
    for g in structures.delta_factors(facet):
        mu = linked_weight(w, g, p)
        if mu is not None and dominance_leq(mu, w):
            out.append(mu)
    return out


def simple_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the simple module at w."""
    key = (p, w)
    cached = _SIMPLE_CACHE.get(key)
    if cached is not None:
        return cached
    result = Character("weyl", {w: 1}).combine(
        (-1, simple_char(mu, p)) for mu in weyl_comp_factors(w, p) if mu != w
    )
    assert result.coeffs.get(w) == 1, f"lost unitriangularity at {w}"
    _SIMPLE_CACHE[key] = result
    return result


def simple_dim(w: Weight, p: int) -> int:
    return simple_char(w, p).dimension()


def tilting_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the indecomposable tilting module at w."""
    key = (p, w)
    cached = _TILTING_CACHE.get(key)
    if cached is not None:
        return cached
    facet = _require_in_region(w, p)
    coeffs: Dict[Weight, int] = {}
    for g in structures.tilting_delta_factors(facet):
        mu = linked_weight(w, g, p)
        if mu is not None and dominance_leq(mu, w):
            coeffs[mu] = coeffs.get(mu, 0) + 1
    result = Character("weyl", coeffs)
    assert result.coeffs.get(w) == 1, f"tilting character at {w} lost its top"
    _TILTING_CACHE[key] = result
    return result


def tilting_dim(w: Weight, p: int) -> int:
    return tilting_char(w, p).dimension()


def second_alcove_floor(w: Weight, p: int) -> Tuple[Weight, Weight, Weight, Weight]:
    """Linked weights of a second-alcove weight in alcoves 3, 3', 2, 1.

    For dominant second-alcove weights all four exist.
    """
    if classify(w, p) != "C2":
        raise ValueError(f"{w} is not in the second alcove for p={p}")
    mus = tuple(linked_weight(w, f, p) for f in ("C3", "C3p", "C2", "C1"))
    if any(mu is None for mu in mus):
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
    mu3, mu3p, _, mu1 = second_alcove_floor(w, p)
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
