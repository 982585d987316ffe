"""Modular character engine.

Every tilting, simple and M character comes from one facet expansion with no
p in it, ``_expansion(kind, facet)``, derived once from the structure data:
the Weyl factors of the stored tilting and ``m`` layers (M at C2 only), and
for the simple module its Weyl module less the expansions of its lower
composition factors.  The character at a weight maps the expansion at its
facet to the weights of its class, read past the gates of ``alcoves``: all
three are memoized by ``weights._checked_cache``, which checks the weight
and p first (``simple_char.cache_info()`` reports hits, misses and size).
The cached characters are immutable and built unchecked
(``Character._trusted``): their terms are class weights and integer
expansion counts; the simple and tilting ones assert their unit lead.  The
change of basis to simple characters sums each Weyl module's composition
factors, each once.  Weights whose facet data would be needed outside the
fundamental region are rejected, and a facet of an expansion with no linked
weight (below the weight, but for M) is an ``AssertionError``, not a
truncation.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, List, Tuple

from . import structures
from .alcoves import OUT, _class, canonical_rep, classify
from .weights import Weight, _checked_cache, dominance_leq
from .weylchar import Character


@lru_cache(maxsize=None)
def _expansion(kind: str, facet: str) -> Tuple[Tuple[str, int], ...]:
    """The Weyl factors ``(facet, k)`` of the ``kind`` module ("T", "L", or
    "M" at C2) at a facet, with no p: for T and M the L-expansions of the
    composition factors in their stored layers; for L the Weyl module less
    the L-expansions of its lower composition factors."""
    out, terms = Counter(), Counter()
    if kind == "L":
        out[facet] = 1
        terms.subtract(g for g in structures.delta_factors(facet) if g != facet)
    else:
        terms.update(structures.diagram(facet, "tilting" if kind == "T" else "m").layer_multiset())
    for g, n in terms.items():
        for f, k in _expansion("L", g):
            out[f] += n * k
    if kind == "T" and any(k < 0 for k in out.values()):  # T has a Weyl filtration
        raise AssertionError(f"tilting layers at {facet} give negative Weyl factors {dict(out)}")
    return tuple((f, k) for f, k in out.items() if k)


def tilting_delta_factors(facet: str) -> List[str]:
    """Weyl-filtration factors of the tilting module at a facet, with multiplicity."""
    return [f for f, k in _expansion("T", facet) for _ in range(k)]


def _in_class(w: Weight, p: int, expansion_at, top: bool = True) -> Dict[Weight, int]:
    """``expansion_at(facet of w)``, ``(facet, k)`` terms, mapped to the weights
    of w's class (w and p checked by the caller).  Each exists and, if w is the
    ``top``, lies below w; a missing one is an error, not a truncation."""
    facet = classify.cached(w, p)  # the body checks p and dominance at a miss
    if facet == OUT:
        raise ValueError(f"weight {w} lies outside the fundamental region for p={p}")
    index, out = _class(canonical_rep.cached(w, p), p), {}
    for f, k in expansion_at(facet):
        mu = index.get(f)
        if mu is None or top and not dominance_leq(mu, w):
            raise AssertionError(f"no weight linked to {w}{' below it' if top else ''} "
                                 f"in facet {f} of {facet}, p={p}")
        out[mu] = k
    return out


def weyl_comp_factors(w: Weight, p: int) -> List[Weight]:
    """Composition factor weights of the Weyl module at w, each once."""
    classify(w, p)  # the input gate, as the memoized entry points have
    return list(_in_class(w, p, lambda f: Counter(structures.delta_factors(f)).items()))


@_checked_cache
def simple_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the simple module at w."""
    result = Character._trusted("weyl", _in_class(w, p, lambda f: _expansion("L", f)))
    assert result.coeffs.get(w) == 1, f"lost unitriangularity at {w}"
    return result


@_checked_cache
def simple_dim(w: Weight, p: int) -> int:
    return simple_char(w, p).dimension()


@_checked_cache
def tilting_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the indecomposable tilting module at w."""
    result = Character._trusted("weyl", _in_class(w, p, lambda f: _expansion("T", f)))
    assert result.coeffs.get(w) == 1, f"tilting character at {w} lost its top"
    return result


@_checked_cache
def m_char(w: Weight, p: int) -> Character:
    """Weyl-basis character of the non-highest-weight indecomposable at a
    second-alcove weight, whose composition factors are stored in the ``m``
    record (head and socle at w, heart the three wall-reflected simples, two
    of them above w)."""
    if classify.cached(w, p) != "C2":
        raise ValueError(f"{w} is not in the second alcove for p={p}")
    return Character._trusted("weyl", _in_class(w, p, lambda f: _expansion("M", f), top=False))


def to_simple_basis(c: Character, p: int) -> Character:
    """Exact change of basis from Weyl to simple characters."""
    if c.basis != "weyl":
        raise ValueError("expected a weyl-basis character")
    out: Dict[Weight, int] = {}
    for w, k in c.coeffs.items():  # Weyl modules are multiplicity-free in simples
        for mu in weyl_comp_factors(w, p):
            out[mu] = out.get(mu, 0) + k
    return Character._trusted("simple", out)


def from_simple_basis(c: Character, p: int) -> Character:
    """Exact change of basis from simple to Weyl characters."""
    if c.basis != "simple":
        raise ValueError("expected a simple-basis character")
    return Character("weyl").combine(
        (k, simple_char(w, p)) for w, k in c.coeffs.items()
    )
