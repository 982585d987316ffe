"""Exact character algebra for SL3.

A :class:`Character` is a finitely supported integer combination of basis
symbols indexed by dominant weights, in one of two bases:

* ``weyl``    Weyl-module characters,
* ``simple``  simple-module characters (interpreted per prime; modchar
              derives them and the change of basis from the facet data).

Products are available along two independent routes and the test suite pins
them against each other: :func:`lr_tensor` counts Littlewood-Richardson
tableaux over 3-row partitions (each count in closed form), while
:func:`mult_via_monomial` applies the Brauer-Klimyk rule to the weight
multiplicities of one factor, in closed form too (one more per hexagonal
shell).  Each route is a kernel, ``_lr_product`` or ``_bk_product``, that
fills a plain ``{weight: int}`` dict from two coefficient maps in one pass,
cancelled weights kept with 0, for ``decompose`` and ``verify`` to read, and
keeps no product; ``mult``, ``lr_tensor`` and ``mult_via_monomial`` wrap
them.  All arithmetic is exact, in Python integers.  ``Character(...)`` and
``from_json`` check every term; the library builds characters from valid ones
(sums, blocks, changes of basis, the modular characters and the products
``lr_tensor`` and ``mult_via_monomial``) with the unchecked
``Character._trusted``.  ``mult`` builds a checked ``Character``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .weights import Weight, _check_weight, _is_int, dim_weyl, is_dominant

BASES = ("weyl", "simple")


def sort_key(w: Weight):
    """Canonical descending order: by (t, r), i.e. (a+b+2, a+1)."""
    return (-(w[0] + w[1]), -w[0])


class Character:
    """Finitely supported integer combination of weight-indexed symbols.

    Immutable: ``coeffs`` is a read-only mapping and attributes cannot be
    reassigned, so a memoized character cannot be altered by its callers.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: Dict[Weight, int] | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        cleaned = {}
        for w, c in (coeffs or {}).items():
            _check_weight(w)
            if type(c) is not int and not _is_int(c):
                raise ValueError(f"coefficient must be an integer, got {c!r}")
            if c == 0:
                continue
            if w[0] < 0 or w[1] < 0:
                raise ValueError(f"non-dominant support {w} in {basis} basis")
            cleaned[w] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    @classmethod
    def _trusted(cls, basis: str, coeffs: Dict[Weight, int]) -> "Character":
        """Unchecked, for terms from valid characters: drops zeros only."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", MappingProxyType({w: c for w, c in coeffs.items() if c}))
        return self

    def __setattr__(self, *_):
        raise AttributeError("Character is immutable")

    __delattr__ = __setattr__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def combine(self, terms: Iterable[Tuple[int, "Character"]]) -> "Character":
        """``self + sum(k * c for k, c in terms)``; checks only bases and k."""
        out = self.coeffs.copy()
        for k, other in terms:
            if other.basis != self.basis:
                raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
            if not _is_int(k):
                raise ValueError(f"coefficient must be an integer, got {k!r}")
            for w, c in other.coeffs.items():
                out[w] = out.get(w, 0) + k * c
        return Character._trusted(self.basis, out)

    def __add__(self, other: "Character") -> "Character":
        return self.combine(((1, other),))

    def __sub__(self, other: "Character") -> "Character":
        return self.combine(((-1, other),))

    def items_sorted(self) -> List[Tuple[Weight, int]]:
        # sort_key of each term's weight, inlined: one key call per term
        return sorted(self.coeffs.items(),
                      key=lambda item: (-(item[0][0] + item[0][1]), -item[0][0]))

    def dimension(self) -> int:
        """Total dimension; weyl basis only (simple needs p)."""
        if self.basis == "weyl":
            return sum(c * dim_weyl(w) for w, c in self.coeffs.items())
        raise ValueError("dimension of a simple-basis character depends on p")

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"weight": [w[0], w[1]], "coeff": c}
                for w, c in self.items_sorted()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Character":
        """Inverse of :meth:`to_json`; a malformed or repeated term raises."""
        coeffs: Dict[Weight, int] = {}
        for term in data["terms"]:
            w = term["weight"]
            w = tuple(w) if isinstance(w, list) else w
            try:
                repeated = w in coeffs
            except TypeError:  # unhashable; never a weight
                raise ValueError(f"weight must be two integers, got {w!r}") from None
            if repeated:
                raise ValueError(f"repeated weight {list(w)}")
            coeffs[w] = term["coeff"]
        return cls(data["basis"], coeffs)

    def __repr__(self):
        terms = " + ".join(f"{c}*[{w[0]},{w[1]}]" for w, c in self.items_sorted())
        return f"Character({self.basis}: {terms or '0'})"


# ---------------------------------------------------------------------------
# monomial expansion of a Weyl character
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomial_items(lam: Weight) -> Tuple[int, ...]:
    """Weight multiplicities of the Weyl character at ``lam = (a, b)``, flat:
    ``(mu0[0], mu0[1], m0, ...)``, read by ``verify`` through
    :func:`_bk_product`.  One more per hexagonal shell until the shells
    become triangles (Fulton-Harris 13.2).  mu = lam - c1*alpha1 - c2*alpha2
    has e-coordinates (x, y, c2) = (a+b-c1, b+c1-c2, c2); lam - dom(mu) =
    d1*alpha1 + d2*alpha2 with d1 = a+b-max, d2 = min of them; m(mu) =
    min(d1, d2, a, b) + 1 if both >= 0."""
    a, b = lam
    n, cap = a + b, min(a, b)
    items = []
    for c1 in range(n + 1):
        x = n - c1
        for c2 in range(max(0, c1 - a), min(n, c1 + b) + 1):  # 0 <= y <= n
            y = b + c1 - c2
            lo, hi = (c2, y) if c2 < y else (y, c2)
            if x < lo:
                lo = x
            elif x > hi:
                hi = x
            d = n - hi if n - hi < lo else lo
            items += (x - y, y - c2, (d if d < cap else cap) + 1)
    return tuple(items)


# ---------------------------------------------------------------------------
# Brauer-Klimyk product
# ---------------------------------------------------------------------------

def _bk_product(f: Mapping[Weight, int], g: Mapping[Weight, int]) -> Dict[Weight, int]:
    """The Brauer-Klimyk product of two Weyl-basis coefficient maps, as a
    plain dict that the caller owns; a cancelled weight stays, with 0.

    chi(top) * chi(small) = sum over the weights nu of chi(small), with
    multiplicity m, of sgn(w) * m * chi(w(top + nu + rho) - rho), where w
    makes the shifted weight dominant; shifted weights on a wall drop out.
    The factor with the smaller Weyl dimension is expanded.  A shifted weight
    inside the open chamber needs no w and adds with sign +1; only the others
    take the sort below.  One pass fills the result, whose weights are all
    dominant (u > v > w).  Independent of the tableau route in
    :func:`_lr_product`; the suite asserts the two agree.
    """
    out: Dict[Weight, int] = {}
    get = out.get
    for lam, k1 in f.items():
        for mu, k2 in g.items():
            small, top = (lam, mu) if dim_weyl(lam) <= dim_weyl(mu) else (mu, lam)
            r0, s0, k = top[0] + 1, top[1] + 1, k1 * k2
            for x, y, m in zip(*[iter(_monomial_items(small))] * 3):  # flat triples
                r, s = r0 + x, s0 + y  # the shifted weight top + nu + rho
                if r > 0 and s > 0:  # regular dominant: w = 1
                    nu = (r - 1, s - 1)
                    out[nu] = get(nu, 0) + k * m
                    continue
                # sort the e-coordinates (r+s, s, 0) downwards: a swap is a
                # reflection, an equal pair a wall
                u, v, w, sign = r + s, s, 0, k * m
                if u < v:
                    u, v, sign = v, u, -sign
                if v < w:
                    v, w, sign = w, v, -sign
                    if u < v:
                        u, v, sign = v, u, -sign
                if u != v and v != w:
                    nu = (u - v - 1, v - w - 1)
                    out[nu] = get(nu, 0) + sign
    return out


def mult_via_monomial(c1: Character, c2: Character) -> Character:
    """Weyl-basis product by the Brauer-Klimyk rule, :func:`_bk_product`."""
    if c1.basis != "weyl" or c2.basis != "weyl":
        raise ValueError("expected weyl-basis characters")
    return Character._trusted("weyl", _bk_product(c1.coeffs, c2.coeffs))


# ---------------------------------------------------------------------------
# Littlewood-Richardson product
# ---------------------------------------------------------------------------

def _lr_into(out: Dict[Weight, int], k: int, lam: Weight, mu: Weight) -> None:
    """Add ``k`` times the LR product of ``lam`` and ``mu`` into ``out``: for
    each weight nu (a plain int pair), k times the number of LR skew
    tableaux of shape nu/P and content Q (Q[2] = 0), 3 rows each.  Each nu
    occurs once, in the same order at every call.  No table is kept: over a
    sweep the tables would grow as p^6 and save no time.

    Row fillings are encoded by value counts n_ij (value j in row i); the
    ballot condition forces row 1 to contain only 1s, leaving one free
    parameter n21 once the skews s1 = nu1 - P[0] = n11 and s2 = nu2 - P[1]
    are fixed.  Every condition bounds n21 linearly, so each count is the
    length of an interval.
    """
    P = (lam[0] + lam[1], lam[1])
    Q = (mu[0] + mu[1], mu[1])
    total = sum(P) + sum(Q)
    get = out.get
    # With R = nu1 + nu2, n21 is bounded above by P[0] - P[1] (columns),
    # Q[0] - s1 (n31 >= 0) and s2 (n22 >= 0); below by 0 and nu3 - P[1]
    # (columns: n31 + n32), s2 - Q[1] (n32 >= 0), Q[0] - s1 - P[1] (columns:
    # n31), Q[1] - s1 and s2 - s1 (ballot).  The bounds that fall by one per
    # unit of nu1 merge into `up` and `down`, constant for each nu3.
    width = P[0] - P[1]
    low_q = P[0] + Q[0] - P[1] if Q[0] - Q[1] > P[1] else P[0] + Q[1]
    last = total // 3 if total // 3 < P[1] + Q[1] else P[1] + Q[1]
    for nu3 in range(last + 1):  # nu3 <= n31 + n32 <= P[1] + Q[1]
        R = total - nu3
        up = P[0] + Q[0] if P[0] + Q[0] < R - P[1] else R - P[1]
        down = R - P[1] - Q[1] if R - Q[1] > low_q + P[1] else low_q
        floor, ballot = (nu3 - P[1] if nu3 > P[1] else 0), R - P[1] + P[0]
        top = up if up < R - nu3 else R - nu3  # nu1 = P[0] + s1, s1 <= Q[0]
        bottom = (R + 1) // 2 if (R + 1) // 2 > P[0] else P[0]
        for nu1 in range(top, bottom - 1, -1):
            hi = up - nu1 if up - nu1 < width else width
            lo = down - nu1 if down - nu1 > floor else floor
            if lo < ballot - 2 * nu1:
                lo = ballot - 2 * nu1
            if hi >= lo:
                nu = (2 * nu1 - R, R - nu1 - nu3)
                out[nu] = get(nu, 0) + k * (hi - lo + 1)


def _lr_product(f: Mapping[Weight, int], g: Mapping[Weight, int]) -> Dict[Weight, int]:
    """The LR product of two Weyl-basis coefficient maps, as a plain dict
    that the caller owns: one :func:`_lr_into` pass per pair of terms, adding
    into one result.  A weight whose terms cancel stays, with 0."""
    out: Dict[Weight, int] = {}
    for lam, k1 in f.items():
        for mu, k2 in g.items():
            _lr_into(out, k1 * k2, lam, mu)
    return out


def lr_tensor(lam: Weight, mu: Weight) -> Character:
    """Weyl-basis character of the tensor product of two Weyl characters, in
    the order given: :func:`_lr_product`, whose terms are valid by
    construction (int pairs, dominant, with positive int counts), so
    the result is built with ``Character._trusted``."""
    _check_weight(lam)
    _check_weight(mu)
    if not is_dominant(lam) or not is_dominant(mu):
        raise ValueError(f"non-dominant weights {lam}, {mu}")
    return Character._trusted("weyl", _lr_product({lam: 1}, {mu: 1}))


def mult(c1: Character, c2: Character) -> Character:
    """Bilinear extension of :func:`lr_tensor`, :func:`_lr_product`, as the
    checked ``Character("weyl", ...)``."""
    if c1.basis != "weyl" or c2.basis != "weyl":
        raise ValueError("expected weyl-basis characters")
    return Character("weyl", _lr_product(c1.coeffs, c2.coeffs))
