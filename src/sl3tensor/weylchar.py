"""Exact character algebra for SL3.

A :class:`Character` is a finitely supported integer combination of basis
symbols indexed by weights, in one of three bases:

* ``weyl``      Weyl-module characters,
* ``simple``    simple-module characters (interpreted per prime; see modchar),
* ``monomial``  raw weight multiplicities.

Products are available along two independent routes and the test suite pins
them against each other: :func:`lr_tensor` counts Littlewood-Richardson
tableaux over 3-row partitions, while :func:`mult_via_monomial` applies the
Brauer-Klimyk rule to the weight multiplicities of one factor, obtained from
the alternating partition-function formula.  :func:`monomial_to_weyl` reads
Weyl coefficients off a multiplicity map by the alternant of Weyl's character
formula.  All arithmetic is exact, in Python integers.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

from .weights import WEYL_GROUP, Weight, dim_weyl, is_dominant

BASES = ("weyl", "simple", "monomial")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
            if not (isinstance(w, tuple) and len(w) == 2
                    and _is_int(w[0]) and _is_int(w[1])):
                raise ValueError(f"weight must be two integers, got {w!r}")
            if not _is_int(c):
                raise ValueError(f"coefficient must be an integer, got {c!r}")
            if c == 0:
                continue
            if basis != "monomial" and not is_dominant(w):
                raise ValueError(f"non-dominant support {w} in {basis} basis")
            cleaned[w] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

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
        """``self + sum(k * c for k, c in terms)``, built and validated once."""
        out = self.coeffs.copy()
        for k, other in terms:
            if other.basis != self.basis:
                raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
            for w, c in other.coeffs.items():
                out[w] = out.get(w, 0) + k * c
        return Character(self.basis, out)

    def __add__(self, other: "Character") -> "Character":
        return self.combine(((1, other),))

    def __sub__(self, other: "Character") -> "Character":
        return self.combine(((-1, other),))

    def items_sorted(self) -> List[Tuple[Weight, int]]:
        return sorted(self.coeffs.items(), key=lambda item: sort_key(item[0]))

    def dimension(self) -> int:
        """Total dimension; weyl and monomial bases only (simple needs p)."""
        if self.basis == "weyl":
            return sum(c * dim_weyl(w) for w, c in self.coeffs.items())
        if self.basis == "monomial":
            return sum(self.coeffs.values())
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


def peel(
    coeffs: Mapping[Weight, int], expand: Callable, stop: frozenset = frozenset()
) -> Tuple[List[Tuple[Weight, int]], Dict[Weight, int]]:
    """Triangular solve: at each lead of the support, in :func:`sort_key`
    order, stop if it is in ``stop``, else record ``(lead, k)`` and subtract
    k times ``expand(lead, k)``, the items of a character with coefficient 1
    at the lead.  Returns the steps and the remainder.  An expansion lies
    below its lead in dominance, so at strictly smaller a+b: it sorts
    strictly later, and one pass over a heap is exact."""
    remaining = coeffs.copy()
    heap = [(sort_key(w), w) for w in remaining]
    heapq.heapify(heap)
    steps = []
    while heap:
        lead = heapq.heappop(heap)[1]
        k = remaining.get(lead)
        if not k:  # cancelled since it was pushed, or a duplicate entry
            continue
        if lead in stop:
            break
        for mu, m in expand(lead, k):
            value = remaining.get(mu, 0) - k * m
            if not value:
                remaining.pop(mu, None)
                continue
            if mu not in remaining:
                heapq.heappush(heap, (sort_key(mu), mu))
            remaining[mu] = value
        steps.append((lead, k))
    return steps, remaining


# ---------------------------------------------------------------------------
# monomial expansion of a Weyl character
# ---------------------------------------------------------------------------

def _kostant_partition(v1: int, v2: int) -> int:
    """Ways to write (v1, v2) as c1*alpha1 + c2*alpha2 + m*theta, all >= 0."""
    n1 = 2 * v1 + v2
    n2 = v1 + 2 * v2
    if n1 < 0 or n2 < 0 or n1 % 3 or n2 % 3:
        return 0
    return min(n1 // 3, n2 // 3) + 1


@lru_cache(maxsize=None)
def _monomial_items(lam: Weight) -> Tuple[Tuple[Weight, int], ...]:
    a, b = lam
    r, s = a + 1, b + 1
    images = [(image(r, s), sign) for image, sign in WEYL_GROUP]
    items = []
    for c1 in range(a + b + 1):
        for c2 in range(a + b + 1):
            mu = (a - 2 * c1 + c2, b + c1 - 2 * c2)
            mult = 0
            for (ir, is_), sign in images:
                mult += sign * _kostant_partition(ir - mu[0] - 1, is_ - mu[1] - 1)
            if mult:
                items.append((mu, mult))
    return tuple(items)


def weyl_to_monomial(lam: Weight) -> Character:
    """Weight multiplicity map of the Weyl character at a dominant weight."""
    if not is_dominant(lam):
        raise ValueError(f"non-dominant weight {lam}")
    return Character("monomial", dict(_monomial_items(lam)))


def weyl_char_to_monomial(c: Character) -> Character:
    if c.basis != "weyl":
        raise ValueError("expected a weyl-basis character")
    out: Dict[Weight, int] = {}
    for lam, k in c.coeffs.items():
        for mu, m in _monomial_items(lam):
            out[mu] = out.get(mu, 0) + k * m
    return Character("monomial", out)


def _is_weyl_symmetric(c: Character) -> bool:
    for (x, y), m in c.coeffs.items():
        for image, _ in WEYL_GROUP:
            if c.coeffs.get(image(x, y), 0) != m:
                return False
    return True


# (rho - w(rho), sgn(w)) for each w in the finite Weyl group.
_RHO_SHIFTS = tuple(
    (tuple(1 - v for v in image(1, 1)), sign) for image, sign in WEYL_GROUP
)


def monomial_to_weyl(c: Character) -> Character:
    """Invert the monomial expansion by the alternant.

    The input must be symmetric under the finite Weyl group; the result is
    the unique integer combination of Weyl characters with that expansion.
    By Weyl's character formula its coefficient at a dominant weight is
    ``sum_w sgn(w) * m(lam + rho - w(rho))``.  A coefficient can be nonzero
    where the multiplicity cancels to 0, so every ``mu - (rho - w(rho))``
    over the support is a candidate, not only the dominant support.
    """
    if c.basis != "monomial":
        raise ValueError("expected a monomial-basis character")
    if not _is_weyl_symmetric(c):
        raise ValueError("monomial character is not Weyl-group symmetric")
    m = c.coeffs
    candidates = {
        (x - dx, y - dy)
        for x, y in m
        for (dx, dy), _ in _RHO_SHIFTS
        if x >= dx and y >= dy
    }
    out = {}
    for x, y in candidates:
        k = sum(sign * m.get((x + dx, y + dy), 0) for (dx, dy), sign in _RHO_SHIFTS)
        if k:
            out[(x, y)] = k
    return Character("weyl", out)


# ---------------------------------------------------------------------------
# Brauer-Klimyk product
# ---------------------------------------------------------------------------

def mult_via_monomial(c1: Character, c2: Character) -> Character:
    """Weyl-basis product by the Brauer-Klimyk rule.

    chi(top) * chi(small) = sum over the weights nu of chi(small), with
    multiplicity m, of sgn(w) * m * chi(w(top + nu + rho) - rho), where w
    makes the shifted weight dominant; shifted weights on a wall drop out.
    The factor with the smaller Weyl dimension is expanded.  Independent of
    the tableau route in :func:`lr_tensor`; the suite asserts the two agree.
    """
    if c1.basis != "weyl" or c2.basis != "weyl":
        raise ValueError("expected weyl-basis characters")
    out: Dict[Weight, int] = {}
    for lam, k1 in c1.coeffs.items():
        for mu, k2 in c2.coeffs.items():
            small, top = sorted((lam, mu), key=dim_weyl)
            r0, s0, k = top[0] + 1, top[1] + 1, k1 * k2
            for (x, y), m in _monomial_items(small):
                for image, sign in WEYL_GROUP:
                    r, s = image(r0 + x, s0 + y)
                    if r > 0 and s > 0:
                        nu = (r - 1, s - 1)
                        out[nu] = out.get(nu, 0) + sign * k * m
                        break
    return Character("weyl", out)


# ---------------------------------------------------------------------------
# Littlewood-Richardson product
# ---------------------------------------------------------------------------

def _lr_count(nu, P, Q) -> int:
    """LR skew tableaux of shape nu/P and content Q, all with <= 3 rows.

    Row fillings are encoded by value counts per row; the ballot condition
    forces row 1 to contain only 1s and all 3s to sit in row 3, leaving a
    single free parameter.
    """
    skew1 = nu[0] - P[0]
    skew2 = nu[1] - P[1]
    skew3 = nu[2]
    if skew1 < 0 or skew2 < 0 or skew3 < 0:
        return 0
    n11 = skew1
    n33 = Q[2]
    count = 0
    for n21 in range(min(skew2, P[0] - P[1], Q[0] - n11) + 1):
        n22 = skew2 - n21
        n31 = Q[0] - n11 - n21
        n32 = Q[1] - n22
        if n31 < 0 or n32 < 0 or n31 + n32 + n33 != skew3:
            continue
        # column strictness against the row above
        if n31 > P[1] or n31 + n32 > P[1] + n21:
            continue
        # ballot condition row by row
        if n22 > n11 or n22 + n32 > n11 + n21 or n33 > n22:
            continue
        count += 1
    return count


@lru_cache(maxsize=None)
def _lr_items(lam: Weight, mu: Weight) -> Tuple[Tuple[Weight, int], ...]:
    P = (lam[0] + lam[1], lam[1], 0)
    Q = (mu[0] + mu[1], mu[1], 0)
    total = sum(P) + sum(Q)
    items = []
    for nu3 in range(total // 3 + 1):
        for nu2 in range(max(P[1], nu3), (total - nu3) // 2 + 1):
            nu1 = total - nu2 - nu3
            if nu1 < max(P[0], nu2):
                continue
            c = _lr_count((nu1, nu2, nu3), P, Q)
            if c:
                items.append(((nu1 - nu2, nu2 - nu3), c))
    return tuple(items)


def lr_tensor(lam: Weight, mu: Weight) -> Character:
    """Weyl-basis character of the tensor product of two Weyl characters."""
    if not is_dominant(lam) or not is_dominant(mu):
        raise ValueError(f"non-dominant weights {lam}, {mu}")
    return Character("weyl", dict(_lr_items(lam, mu)))


def mult(c1: Character, c2: Character) -> Character:
    """Bilinear extension of :func:`lr_tensor` to Weyl-basis characters."""
    if c1.basis != "weyl" or c2.basis != "weyl":
        raise ValueError("expected weyl-basis characters")
    out: Dict[Weight, int] = {}
    for lam, k1 in c1.coeffs.items():
        for mu, k2 in c2.coeffs.items():
            k = k1 * k2
            for nu, c in _lr_items(lam, mu):
                out[nu] = out.get(nu, 0) + k * c
    return Character("weyl", out)
