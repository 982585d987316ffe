"""Exact character algebra for SL3.

A :class:`Character` is a finitely supported integer combination of basis
symbols indexed by weights, in one of three bases:

* ``weyl``      Weyl-module characters,
* ``simple``    simple-module characters (interpreted per prime; see modchar),
* ``monomial``  raw weight multiplicities.

Products are available along two independent routes and the test suite pins
them against each other: :func:`lr_tensor` counts Littlewood-Richardson
tableaux over 3-row partitions, while :func:`mono_mult` convolves weight
multiplicity maps obtained from the alternating partition-function formula.
All arithmetic is exact (Python integers; the convolution fast path uses
int64 behind a rigorous overflow bound).
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from .weights import Weight, dim_weyl, is_dominant

BASES = ("weyl", "simple", "monomial")


def sort_key(w: Weight):
    """Canonical descending order: by (t, r), i.e. (a+b+2, a+1)."""
    return (-(w[0] + w[1]), -w[0])


class Character:
    """Finitely supported integer combination of weight-indexed symbols."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: Dict[Weight, int] | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        cleaned = {}
        for w, c in (coeffs or {}).items():
            if c == 0:
                continue
            if basis != "monomial" and not is_dominant(w):
                raise ValueError(f"non-dominant support {w} in {basis} basis")
            cleaned[(int(w[0]), int(w[1]))] = int(c)
        self.basis = basis
        self.coeffs = cleaned

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
        out = dict(self.coeffs)
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

    def scale(self, k: int) -> "Character":
        return Character(self.basis).combine(((k, self),))

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
        return cls(
            data["basis"],
            {tuple(term["weight"]): term["coeff"] for term in data["terms"]},
        )

    def __repr__(self):
        terms = " + ".join(f"{c}*[{w[0]},{w[1]}]" for w, c in self.items_sorted())
        return f"Character({self.basis}: {terms or '0'})"


def peel(
    coeffs: Dict[Weight, int], expand: Callable, stop: frozenset = frozenset()
) -> Tuple[List[Tuple[Weight, int]], Dict[Weight, int]]:
    """Triangular solve: at each lead of the support, in :func:`sort_key`
    order, stop if it is in ``stop``, else record ``(lead, k)`` and subtract
    k times ``expand(lead, k)``, the items of a character with coefficient 1
    at the lead.  Returns the steps and the remainder.  An expansion lies
    below its lead in dominance, so at strictly smaller a+b: it sorts
    strictly later, and one pass over a heap is exact."""
    remaining = dict(coeffs)
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


# Images of a shifted weight under the finite Weyl group, with signs.
_SIGNED_ORBIT = (
    (lambda r, s: (r, s), 1),
    (lambda r, s: (-r, r + s), -1),
    (lambda r, s: (r + s, -s), -1),
    (lambda r, s: (s, -r - s), 1),
    (lambda r, s: (-r - s, r), 1),
    (lambda r, s: (-s, -r), -1),
)


@lru_cache(maxsize=None)
def _monomial_items(lam: Weight) -> Tuple[Tuple[Weight, int], ...]:
    a, b = lam
    r, s = a + 1, b + 1
    images = [(image(r, s), sign) for image, sign in _SIGNED_ORBIT]
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


# Linear (unshifted) action of the finite Weyl group on weights.
_LINEAR_ORBIT = (
    lambda x, y: (x, y),
    lambda x, y: (-x, x + y),
    lambda x, y: (x + y, -y),
    lambda x, y: (y, -x - y),
    lambda x, y: (-x - y, x),
    lambda x, y: (-y, -x),
)


def _is_weyl_symmetric(c: Character) -> bool:
    for (x, y), m in c.coeffs.items():
        for image in _LINEAR_ORBIT:
            if c.coeffs.get(image(x, y), 0) != m:
                return False
    return True


def monomial_to_weyl(c: Character) -> Character:
    """Invert the monomial expansion by leading-term subtraction.

    The input must be symmetric under the finite Weyl group; the result is
    the unique integer combination of Weyl characters with that expansion.
    """
    if c.basis != "monomial":
        raise ValueError("expected a monomial-basis character")
    if not _is_weyl_symmetric(c):
        raise ValueError("monomial character is not Weyl-group symmetric")

    def expand(lead: Weight, k: int):
        if not is_dominant(lead):
            raise ValueError(f"leading term {lead} is not dominant")
        return _monomial_items(lead)

    steps, _ = peel(c.coeffs, expand)
    return Character("weyl", dict(steps))


# ---------------------------------------------------------------------------
# monomial-side product (convolution of multiplicity maps)
# ---------------------------------------------------------------------------

def _to_grid(c: Character):
    xs = [w[0] for w in c.coeffs]
    ys = [w[1] for w in c.coeffs]
    x0, y0 = min(xs), min(ys)
    grid = np.zeros((max(xs) - x0 + 1, max(ys) - y0 + 1), dtype=np.int64)
    for (x, y), m in c.coeffs.items():
        grid[x - x0, y - y0] = m
    return grid, x0, y0


def mono_mult(c1: Character, c2: Character) -> Character:
    """Product of monomial characters: convolution of multiplicity maps."""
    if c1.basis != "monomial" or c2.basis != "monomial":
        raise ValueError("expected monomial-basis characters")
    if not c1.coeffs or not c2.coeffs:
        return Character("monomial", {})
    max1 = max(abs(m) for m in c1.coeffs.values())
    max2 = max(abs(m) for m in c2.coeffs.values())
    overlap = min(len(c1.coeffs), len(c2.coeffs))
    if max1 * max2 * overlap < 2**62:
        small, big = (c1, c2) if len(c1.coeffs) <= len(c2.coeffs) else (c2, c1)
        gb, bx0, by0 = _to_grid(big)
        h, w = gb.shape
        sxs = [p[0] for p in small.coeffs]
        sys_ = [p[1] for p in small.coeffs]
        out = np.zeros((h + max(sxs) - min(sxs), w + max(sys_) - min(sys_)),
                       dtype=np.int64)
        ox0, oy0 = bx0 + min(sxs), by0 + min(sys_)
        for (x, y), m in small.coeffs.items():
            ix, iy = x - min(sxs), y - min(sys_)
            out[ix:ix + h, iy:iy + w] += m * gb
        coeffs = {
            (int(i) + ox0, int(j) + oy0): int(out[i, j])
            for i, j in zip(*np.nonzero(out))
        }
        return Character("monomial", coeffs)
    # exact fallback for coefficients beyond the int64 safety bound
    coeffs: Dict[Weight, int] = {}
    for (x1, y1), m1 in c1.coeffs.items():
        for (x2, y2), m2 in c2.coeffs.items():
            key = (x1 + x2, y1 + y2)
            coeffs[key] = coeffs.get(key, 0) + m1 * m2
    return Character("monomial", coeffs)


def mult_via_monomial(c1: Character, c2: Character) -> Character:
    """Weyl-basis product computed through weight multiplicities.

    Independent of the tableau route in :func:`lr_tensor`; the suite asserts
    the two agree.
    """
    prod = mono_mult(weyl_char_to_monomial(c1), weyl_char_to_monomial(c2))
    return monomial_to_weyl(prod)


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
