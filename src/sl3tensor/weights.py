"""SL3 weight lattice in fundamental-weight coordinates.

A weight is a plain pair ``(a, b)`` of integers: the coefficients of the two
fundamental weights.  Intermediate results of affine reflections may be
non-dominant, so arbitrary integers are allowed; dominant means ``a, b >= 0``.

Every alcove-sensitive operation takes the prime ``p`` explicitly; there is
no module-level state, so distinct primes can be served from one process.
"""

from __future__ import annotations

from typing import Tuple

Weight = Tuple[int, int]

# Simple roots and the highest root, in fundamental-weight coordinates.
ALPHA1: Weight = (2, -1)
ALPHA2: Weight = (-1, 2)
THETA: Weight = (1, 1)

ROOTS = {"a1": ALPHA1, "a2": ALPHA2, "theta": THETA}

# The finite Weyl group as linear maps on fundamental-weight (or
# rho-shifted) coordinates, each with its sign.
WEYL_GROUP = (
    (lambda x, y: (x, y), 1),
    (lambda x, y: (-x, x + y), -1),
    (lambda x, y: (x + y, -y), -1),
    (lambda x, y: (y, -x - y), 1),
    (lambda x, y: (-x - y, x), 1),
    (lambda x, y: (-y, -x), -1),
)


def _parse_int(text: str) -> int:
    """A base-10 integer: optional sign, ASCII digits, spaces around (``int`` takes ``1_0``)."""
    if not (text.isascii() and text.strip().lstrip("+-").isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def parse_weight(text: str) -> Weight:
    """Parse the ``a,b`` syntax: two base-10 integers, optional spaces."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    try:
        return (_parse_int(parts[0]), _parse_int(parts[1]))
    except ValueError:
        raise ValueError(f"expected 'a,b' with integer entries, got {text!r}") from None


def format_weight(w: Weight) -> str:
    return f"{w[0]},{w[1]}"


def is_dominant(w: Weight) -> bool:
    return w[0] >= 0 and w[1] >= 0


def pairings(w: Weight) -> Tuple[int, int, int]:
    """Pairings of ``w + rho`` with the three positive coroots.

    Returns ``(r, s, t) = (a+1, b+1, a+b+2)``; always ``t == r + s``.
    """
    a, b = w
    return (a + 1, b + 1, a + b + 2)


def tau(w: Weight) -> Weight:
    """The diagram involution: swap the two coordinates."""
    return (w[1], w[0])


def dominance_leq(mu: Weight, lam: Weight) -> bool:
    """``mu <= lam``: the difference is a nonnegative integer root combination."""
    d1 = lam[0] - mu[0]
    d2 = lam[1] - mu[1]
    n1 = 2 * d1 + d2  # 3 * c1
    n2 = d1 + 2 * d2  # 3 * c2
    return n1 >= 0 and n2 >= 0 and n1 % 3 == 0 and n2 % 3 == 0


def dim_weyl(w: Weight) -> int:
    """Weyl dimension ``(a+1)(b+1)(a+b+2)/2``; rejects non-dominant weights."""
    if not is_dominant(w):
        raise ValueError(f"non-dominant weight {w}")
    r, s, t = pairings(w)
    return r * s * t // 2


def dot_reflect(w: Weight, root: str, m: int, p: int) -> Weight:
    """Affine dot reflection in the hyperplane ``<x + rho, root^> = m*p``.

    ``root`` is one of ``"a1"``, ``"a2"``, ``"theta"``.  Applying the same
    reflection twice gives back ``w``.
    """
    if root not in ROOTS:
        raise ValueError(f"unknown root {root!r}")
    alpha = ROOTS[root]
    r, s, t = pairings(w)
    n = {"a1": r, "a2": s, "theta": t}[root] - m * p
    return (w[0] - n * alpha[0], w[1] - n * alpha[1])
