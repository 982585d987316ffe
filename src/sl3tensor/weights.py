"""SL3 weight lattice in fundamental-weight coordinates, and the input rules.

A weight is a plain pair ``(a, b)`` of integers: the coefficients of the two
fundamental weights.  Intermediate results of affine reflections may be
non-dominant, so arbitrary integers are allowed; dominant means ``a, b >= 0``.

Every alcove-sensitive operation takes the prime ``p`` explicitly; there is
no module-level state, so distinct primes can be served from one process.

Every input rule is defined here, once: a weight is two ``int``s
(``_check_weight``), p is a prime >= 5 (``_check_prime``), and the command
line's integers are base 10.  ``_checked_cache`` checks weights and p before
the lookup of the memoized entry points, ``alcoves.classify`` and
``canonical_rep`` among them, so every reader of the alcove geometry refuses
a bad p, and a p too large for the exact primality test.
"""

from __future__ import annotations

from functools import lru_cache, wraps
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_weight(w) -> None:
    if type(w) is tuple and len(w) == 2 and type(w[0]) is int and type(w[1]) is int:
        return  # exact types first; the general test only on a miss
    if not (isinstance(w, tuple) and len(w) == 2 and _is_int(w[0]) and _is_int(w[1])):
        raise ValueError(f"weight must be two integers, got {w!r}")


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981  # the least strong pseudoprime to all 13


@lru_cache(maxsize=None)
def _is_prime(p: int) -> bool:  # on ints only: 5.0 and True hash as 5 and 1
    """Whether p is a prime >= 5, by Miller-Rabin on ``_PRIME_BASES``."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND} for an exact primality test, got {p!r}")
    if p < 5 or any(p % q == 0 for q in _PRIME_BASES):
        return p in _PRIME_BASES[2:]
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s with d odd
    for a in _PRIME_BASES:  # a^d, a^2d, ..., a^((p-1)/2): 1 first, or p - 1 in them
        x = [pow(a, (p - 1) >> k, p) for k in range(s, 0, -1)]
        if x[0] != 1 and p - 1 not in x:
            return False
    return True


def _check_prime(p) -> None:
    if not (_is_int(p) and _is_prime(p)):
        raise ValueError(f"p must be a prime >= 5, got {p!r}")


def _checked_cache(body):
    """``lru_cache(body)`` for a body taking one or two weights, then p,
    that checks each weight and a p that is not an exact ``int`` before the
    lookup, since (1.0, 0) and 5.0 hash as (1, 0) and 5; an ``int`` p is
    checked by the body at a miss.  ``cached`` is the cache, for library
    readers whose input is checked; ``__wrapped__`` is the uncached body."""
    cached = lru_cache(maxsize=None)(body)

    @wraps(body)
    def checked(*args):  # (w, p) or (nu, nu2, p); a loop would cost 0.1 us
        _check_weight(args[0])
        if len(args) == 3:
            _check_weight(args[1])
        if type(args[-1]) is not int:
            _check_prime(args[-1])
        return cached(*args)

    checked.cached, checked.cache_info, checked.cache_clear = (
        cached, cached.cache_info, cached.cache_clear)
    return checked


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
