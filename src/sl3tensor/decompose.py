"""Decomposition of tensor products of restricted simple modules.

The driver follows the character algorithm: expand the product of two simple
characters through the Littlewood-Richardson rule, split the result into
linkage blocks, and resolve each block in facet terms, with no p, by rows
derived from the facet expansions of :mod:`~sl3tensor.modchar`.  A row
writes the Weyl character at a facet in the summand basis of the case:
tilting characters; simple characters at the second alcove when exactly one
factor lies there; and, when both do, simple-basis coordinates at the floor
of a regular block (alcoves 3, 3', 2, 1), which a closed-form linear solve
resolves in a basis that adds the non-highest-weight module M.  A negative
multiplicity, an infeasible solve or summands that do not sum to the block
is an integrity failure naming the block.  :func:`verify` checks what this
did not compute.  ``Summand(...)`` and ``Decomposition(...)`` check their
fields; ``decompose``, which checks each unordered pair's inputs once, and
``_summand`` build theirs from checked parts with ``_Frozen._trusted``.  Both
products stay the plain ``{weight: int}`` dicts of the kernels of
:mod:`~sl3tensor.weylchar`: the LR one into the block pass (``_buckets``),
the Brauer-Klimyk one as the residue of verify's pass (``_tally``).
Memoized by ``functools.lru_cache``: :func:`decompose`, behind the checks of
``weights._checked_cache``, once per unordered pair; ``_resolve_facets``, on
the case and the block's facet pattern, at every p; the rows, ``_row``;
``_summand``, one record per summand; and ``_kind_terms``, verify's one
lookup per summand.  Results are immutable.  Inputs are
checked on entry; later reads of values checked or built here skip the gates
(``.cached``, ``alcoves._placed``, ``_class``): characters, dimensions, facets,
the other order and the τ mirror.  A sweep's ``decompose`` of each order checks.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from .alcoves import OUT, _class, _placed, classify, is_restricted, restricted_weights
from .modchar import _expansion, m_char, simple_char, simple_dim, tilting_char
from .weights import Weight, _check_prime, _check_weight, _checked_cache, _is_int, tau
from .weylchar import Character, _bk_product, _lr_product, mult, sort_key

KINDS = ("T", "L", "M")
FLOOR_FACETS = ("C3", "C3p", "C2", "C1")  # the floor of a regular class


class IntegrityError(RuntimeError):
    """The character bookkeeping failed; carries the offending block."""

    def __init__(self, message: str, block: Optional[Weight] = None):
        super().__init__(message)
        self.block = block


class _Record:
    """Field-wise ``==`` and ``repr`` over the ``__slots__`` fields."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A hashable record; ``__init__`` checks its fields, ``_trusted`` does not."""

    __slots__ = ()

    def _set(self, *values) -> "_Frozen":  # the fields, in slot order
        for k, v in zip(self.__slots__, values):
            object.__setattr__(self, k, v)
        return self

    @classmethod
    def _trusted(cls, *values) -> "_Frozen":
        """Unchecked, for fields built from checked parts."""
        return object.__new__(cls)._set(*values)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # pickled through __init__, fields in slot order
        return type(self), self._values()


class Summand(_Frozen):
    """``multiplicity`` copies of the ``kind`` ("T", "L" or "M") module at ``weight``."""

    __slots__ = ("kind", "weight", "multiplicity")

    def __init__(self, kind: str, weight: Weight, multiplicity: int):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
        _check_weight(weight)
        if weight[0] < 0 or weight[1] < 0:
            raise ValueError(f"weight {weight} is not dominant")
        if not (_is_int(multiplicity) and multiplicity > 0):
            raise ValueError(f"multiplicity must be a positive int, got {multiplicity!r}")
        self._set(kind, weight, multiplicity)

    def __str__(self) -> str:
        text = f"{self.kind}({self.weight[0]},{self.weight[1]})"
        return text if self.multiplicity == 1 else f"{self.multiplicity}*{text}"


class Decomposition(_Frozen):
    """The summands of the product of the simple modules at ``left`` and ``right``."""

    __slots__ = ("p", "left", "right", "case", "summands", "dim_product")

    def __init__(self, p: int, left: Weight, right: Weight, case: int,
                 summands: Tuple[Summand, ...], dim_product: int):
        _check_pair(left, right, p)
        if type(case) is not int or not 1 <= case <= 3:
            raise ValueError(f"case must be 1, 2 or 3, got {case!r}")
        if not isinstance(summands, (tuple, list)):
            raise ValueError(f"summands must be a tuple or list, got {summands!r}")
        for s in summands:
            if type(s) is not Summand:
                raise ValueError(f"summand must be a Summand, got {s!r}")
        if not (_is_int(dim_product) and dim_product > 0):
            raise ValueError(f"dim_product must be a positive int, got {dim_product!r}")
        self._set(p, left, right, case, tuple(summands), dim_product)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lhs": list(self.left),
            "rhs": list(self.right),
            "case": self.case,
            "summands": [{"kind": s.kind, "weight": list(s.weight), "mult": s.multiplicity}
                         for s in self.summands],
            "dim": self.dim_product,
        }

    def __str__(self) -> str:
        return " + ".join(str(s) for s in self.summands) or "0"


# The Weyl character of each summand kind for the command line, by name at call
# time, so a traced function is seen; the library reads ``_CACHED_CHAR``.
_KIND_CHAR = {"T": lambda w, p: tilting_char(w, p),
              "L": lambda w, p: simple_char(w, p),
              "M": lambda w, p: m_char(w, p)}
_CACHED_CHAR = {"T": tilting_char.cached, "L": simple_char.cached, "M": m_char.cached}


@lru_cache(maxsize=None)
def _kind_terms(kind: str, w: Weight, p: int) -> Tuple[str, tuple, int]:
    """``(facet, Weyl terms, dimension)`` of the ``kind`` module at ``w`` past
    the gates, for :func:`_tally`; no terms where its shape check refuses the
    summand before reading them: outside the region, and L or M off C2."""
    facet = classify.cached(w, p)
    if facet == OUT or kind != "T" and facet != "C2":
        return facet, (), 0
    c = _CACHED_CHAR[kind](w, p)
    return facet, tuple(c.coeffs.items()), c.dimension()


def summand_dim(s: Summand, p: int) -> int:
    _check_prime(p)  # before the character's cache, where 5.0 would hit 5
    return s.multiplicity * _CACHED_CHAR[s.kind](s.weight, p).dimension()


def _check_pair(nu: Weight, nu2: Weight, p: int) -> None:
    _check_prime(p)
    for w in (nu, nu2):
        _check_weight(w)
        if not is_restricted(w, p):
            raise ValueError(f"weight {w} is not restricted for p={p}")


def tensor_char(nu: Weight, nu2: Weight, p: int) -> Character:
    """Weyl-basis character of the product of the two simple modules."""
    _check_pair(nu, nu2, p)
    return mult(simple_char.cached(nu, p), simple_char.cached(nu2, p))


def _buckets(product: Mapping[Weight, int], p: int) -> Dict[Weight, Dict[str, int]]:
    """The ``{facet: k}`` pattern of each linkage block of a Weyl-basis
    ``{weight: k}`` product, in its order, keyed by its representative, whose
    ``_class`` maps it to weights.  A cancelled, zero term is skipped before
    it is placed, as a ``Character`` drops it, so the patterns are the same."""
    buckets: Dict[Weight, Dict[str, int]] = {}
    for w, k in product.items():  # the kernels' weights are dominant int pairs, p is checked
        if not k:
            continue
        rep, facet = _placed(w, p)
        if facet == OUT:
            raise ValueError(f"support weight {w} outside the region for p={p}")
        pattern = buckets.get(rep)
        if pattern is None:
            pattern = buckets[rep] = {}
        pattern[facet] = k
    return buckets


def case3_floor_solve(a3: int, a3p: int, a2: int, a1: int) -> Tuple[int, int, int, int]:
    """Resolve a regular-block floor in the basis of the three tilting
    characters at the floor together with M plus its simple companion.

    Solves x + w = a3, y + w = a3p, 2x + 2y + z + 2w = a2,
    x + y + 2z + 2w = a1 for nonnegative integers.  Infeasibility is an
    integrity error.
    """
    # 2z from combining the last two equations, then 2w from the third
    num_z = a1 - a3 - a3p
    num_w = num_z // 2 - a2 + 2 * a3 + 2 * a3p
    if num_z % 2 or num_w % 2:
        raise IntegrityError("floor solve is non-integral")
    w = num_w // 2
    solution = (a3 - w, a3p - w, num_z // 2, w)
    if min(solution) < 0:
        raise IntegrityError(f"floor solve has negative part {solution}")
    return solution


@lru_cache(maxsize=None)
def _row(case: int, facet: str) -> Tuple[Tuple[str, str, int], ...]:
    """The Weyl character at ``facet`` as ``(kind, facet, k)`` terms of the
    case's summand basis, with no p: the summand at the facet less the rows
    of the other Weyl factors of its :func:`~sl3tensor.modchar._expansion`.
    The summand is L at C2 in case 2 and at the floor facets in case 3, else
    T; so the case-3 floor rows are simple-basis coordinates, ``("L", g,
    k)``, for the floor solve."""
    kind = "L" if (case == 3 and facet in FLOOR_FACETS) or (case == 2 and facet == "C2") else "T"
    lower = dict(_expansion(kind, facet))
    assert lower.pop(facet, 0) == 1, f"{kind} at {facet} has no unit lead"
    row = Counter({(kind, facet): 1})
    for g, c in lower.items():
        for term_kind, f, k in _row(case, g):
            row[term_kind, f] -= c * k
    return tuple((term_kind, f, k) for (term_kind, f), k in row.items() if k)


@lru_cache(maxsize=None)
def _resolve_facets(case: int, pattern: Tuple[Tuple[str, int], ...]) -> Tuple[tuple, ...]:
    """The summands ``(kind, facet, k)`` of a block with Weyl coefficients
    ``pattern``: the rows of its facets, with :func:`case3_floor_solve`.  Their
    expansions must sum to the pattern: the block's sum check, since a class
    holds one weight per facet.  A negative part or a residue raises with its
    ``(facet, k)`` terms as ``block``, for :func:`_resolve_block` to name."""
    terms: Dict[Tuple[str, str], int] = {}
    for facet, k in pattern:
        for kind, f, m in _row(case, facet):
            terms[kind, f] = terms.get((kind, f), 0) + k * m
    floor = [terms.pop(("L", f), 0) for f in FLOOR_FACETS] if case == 3 else ()
    negative = [(f, k) for (_, f), k in terms.items() if k < 0]
    if negative:
        raise IntegrityError("negative", block=negative)
    if any(floor):
        x, y, z, w = case3_floor_solve(*floor)  # its failure names no block
        terms.update({("T", "C3"): x, ("T", "C3p"): y, ("T", "C2"): z,
                      ("M", "C2"): w, ("T", "C1"): w})
    summands = tuple((kind, f, k) for (kind, f), k in terms.items() if k)
    residue = dict(pattern)
    for kind, f, k in summands:
        for g, c in _expansion(kind, f):
            residue[g] = residue.get(g, 0) - k * c
    if any(residue.values()):  # once per distinct pattern and case
        raise IntegrityError("residue", block=list(residue.items()))
    return summands


_summand = lru_cache(maxsize=None)(Summand._trusted)  # one per summand, shared by every pair


def _resolve_block(rep: Weight, pattern: Tuple[Tuple[str, int], ...], case: int,
                   p: int) -> List[Summand]:
    """The summands of the block of ``rep`` with the facet ``pattern`` (its
    :func:`_buckets` items), and any failure, named in the class's weights."""
    index = _class(rep, p)
    try:
        terms = _resolve_facets(case, pattern)
    except IntegrityError as exc:
        if exc.block is None:  # the floor solve's
            raise IntegrityError(f"{exc} in block {rep}", block=rep) from exc
        parts = {index[f]: k for f, k in exc.block}
        if str(exc) == "residue":
            raise IntegrityError(f"summands do not sum to block {rep}, residue "
                                 f"{Character._trusted('weyl', parts)}", block=rep) from None
        lead = min(parts, key=sort_key)  # the first that a greedy pass from the top meets
        raise IntegrityError(f"negative multiplicity {parts[lead]} at {lead} during greedy pass",
                             block=lead) from None
    return [_summand(kind, index[f], k) for kind, f, k in terms]


def _case(nu: Weight, nu2: Weight, p: int) -> int:  # 1 + the factors at C2; inputs checked
    return 1 + (classify.cached(nu, p) == "C2") + (classify.cached(nu2, p) == "C2")


@_checked_cache
def decompose(nu: Weight, nu2: Weight, p: int) -> Decomposition:
    """Decompose the tensor product of two restricted simple modules, once
    per unordered pair, in the order ``nu <= nu2``, so a sweep builds each
    product once.  The other order copies that record's case, summands and
    dimension, which do not depend on the order: the products are equal, the
    summands sorted, and an integrity failure names only a block.  The body,
    ``__wrapped__``, reads the order ``nu <= nu2`` through the cache."""
    if nu2 < nu:
        d = decompose.cached(nu2, nu, p)
        return Decomposition._trusted(p, nu, nu2, d.case, d.summands, d.dim_product)
    _check_pair(nu, nu2, p)
    blocks = _buckets(_lr_product(simple_char.cached(nu, p).coeffs,
                                  simple_char.cached(nu2, p).coeffs), p)
    case = _case(nu, nu2, p)
    summands = [s for rep in sorted(blocks)
                for s in _resolve_block(rep, tuple(blocks[rep].items()), case, p)]
    # kinds and weights are distinct: the blocks are disjoint
    summands.sort(key=lambda s: (-(s.weight[0] + s.weight[1]), -s.weight[0], s.kind))  # sort_key
    return Decomposition._trusted(p, nu, nu2, case, tuple(summands),
                                  simple_dim.cached(nu, p) * simple_dim.cached(nu2, p))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class Check(_Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name, self.ok, self.detail = name, ok, detail


class Report(_Record):
    __slots__ = ("checks",)

    def __init__(self):
        self.checks: List[Check] = []

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]


def verify(d: Decomposition) -> Report:
    """Re-check a decomposition by what ``decompose`` did not compute: the
    character sum by Brauer-Klimyk, not LR; the dimension; the recorded case
    and the summand shapes against the case recomputed from the weights
    (case 3 must hold an M); the diagram involution.  One pass over the
    summands, ``_tally``, checks each one's shape, subtracts its character
    from the Brauer-Klimyk product, adds its dimension and records its image
    under the involution; the sum holds if no residue is left, and the
    involution check compares the sorted images with the mirrored pair's
    summands.  A summand outside the region, or an L or M off C2 or in the
    wrong case, fails the shape check and the other three uncomputed; a
    record that breaks a rule on its own fields cannot be built.  Each call
    computes its own product and tally; a sweep computes both once for the
    two orders of a pair and passes the tally to the same body, ``_verify``,
    so every order still gets every check."""
    p = d.p
    return _verify(d, _tally(d.summands, _case(d.left, d.right, p), p, d.left, d.right),
                   [None, None])


def _tally(summands: Tuple[Summand, ...], case: int, p: int, nu: Weight, nu2: Weight) -> tuple:
    """The one pass of :func:`verify` over ``summands``: the first misshapen
    summand (then the rest is uncomputed), whether a residue is left against
    the Brauer-Klimyk product of the simple characters at ``nu`` and
    ``nu2``, which is the residue's start, the dimension sum and the sorted
    images under the involution.  T may sit at any facet of the region, L
    only at C2 in case 2 and M only at C2 in case 3.  Neither the case nor
    the product depends on the order, so both orders of a pair may share
    the tally; no reader alters it."""
    residue = _bk_product(simple_char.cached(nu, p).coeffs, simple_char.cached(nu2, p).coeffs)
    get = residue.get
    dims, images, bad = 0, [], ""
    for s in summands:
        kind, w, m = s.kind, s.weight, s.multiplicity
        facet, terms, dim = _kind_terms(kind, w, p)
        if facet == OUT or kind != "T" and (facet != "C2" or case != (2 if kind == "L" else 3)):
            bad = f"{s} at facet {facet} in case {case}"
            break
        for mu, c in terms:
            residue[mu] = get(mu, 0) - m * c
        dims += m * dim
        images.append((kind, (w[1], w[0]), m))  # tau(w)
    return bad, any(residue.values()), dims, sorted(images)


def _mirror_images(summands: Tuple[Summand, ...]) -> list:
    """The sorted ``(kind, weight, multiplicity)`` of a mirrored record's summands."""
    return sorted((s.kind, s.weight, s.multiplicity) for s in summands)


def _verify(d: Decomposition, tally: tuple, mirror: list) -> Report:
    """The body of :func:`verify`: the report of ``d`` from the ``_tally``
    of its summands.  What depends on the order is read here: ``d``'s own
    dimension and case, and the involution's mirrored ``decompose``.
    ``mirror`` is ``[summands, images]``, the last mirrored summands tuple
    and its :func:`_mirror_images`; they are rebuilt, in place, only when
    the mirrored record holds another tuple, so the two orders of a pair,
    whose mirrors share one tuple, sort it once."""
    report = Report()
    add = report.checks.append
    p, case = d.p, _case(d.left, d.right, d.p)
    bad, leftover, dims, images = tally
    uncomputed = bad and f"misshapen summand {bad}"  # no residue or dimension to read
    add(Check("character-sum", not (uncomputed or leftover), uncomputed))
    add(Check("dimension", not uncomputed and dims == d.dim_product,
              uncomputed or f"{dims} vs {d.dim_product}"))
    if not bad and case == 3 and all(kind != "M" for kind, _, _ in images):
        bad = "no M summand in case 3"
    if d.case != case:
        bad = f"case {d.case} recorded, case {case} from the weights"
    add(Check("summand-shape", not bad, bad))
    if uncomputed:
        add(Check("tau-equivariance", False, uncomputed))
        return report

    try:
        mirrored = decompose.cached(tau(d.right), tau(d.left), p)
        if mirrored.summands is not mirror[0]:
            mirror[:] = mirrored.summands, _mirror_images(mirrored.summands)
        add(Check("tau-equivariance", images == mirror[1]))
    except IntegrityError as exc:
        add(Check("tau-equivariance", False, str(exc)))

    return report


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------

class SweepResult(_Record):
    __slots__ = ("p", "pairs", "summand_counts", "m_pairs", "failures")

    def __init__(self, p: int, pairs: int, summand_counts: Dict[str, int],
                 m_pairs: int, failures: List[str]):
        self.p, self.pairs, self.summand_counts = p, pairs, summand_counts
        self.m_pairs, self.failures = m_pairs, failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "pairs": self.pairs,
            "summand_counts": dict(sorted(self.summand_counts.items())),
            "pairs_with_m": self.m_pairs,
            "failures": list(self.failures),
        }


def _tag(nu: Weight, nu2: Weight) -> str:  # formatted for a failure only
    return f"{nu[0]},{nu[1]} x {nu2[0]},{nu2[1]}"


def _sweep_row(task) -> SweepResult:
    """The sweep tally of the pairs (nu, nu2) and (nu2, nu) over every
    restricted nu2 >= nu, so that each ordered pair falls in exactly one
    task.  The two orders of a pair share their computation: the second
    order's ``decompose`` copies the first's memoized record, every sweep
    counts the summands' kinds once for both, and a verifying sweep computes
    the Brauer-Klimyk product and the summand pass, ``_tally``, once for
    both.  The second order reuses the counts and the tally only if its
    record holds the very summands tuple that they read; otherwise it gets
    its own.  The sorted images of the mirrored record are shared the same
    way.  Each order gets every check of :func:`verify`."""
    p, nu, run_verify = task
    counts, m_pairs, pairs, failures = dict.fromkeys(KINDS, 0), 0, 0, []
    for nu2 in restricted_weights(p):
        if nu2 < nu:
            continue
        read = None  # the summands tuple that ``kinds`` and ``tally`` read
        mirror = [None, None]  # the mirrored summands tuple and its sorted images
        for left, right in ((nu, nu2),) if nu2 == nu else ((nu, nu2), (nu2, nu)):
            pairs += 1
            try:
                d = decompose(left, right, p)
            except IntegrityError as exc:
                failures.append(f"{_tag(left, right)}: {exc}")
                continue
            if d.summands is not read:
                read, kinds = d.summands, dict.fromkeys(KINDS, 0)
                for s in read:
                    kinds[s.kind] += s.multiplicity
                if run_verify:
                    tally = _tally(read, _case(left, right, p), p, nu, nu2)
            for kind, n in kinds.items():
                counts[kind] += n
            m_pairs += kinds["M"] > 0  # multiplicities are positive
            if run_verify:
                failures += [f"{_tag(left, right)}: {c.name} {c.detail}"
                             for c in _verify(d, tally, mirror).failures()]
    return SweepResult(p, pairs, counts, m_pairs, failures)


def _merge(p: int, parts) -> SweepResult:
    """The sum of sweep tallies, failures sorted; the one aggregation of
    both the serial and the pooled sweep."""
    total = SweepResult(p, 0, dict.fromkeys(KINDS, 0), 0, [])
    for part in parts:
        total.pairs += part.pairs
        for kind, n in part.summand_counts.items():
            total.summand_counts[kind] += n
        total.m_pairs += part.m_pairs
        total.failures += part.failures
    total.failures.sort()
    return total


def sweep(p: int, run_verify: bool = True, jobs: int = 1) -> SweepResult:
    """Decompose and verify all p^2 x p^2 restricted pairs on at most
    ``jobs`` worker processes (capped by the CPU count).  There is one task
    per restricted nu; it covers the pairs {nu, nu2} with nu2 >= nu in both
    orders (see ``_sweep_row``), so the tasks shrink from 2p^2 - 1 ordered
    pairs for (0, 0) to one for (p-1, p-1)."""
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"expected a worker count >= 1, got {jobs!r}")
    _check_prime(p)
    tasks = [(p, nu, run_verify) for nu in restricted_weights(p)]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return _merge(p, map(_sweep_row, tasks))

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(p, pool.map(_sweep_row, tasks))
