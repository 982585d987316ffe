"""Decomposition of tensor products of restricted simple modules.

The driver follows the character algorithm: expand the product of two simple
characters through the Littlewood-Richardson rule, split the result into
linkage blocks, and resolve each block in facet terms, with no p: rows
derived from the facet expansions of :mod:`~sl3tensor.modchar` write the
Weyl character at each facet in tilting coordinates, and cases 2 and 3 each
change one basis element, read from the same records: L replaces T at the
second alcove when one factor lies there; when both do, the
non-highest-weight module M plus T replaces T at the bottom alcove, which
solves the floor of a regular block (alcoves 3, 3', 2, 1).  Each row and
change asserts at its build that it expands back, so the summands sum to
the block; a negative multiplicity or an infeasible floor solve is an
integrity failure naming the block.  :func:`verify` checks what this did
not compute.  ``Summand(...)`` and ``Decomposition(...)`` check their
fields; ``decompose``, which checks each unordered pair's inputs once, and
``_summand`` build theirs from checked parts with ``_Frozen._trusted``.  Both
products stay the plain ``{weight: int}`` dicts of the kernels of
:mod:`~sl3tensor.weylchar`: the LR one into the block pass (``_buckets``),
the Brauer-Klimyk one as the residue of verify's pass (``_tally``).
Memoized by ``functools.lru_cache``: :func:`decompose`, behind the checks of
``weights._checked_cache``, once per unordered pair; ``_resolve_facets``, on
the case and the block's facet pattern, at every p; the 33 rows, ``_row``,
and the two changes, ``_change``; ``_summand``, one record per summand; and
``_kind_terms``, verify's one lookup per summand.  Results are immutable.
Inputs are checked on entry; later reads of values checked or built here
skip the gates (``.cached``, ``alcoves._placed``, ``_linked``): characters,
dimensions, facets and representatives, the other order and the τ mirror.  A
sweep's ``decompose`` of each order checks.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from typing import Dict, List, Mapping, Optional, Tuple

from .alcoves import OUT, _linked, _placed, classify, is_restricted, restricted_weights
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

    def __init_subclass__(cls, **kwargs):  # the slots' setters, past __setattr__
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, k).__set__ for k in cls.__slots__)

    def _set(self, *values) -> "_Frozen":  # the fields, in slot order
        for setter, v in zip(self._setters, values):
            setter(self, v)
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


# The Weyl character of each summand kind, past the gates
_CACHED_CHAR = {"T": tilting_char.cached, "L": simple_char.cached, "M": m_char.cached}


@lru_cache(maxsize=None)
def _kind_terms(kind: str, w: Weight, p: int) -> Tuple[str, tuple, int]:
    """``(facet, Weyl terms, dimension)`` of the ``kind`` module at ``w`` past
    the gates, for :func:`_tally`; no terms where its shape check refuses the
    summand before reading them: outside the region, and L or M off C2."""
    facet = classify(w, p)  # the public name, which a tracer wraps; a miss only
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
    ``{weight: k}`` product, in its order, keyed by its representative, which
    ``_linked`` maps to weights.  A cancelled, zero term is skipped before
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


def _through(terms, table) -> Dict[str, int]:
    """``(facet, k)`` terms mapped through ``table``'s at each facet, zeros dropped."""
    out: Dict[str, int] = {}
    for g, c in terms:
        for f, k in table(g):
            out[f] = out.get(f, 0) + c * k
    return {f: k for f, k in out.items() if k}


_tilting = partial(_expansion, "T")  # the Weyl factors of T at a facet


@lru_cache(maxsize=None)
def _row(facet: str) -> Tuple[Tuple[str, int], ...]:
    """The Weyl character at ``facet`` in tilting coordinates ``(facet, k)``,
    with no p: T at the facet less the rows of its other Weyl factors.  It
    must expand back to the unit, so a wrongly built row fails here."""
    lower = dict(_tilting(facet))
    assert lower.pop(facet, 0) == 1, f"T at {facet} has no unit lead"
    row = ((facet, 1),) + tuple(_through([(g, -c) for g, c in lower.items()], _row).items())
    expanded = _through(row, _tilting)
    assert expanded == {facet: 1}, f"the row of {facet} expands to {expanded}"
    return row


@lru_cache(maxsize=None)
def _change(case: int) -> Tuple[str, Tuple[Tuple[str, str], ...], Tuple[Tuple[str, int], ...]]:
    """``(pivot, summands, coordinates)``: the summands that replace T at the
    pivot facet in cases 2 and 3, and their sum in tilting coordinates by the
    rows, which must expand back: L(C2) = T(C2) - 2 T(C1), and M + T(C1) =
    T(C3) + T(C3') - 2 T(C2) + 4 T(C1), so the floor solve is w = t1 / 4."""
    pivot, *summands = {2: ("C2", ("L", "C2")), 3: ("C1", ("M", "C2"), ("T", "C1"))}[case]
    weyl = _through([(s, 1) for s in summands], lambda s: _expansion(*s))
    coords = _through(weyl.items(), _row)
    expanded = _through(coords.items(), _tilting)
    assert expanded == weyl, f"the change of case {case}, {coords}, expands to {expanded}"
    return pivot, tuple(summands), tuple(coords.items())


@lru_cache(maxsize=None)
def _resolve_facets(case: int, pattern: Tuple[Tuple[str, int], ...]) -> Tuple[tuple, ...]:
    """The summands ``(kind, facet, k)`` of a block with Weyl coefficients
    ``pattern``: its tilting coordinates by the rows, in the case's basis
    (:func:`_change`).  Only what is not linear is checked: a negative part
    off the case-3 floor raises with its ``(facet, k)`` terms as ``block``,
    for :func:`_resolve_block` to name, then the floor solve's integrality
    and sign."""
    coords = _through(pattern, _row)
    pivot, floor, rest = None, (), 0
    if case > 1:
        pivot, summands, change = _change(case)
        w, rest = divmod(coords.get(pivot, 0), dict(change)[pivot])
        for f, c in change:
            coords[f] = coords.get(f, 0) - w * c
        coords[pivot] = w  # the summands' multiplicity
        floor = FLOOR_FACETS if case == 3 else ()  # the change's support
    negative = [(f, k) for f, k in coords.items() if k < 0 and f not in floor]
    if negative:
        raise IntegrityError("negative", block=negative)
    if rest:
        raise IntegrityError("floor solve is non-integral")  # its failures name no block
    solution = tuple(coords.get(f, 0) for f in floor)
    if min(solution, default=0) < 0:
        raise IntegrityError(f"floor solve has negative part {solution}")
    return tuple((kind, g, k) for f, k in coords.items() if k
                 for kind, g in (summands if f == pivot else (("T", f),)))


@lru_cache(maxsize=None)
def _summand(kind: str, rep: Weight, facet: str, k: int, p: int) -> Summand:
    """One record per summand, shared by every pair; its weight is read at a miss."""
    return Summand._trusted(kind, _linked(rep, facet, p), k)


def _resolve_block(rep: Weight, pattern: Tuple[Tuple[str, int], ...], case: int,
                   p: int) -> List[Summand]:
    """The summands of the block of ``rep`` with the facet ``pattern`` (its
    :func:`_buckets` items), and any failure, named in the class's weights:
    a negative part at its highest weight, a floor solve's by ``rep``."""
    try:
        terms = _resolve_facets(case, pattern)
    except IntegrityError as exc:
        if exc.block is None:  # the floor solve's
            raise IntegrityError(f"{exc} in block {rep}", block=rep) from exc
        parts = {_linked(rep, f, p): k for f, k in exc.block}
        lead = min(parts, key=sort_key)  # the first that a greedy pass from the top meets
        raise IntegrityError(f"negative multiplicity {parts[lead]} at {lead} during greedy pass",
                             block=lead) from None
    return [_summand(kind, rep, f, k, p) for kind, f, k in terms]


def _case(nu: Weight, nu2: Weight, p: int) -> int:  # 1 + the factors at C2; inputs checked
    return 1 + (_placed(nu, p)[1] == "C2") + (_placed(nu2, p)[1] == "C2")


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
    so every order still gets every check.  The body gives the four checks
    as ``(name, ok, detail)`` values, which only this wraps as a ``Report``
    of ``Check``s; a sweep reads them as they are."""
    p = d.p
    report = Report()
    tally = _tally(d.summands, _case(d.left, d.right, p), p, d.left, d.right)
    report.checks = [Check(*c) for c in _verify(d, tally, [None, None])]
    return report


def _tally(summands: Tuple[Summand, ...], case: int, p: int, nu: Weight, nu2: Weight) -> tuple:
    """The one pass of :func:`verify` over ``summands``: the first misshapen
    summand (then the rest is uncomputed), whether a residue is left against
    the Brauer-Klimyk product of the simple characters at ``nu`` and
    ``nu2``, which is the residue's start, the dimension sum, the sorted
    images under the involution and ``case``, the case of the pair, which
    :func:`_verify` reads from here.  T may sit at any facet of the region,
    L only at C2 in case 2 and M only at C2 in case 3.  Neither the case nor
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
    return bad, any(residue.values()), dims, sorted(images), case


def _mirror_images(summands: Tuple[Summand, ...]) -> list:
    """The sorted ``(kind, weight, multiplicity)`` of a mirrored record's summands."""
    return sorted((s.kind, s.weight, s.multiplicity) for s in summands)


def _verify(d: Decomposition, tally: tuple, mirror: list) -> tuple:
    """The body of :func:`verify`: the four checks of ``d`` as plain
    ``(name, ok, detail)`` tuples, character-sum, dimension, summand-shape
    and tau-equivariance, from the ``_tally`` of its summands, which also
    holds the pair's case.  What depends on the order is read here: ``d``'s
    own dimension and recorded case, and the involution's mirrored
    ``decompose``.  ``mirror`` is ``[summands, images]``, the last mirrored
    summands tuple and its :func:`_mirror_images`; they are rebuilt, in
    place, only when the mirrored record holds another tuple, so the two
    orders of a pair, whose mirrors share one tuple, sort it once."""
    bad, leftover, dims, images, case = tally
    uncomputed = bad and f"misshapen summand {bad}"  # no residue or dimension to read
    total = ("character-sum", not (uncomputed or leftover), uncomputed)
    dimension = ("dimension", not uncomputed and dims == d.dim_product,
                 uncomputed or f"{dims} vs {d.dim_product}")
    if not bad and case == 3 and all(kind != "M" for kind, _, _ in images):
        bad = "no M summand in case 3"
    if d.case != case:
        bad = f"case {d.case} recorded, case {case} from the weights"
    shape = ("summand-shape", not bad, bad)
    if uncomputed:
        return total, dimension, shape, ("tau-equivariance", False, uncomputed)

    try:
        mirrored = decompose.cached(tau(d.right), tau(d.left), d.p)
    except IntegrityError as exc:
        return total, dimension, shape, ("tau-equivariance", False, str(exc))
    if mirrored.summands is not mirror[0]:
        mirror[:] = mirrored.summands, _mirror_images(mirrored.summands)
    return total, dimension, shape, ("tau-equivariance", images == mirror[1], "")


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
    way.  Each order gets every check of :func:`verify`, from the same body,
    ``_verify``, read as ``(name, ok, detail)`` values: a failing one is
    formatted as ``verify``'s ``Check`` would be, and no ``Check`` or
    ``Report`` is built."""
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
                failures += [f"{_tag(left, right)}: {name} {detail}"
                             for name, ok, detail in _verify(d, tally, mirror) if not ok]
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
