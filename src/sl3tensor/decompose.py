"""Decomposition of tensor products of restricted simple modules.

The driver follows the character algorithm: expand the product of two simple
characters through the Littlewood-Richardson rule, split the result into
linkage blocks, and resolve each block (one routine, ``_resolve_block``)
greedily against tilting characters.  When both factors lie in the second
alcove, the four lowest linked weights of a regular block (alcoves 3, 3', 2,
1) are withheld from the greedy pass and resolved by a closed-form linear
solve whose basis adds the non-highest-weight module M; when exactly one
factor lies in the second alcove, maximal second-alcove support is matched by
simple characters instead.  Both greedy passes run ``weylchar.peel``.
Any negative coefficient, non-integral solve, or nonzero remainder is
reported as an integrity failure naming the offending block.
:func:`decompose` is memoized by ``functools.lru_cache``
(``decompose.cache_info()``), and so is ``_resolve_block``, keyed on the
block's representative, its flat coefficient items, the case and p: a sweep
resolves each distinct block once.  Results and the characters behind them
are immutable, so a memoized decomposition cannot be altered by its callers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .alcoves import OUT, _facet_table, classify, is_restricted, restricted_weights
from .modchar import (
    floor_weights,
    m_char,
    simple_char,
    simple_dim,
    tilting_char,
    to_simple_basis,
)
from .weights import Weight, is_dominant, pairings, tau
from .weylchar import Character, mult, peel, sort_key

KINDS = ("T", "L", "M")


class IntegrityError(RuntimeError):
    """The character bookkeeping failed; carries the offending block."""

    def __init__(self, message: str, block: Optional[Weight] = None):
        super().__init__(message)
        self.block = block


@dataclass(frozen=True)
class Summand:
    kind: str  # "T", "L" or "M"
    weight: Weight
    multiplicity: int

    def __str__(self) -> str:
        text = f"{self.kind}({self.weight[0]},{self.weight[1]})"
        if self.multiplicity != 1:
            text = f"{self.multiplicity}*{text}"
        return text


@dataclass(frozen=True)
class Decomposition:
    p: int
    left: Weight
    right: Weight
    case: int
    summands: Tuple[Summand, ...]
    dim_product: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lhs": list(self.left),
            "rhs": list(self.right),
            "case": self.case,
            "summands": [
                {"kind": s.kind, "weight": list(s.weight), "mult": s.multiplicity}
                for s in self.summands
            ],
            "dim": self.dim_product,
        }

    def __str__(self) -> str:
        return " + ".join(str(s) for s in self.summands) or "0"


# Weyl-basis character of one copy of each summand kind.  The names are
# looked up at call time, so a wrapped (say, traced) function is seen.
_KIND_CHAR = {"T": lambda w, p: tilting_char(w, p),
              "L": lambda w, p: simple_char(w, p),
              "M": lambda w, p: m_char(w, p, basis="weyl")}


def summands_char(summands: Sequence[Summand], p: int) -> Character:
    """Weyl-basis character of the direct sum of the summands."""
    terms = []
    for s in summands:
        if s.kind not in _KIND_CHAR:
            raise ValueError(f"unknown summand kind {s.kind!r}")
        terms.append((s.multiplicity, _KIND_CHAR[s.kind](s.weight, p)))
    return Character("weyl").combine(terms)


@lru_cache(maxsize=None)
def _kind_dim(kind: str, w: Weight, p: int) -> int:
    return _KIND_CHAR[kind](w, p).dimension()


def summand_dim(s: Summand, p: int) -> int:
    return s.multiplicity * _kind_dim(s.kind, s.weight, p)


def _check_prime(p: int) -> None:
    if p < 5 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be a prime >= 5, got {p}")


def tensor_char(nu: Weight, nu2: Weight, p: int) -> Character:
    """Weyl-basis character of the product of the two simple modules."""
    _check_prime(p)
    for w in (nu, nu2):
        if not is_restricted(w, p):
            raise ValueError(f"weight {w} is not restricted for p={p}")
    return mult(simple_char(nu, p), simple_char(nu2, p))


def split_blocks(c: Character, p: int) -> Dict[Weight, Character]:
    """Partition a Weyl-basis character into linkage blocks.

    Keys are the canonical linkage representatives of the support.
    """
    return {rep: Character._trusted("weyl", coeffs)
            for rep, coeffs in _buckets(c, p).items()}


def _buckets(c: Character, p: int) -> Dict[Weight, Dict[Weight, int]]:
    """The coefficients of each linkage block, keyed by its representative."""
    if c.basis != "weyl":
        raise ValueError("expected a weyl-basis character")
    table = _facet_table(p)[0]  # holds every weight of the region
    buckets: Dict[Weight, Dict[Weight, int]] = {}
    for w, k in c.coeffs.items():
        facet, rep = table.get(w, (OUT, None))
        if facet == OUT:
            raise ValueError(f"support weight {w} outside the region for p={p}")
        buckets.setdefault(rep, {})[w] = k
    return buckets


def _greedy(block: Character, p: int, kind_at, floor=frozenset()):
    """Peel ``kind_at(lead)`` characters ("T" or "L") off a block."""
    summands: List[Summand] = []

    def expand(lead: Weight, k: int):
        if k < 0:
            raise IntegrityError(
                f"negative multiplicity {k} at {lead} during greedy pass",
                block=lead,
            )
        kind = kind_at(lead)
        summands.append(Summand(kind, lead, k))
        return _KIND_CHAR[kind](lead, p).coeffs.items()

    _, remaining = peel(block.coeffs, expand, floor)
    return summands, Character._trusted("weyl", remaining)


def greedy_tilting(
    block: Character, p: int, floor: FrozenSet[Weight] = frozenset()
) -> Tuple[List[Summand], Character]:
    """Strip tilting characters off the top of a block.

    Repeatedly subtracts the full multiplicity of the maximal support weight
    outside ``floor`` (order: decreasing (t, r)); stops once the support is
    contained in the floor.  A negative multiplicity is an integrity error.
    """
    return _greedy(block, p, lambda lead: "T", floor)


def case3_floor_solve(a3: int, a3p: int, a2: int, a1: int) -> Tuple[int, int, int, int]:
    """Resolve a regular-block floor in the basis of the three tilting
    characters at the floor together with M plus its simple companion.

    Solves x + w = a3, y + w = a3p, 2x + 2y + z + 2w = a2,
    x + y + 2z + 2w = a1 for nonnegative integers.  Infeasibility is an
    integrity error.
    """
    # z from combining the last two equations, then w from the third.
    num_z = a1 - a3 - a3p
    if num_z % 2:
        raise IntegrityError("floor solve is non-integral")
    z = num_z // 2
    num_w = z - a2 + 2 * a3 + 2 * a3p
    if num_w % 2:
        raise IntegrityError("floor solve is non-integral")
    w = num_w // 2
    x = a3 - w
    y = a3p - w
    solution = (x, y, z, w)
    if any(v < 0 for v in solution):
        raise IntegrityError(f"floor solve has negative part {solution}")
    return solution


def _is_regular_rep(rep: Weight, p: int) -> bool:
    return all(n % p for n in pairings(rep))


@lru_cache(maxsize=None)
def _resolve_block(rep: Weight, items: Tuple, case: int, p: int) -> Tuple[Summand, ...]:
    """Summands of the linkage block of ``rep`` with coefficients ``items``
    (flat: w0, k0, w1, k1, ...): case 2 matches maximal second-alcove
    weights by simples, else tiltings peel down to the floor (the floor
    weights of a regular case-3 block, otherwise empty), and
    :func:`case3_floor_solve` resolves what is left on the floor."""
    block = Character._trusted("weyl", dict(zip(items[::2], items[1::2])))
    floor = floor_weights(rep, p) if case == 3 and _is_regular_rep(rep, p) else ()
    if case == 2:
        summands, residual = _greedy(
            block, p, lambda lead: "L" if classify(lead, p) == "C2" else "T")
    else:
        summands, residual = greedy_tilting(block, p, frozenset(floor))
    if not residual:
        return tuple(summands)
    if not floor:
        raise IntegrityError(
            f"nonzero remainder {residual.coeffs} in block {rep}", block=rep
        )
    simple = to_simple_basis(residual, p)
    extra = set(simple.coeffs) - set(floor)
    if extra:
        raise IntegrityError(
            f"floor residual has support {sorted(extra)} off the floor",
            block=rep,
        )
    try:
        x, y, z, w = case3_floor_solve(*(simple.coeffs.get(mu, 0) for mu in floor))
    except IntegrityError as exc:
        raise IntegrityError(f"{exc} in block {rep}", block=rep) from exc
    mu3, mu3p, mu2, mu1 = floor
    for kind, mu, k in (("T", mu3, x), ("T", mu3p, y), ("T", mu2, z),
                        ("M", mu2, w), ("T", mu1, w)):
        if k:
            summands.append(Summand(kind, mu, k))
    return tuple(summands)


@lru_cache(maxsize=None)
def decompose(nu: Weight, nu2: Weight, p: int) -> Decomposition:
    """Decompose the tensor product of two restricted simple modules."""
    total = tensor_char(nu, nu2, p)
    in_c2 = (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
    case = 1 + in_c2

    blocks = _buckets(total, p)
    summands = [s for rep in sorted(blocks) for s in _resolve_block(
        rep, tuple(chain.from_iterable(blocks[rep].items())), case, p)]

    # kinds and weights are distinct and multiplicities positive: blocks
    # are disjoint and every step records a lead once
    summands.sort(key=lambda s: (sort_key(s.weight), s.kind))
    result = Decomposition(
        p=p,
        left=nu,
        right=nu2,
        case=case,
        summands=tuple(summands),
        dim_product=simple_dim(nu, p) * simple_dim(nu2, p),
    )
    _assert_character_sum(result, total)
    return result


def _assert_character_sum(d: Decomposition, total: Character) -> None:
    if summands_char(d.summands, d.p) != total:
        raise IntegrityError(
            f"summand characters do not sum to the tensor character for "
            f"{d.left} x {d.right}, p={d.p}"
        )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    checks: List[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))

    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]


def _misshapen(s: Summand, p: int) -> str:
    """Why a summand cannot occur in a decomposition; empty if it can."""
    facet = classify(s.weight, p) if is_dominant(s.weight) else OUT
    if s.kind not in KINDS or s.multiplicity <= 0 or facet == OUT:
        return str(s)
    return f"{s} at facet {facet}" if s.kind != "T" and facet != "C2" else ""


def verify(d: Decomposition) -> Report:
    """Re-check a decomposition: character sum, dimension count, summand
    shape, and equivariance under the diagram involution.  A misshapen
    summand fails the first two checks without computing them."""
    report = Report()
    p = d.p

    bad = next(filter(None, (_misshapen(s, p) for s in d.summands)), "")
    if bad:
        report.add("character-sum", False, f"misshapen summand {bad}")
        report.add("dimension", False, f"misshapen summand {bad}")
    else:
        total = tensor_char(d.left, d.right, p)
        report.add("character-sum", summands_char(d.summands, p) == total)
        dims = sum(summand_dim(s, p) for s in d.summands)
        report.add("dimension", dims == d.dim_product,
                   f"{dims} vs {d.dim_product}")
    report.add("summand-shape", not bad, bad)

    try:
        mirrored = decompose(tau(d.right), tau(d.left), p)
        expect = sorted(
            (s.kind, tau(s.weight), s.multiplicity) for s in d.summands
        )
        got = sorted((s.kind, s.weight, s.multiplicity) for s in mirrored.summands)
        report.add("tau-equivariance", expect == got)
    except IntegrityError as exc:
        report.add("tau-equivariance", False, str(exc))

    return report


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    p: int
    pairs: int
    summand_counts: Dict[str, int]
    m_pairs: int
    failures: List[str]

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


def _pair_result(p: int, nu: Weight, nu2: Weight, run_verify: bool) -> SweepResult:
    """The sweep tally of one pair."""
    tag = f"{nu[0]},{nu[1]} x {nu2[0]},{nu2[1]}"
    try:
        d = decompose(nu, nu2, p)
    except IntegrityError as exc:
        return SweepResult(p, 1, {}, 0, [f"{tag}: {exc}"])
    counts = dict.fromkeys(KINDS, 0)
    for s in d.summands:
        counts[s.kind] += s.multiplicity
    has_m = any(s.kind == "M" for s in d.summands)
    failures = [f"{tag}: M summand outside case 3"] if has_m and d.case != 3 else []
    if run_verify:
        failures += [f"{tag}: {c.name} {c.detail}" for c in verify(d).failures()]
    return SweepResult(p, 1, counts, int(has_m), failures)


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


def _sweep_pairs(p: int, pairs, run_verify: bool) -> SweepResult:
    return _merge(p, (_pair_result(p, nu, nu2, run_verify) for nu, nu2 in pairs))


def sweep(p: int, run_verify: bool = True, jobs: int = 1) -> SweepResult:
    """Decompose and verify all p^2 x p^2 restricted pairs, on at most
    ``jobs`` worker processes (capped by the CPU count)."""
    _check_prime(p)
    weights = restricted_weights(p)
    pairs = [(nu, nu2) for nu in weights for nu2 in weights]
    chunks = [[(nu, nu2) for nu2 in weights] for nu in weights]
    workers = min(jobs, os.cpu_count() or 1, len(chunks))
    if workers <= 1:
        return _sweep_pairs(p, pairs, run_verify)

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge(p, pool.map(_sweep_worker, [(p, chunk, run_verify) for chunk in chunks]))


def _sweep_worker(args) -> SweepResult:
    p, chunk, run_verify = args
    return _sweep_pairs(p, chunk, run_verify)
