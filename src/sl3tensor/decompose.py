"""Decomposition of tensor products of restricted simple modules.

The driver follows the character algorithm: expand the product of two simple
characters through the Littlewood-Richardson rule, split the result into
linkage blocks, and resolve each block greedily against tilting characters.
When both factors lie in the second alcove, the four lowest linked weights
of a regular block (alcoves 3, 3', 2, 1) are withheld from the greedy pass
and resolved by a closed-form linear solve whose basis adds the
non-highest-weight module M; when exactly one factor lies in the second
alcove, maximal second-alcove support is matched by simple characters
instead.  Both greedy passes run the one triangular solver, ``weylchar.peel``.
Any negative coefficient, non-integral solve, or nonzero remainder is
reported as an integrity failure naming the offending block.  Results are
immutable, so a memoized decomposition cannot be altered by its callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .alcoves import OUT, canonical_rep, classify, is_restricted, linked_weight
from .modchar import (
    m_char,
    m_dim,
    simple_char,
    simple_dim,
    tilting_char,
    tilting_dim,
    to_simple_basis,
)
from .weights import Weight, pairings, tau
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


# Weyl-basis character of one copy of each summand kind.
_KIND_CHAR = {"T": tilting_char, "L": simple_char,
              "M": lambda w, p: m_char(w, p, basis="weyl")}


def summands_char(summands: Sequence[Summand], p: int) -> Character:
    """Weyl-basis character of the direct sum of the summands."""
    terms = []
    for s in summands:
        if s.kind not in _KIND_CHAR:
            raise ValueError(f"unknown summand kind {s.kind!r}")
        terms.append((s.multiplicity, _KIND_CHAR[s.kind](s.weight, p)))
    return Character("weyl").combine(terms)


def summand_char(s: Summand, p: int) -> Character:
    return summands_char((s,), p)


def summand_dim(s: Summand, p: int) -> int:
    base = {"T": tilting_dim, "L": simple_dim, "M": m_dim}[s.kind]
    return s.multiplicity * base(s.weight, p)


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
    if c.basis != "weyl":
        raise ValueError("expected a weyl-basis character")
    buckets: Dict[Weight, Dict[Weight, int]] = {}
    for w, k in c.coeffs.items():
        if classify(w, p) == OUT:
            raise ValueError(f"support weight {w} outside the region for p={p}")
        buckets.setdefault(canonical_rep(w, p), {})[w] = k
    return {rep: Character("weyl", coeffs) for rep, coeffs in buckets.items()}


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
    return summands, Character("weyl", remaining)


def greedy_tilting(
    block: Character, p: int, floor: FrozenSet[Weight] = frozenset()
) -> Tuple[List[Summand], Character]:
    """Strip tilting characters off the top of a block.

    Repeatedly subtracts the full multiplicity of the maximal support weight
    outside ``floor`` (order: decreasing (t, r)); stops once the support is
    contained in the floor.  A negative multiplicity is an integrity error.
    """
    return _greedy(block, p, lambda lead: "T", floor)


def _greedy_case2(block: Character, p: int) -> Tuple[List[Summand], Character]:
    """Greedy pass that matches maximal second-alcove weights by simples."""
    return _greedy(block, p, lambda lead: "L" if classify(lead, p) == "C2" else "T")


def case3_floor_solve(
    a3: int, a3p: int, a2: int, a1: int,
    present: Sequence[bool] = (True, True, True, True),
) -> Tuple[int, int, int, int]:
    """Resolve a regular-block floor in the basis of the three tilting
    characters at the floor together with M plus its simple companion.

    Solves x + w = a3, y + w = a3p, 2x + 2y + z + 2w = a2,
    x + y + 2z + 2w = a1 for nonnegative integers.  ``present`` masks
    variables whose floor weight does not exist (the corresponding
    coefficient must then be zero).  Infeasibility is an integrity error.
    """
    p3, p3p, p2, p1 = present
    if not (p2 and p1) and (a2 or a1):
        raise IntegrityError("floor coefficients on absent weights")
    if not p3 and a3:
        raise IntegrityError("floor coefficient on absent alcove-3 weight")
    if not p3p and a3p:
        raise IntegrityError("floor coefficient on absent mirror weight")
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
    if (x and not p3) or (y and not p3p) or ((z or w) and not (p2 and p1)):
        raise IntegrityError("floor solve uses an absent weight")
    return solution


def _resolve_case3_regular(
    rep: Weight, block: Character, p: int
) -> List[Summand]:
    anchor = min(block.coeffs, key=sort_key)
    mus = tuple(linked_weight(anchor, f, p) for f in ("C3", "C3p", "C2", "C1"))
    mu3, mu3p, mu2, mu1 = mus
    floor = frozenset(mu for mu in mus if mu is not None)
    summands, residual = greedy_tilting(block, p, floor)
    if residual:
        simple = to_simple_basis(residual, p)
        extra = set(simple.coeffs) - floor
        if extra:
            raise IntegrityError(
                f"floor residual has support {sorted(extra)} off the floor",
                block=rep,
            )

        def coeff(mu: Optional[Weight]) -> int:
            return simple.coeffs.get(mu, 0) if mu is not None else 0

        try:
            x, y, z, w = case3_floor_solve(
                coeff(mu3), coeff(mu3p), coeff(mu2), coeff(mu1),
                present=tuple(mu is not None for mu in mus),
            )
        except IntegrityError as exc:
            raise IntegrityError(f"{exc} in block {rep}", block=rep) from exc
        # the solve leaves every part on an absent weight zero
        for kind, mu, k in (("T", mu3, x), ("T", mu3p, y), ("T", mu2, z),
                            ("M", mu2, w), ("T", mu1, w)):
            if k:
                summands.append(Summand(kind, mu, k))
    return summands


def _is_regular_rep(rep: Weight, p: int) -> bool:
    return all(n % p for n in pairings(rep))


_DECOMPOSE_CACHE: Dict[Tuple[int, Weight, Weight], Decomposition] = {}


def decompose(nu: Weight, nu2: Weight, p: int) -> Decomposition:
    """Decompose the tensor product of two restricted simple modules."""
    key = (p, nu, nu2)
    cached = _DECOMPOSE_CACHE.get(key)
    if cached is not None:
        return cached
    total = tensor_char(nu, nu2, p)
    in_c2 = (classify(nu, p) == "C2") + (classify(nu2, p) == "C2")
    case = 1 + in_c2

    summands: List[Summand] = []
    blocks = split_blocks(total, p)
    for rep in sorted(blocks):
        block = blocks[rep]
        if case == 3 and _is_regular_rep(rep, p):
            got = _resolve_case3_regular(rep, block, p)
        elif case == 2:
            got, residual = _greedy_case2(block, p)
            _require_zero(residual, rep)
        else:
            got, residual = greedy_tilting(block, p)
            _require_zero(residual, rep)
        summands.extend(got)

    merged: Dict[Tuple[str, Weight], int] = {}
    for s in summands:
        merged[(s.kind, s.weight)] = merged.get((s.kind, s.weight), 0) + s.multiplicity
    ordered = [
        Summand(kind, w, m)
        for (kind, w), m in sorted(
            merged.items(), key=lambda item: (sort_key(item[0][1]), item[0][0])
        )
        if m
    ]
    if any(s.multiplicity < 0 for s in ordered):
        raise IntegrityError(f"negative summand multiplicity in {ordered}")

    result = Decomposition(
        p=p,
        left=nu,
        right=nu2,
        case=case,
        summands=tuple(ordered),
        dim_product=simple_dim(nu, p) * simple_dim(nu2, p),
    )
    _assert_character_sum(result, total)
    _DECOMPOSE_CACHE[key] = result
    return result


def _require_zero(residual: Character, rep: Weight) -> None:
    if residual:
        raise IntegrityError(
            f"nonzero remainder {residual.coeffs} in block {rep}", block=rep
        )


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


def verify(d: Decomposition) -> Report:
    """Re-check a decomposition: character sum, dimension count, summand
    shape, and equivariance under the diagram involution."""
    report = Report()
    p = d.p

    total = tensor_char(d.left, d.right, p)
    report.add("character-sum", summands_char(d.summands, p) == total)

    dims = sum(summand_dim(s, p) for s in d.summands)
    report.add("dimension", dims == d.dim_product,
               f"{dims} vs {d.dim_product}")

    shape_ok = True
    detail = ""
    for s in d.summands:
        facet = classify(s.weight, p)
        if s.multiplicity <= 0 or s.kind not in KINDS or facet == OUT:
            shape_ok = False
            detail = str(s)
            break
        if s.kind in ("L", "M") and facet != "C2":
            shape_ok = False
            detail = f"{s} at facet {facet}"
            break
    report.add("summand-shape", shape_ok, detail)

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


def _sweep_pairs(p: int, pairs, run_verify: bool) -> SweepResult:
    counts = {"T": 0, "L": 0, "M": 0}
    m_pairs = 0
    failures: List[str] = []
    for nu, nu2 in pairs:
        tag = f"{nu[0]},{nu[1]} x {nu2[0]},{nu2[1]}"
        try:
            d = decompose(nu, nu2, p)
        except IntegrityError as exc:
            failures.append(f"{tag}: {exc}")
            continue
        has_m = False
        for s in d.summands:
            counts[s.kind] += s.multiplicity
            has_m = has_m or s.kind == "M"
        if has_m:
            m_pairs += 1
            if d.case != 3:
                failures.append(f"{tag}: M summand outside case 3")
        if run_verify:
            report = verify(d)
            for c in report.failures():
                failures.append(f"{tag}: {c.name} {c.detail}")
    return SweepResult(p, len(pairs), counts, m_pairs, sorted(failures))


def sweep(p: int, run_verify: bool = True, jobs: int = 1) -> SweepResult:
    """Decompose and verify all p^2 x p^2 restricted pairs."""
    _check_prime(p)
    weights = [(a, b) for a in range(p) for b in range(p)]
    pairs = [(nu, nu2) for nu in weights for nu2 in weights]
    if jobs <= 1:
        return _sweep_pairs(p, pairs, run_verify)

    from concurrent.futures import ProcessPoolExecutor

    chunks = [
        [(nu, nu2) for nu2 in weights]
        for nu in weights
    ]
    counts = {"T": 0, "L": 0, "M": 0}
    m_pairs = 0
    failures: List[str] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_sweep_worker, [(p, chunk, run_verify) for chunk in chunks]):
            for kind, n in part.summand_counts.items():
                counts[kind] += n
            m_pairs += part.m_pairs
            failures.extend(part.failures)
    return SweepResult(p, len(pairs), counts, m_pairs, sorted(failures))


def _sweep_worker(args) -> SweepResult:
    p, chunk, run_verify = args
    return _sweep_pairs(p, chunk, run_verify)
