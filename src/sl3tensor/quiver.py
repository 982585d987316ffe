"""Finite-dimensional quotient path-algebra engine over exact rationals.

Paths compose left to right: ``p.q`` means p then q, so a relation like
``a.a'.a`` types 1 -> 2 -> 1 -> 2.  The opposite convention silently
transposes every structural statement, so all inputs here use this one.

Relations must be homogeneous (all paths in a relation share length as well
as endpoints); the algebra is then graded and the basis saturation can stop
at the first empty degree.  Non-stabilization within the length bound is
reported, never guessed.

Modules are quiver representations with one exact rational matrix per arrow;
everything downstream (Loewy series, duals, quotients, hom spaces,
coefficient quivers) is exact linear algebra over Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Path = Tuple[str, ...]
Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]  # rows; shape (dim_target, dim_source)


# ---------------------------------------------------------------------------
# exact dense linear algebra over Fractions
# ---------------------------------------------------------------------------

def _rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: List[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _null_space(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[Vector]:
    """Basis of the right kernel {v : R v = 0}."""
    reduced, pivots = _rref([list(r) for r in rows])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return basis


def _mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return tuple(tuple() for _ in a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def _zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(ncols)) for _ in range(nrows))


def _span_basis(vectors: Sequence[Sequence[Fraction]]) -> List[Vector]:
    reduced, _ = _rref([list(v) for v in vectors])
    return [tuple(r) for r in reduced]


def _subspace_eq(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    ra, pa = _rref([list(v) for v in a])
    rb, pb = _rref([list(v) for v in b])
    return ra == rb and pa == pb


def _solve_in_basis(basis: Sequence[Vector], target: Sequence[Fraction]) -> Optional[Vector]:
    """Coefficients expressing target in the given linearly independent basis."""
    if not basis:
        return tuple() if not any(target) else None
    ncols = len(target)
    rows = [[basis[j][i] for j in range(len(basis))] + [target[i]] for i in range(ncols)]
    reduced, pivots = _rref(rows)
    if len(basis) in pivots:  # inconsistent
        return None
    coeffs = [Fraction(0)] * len(basis)
    for row, pc in zip(reduced, pivots):
        coeffs[pc] = row[-1]
    return tuple(coeffs)


def _det(m: Matrix) -> Fraction:
    n = len(m)
    rows = [list(r) for r in m]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = rows[i][col] * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return det


# ---------------------------------------------------------------------------
# quivers, presentations, relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


class Quiver:
    def __init__(self, arrows: Sequence[Arrow], vertices: Sequence[str] = ()):
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        self.arrows: Tuple[Arrow, ...] = tuple(arrows)
        seen = dict.fromkeys(
            list(vertices) + [v for a in arrows for v in (a.src, a.tgt)]
        )
        self.vertices: Tuple[str, ...] = tuple(seen)
        self.by_name: Dict[str, Arrow] = {a.name: a for a in self.arrows}
        self.out: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        self.into: Dict[str, List[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out[a.src].append(a)
            self.into[a.tgt].append(a)

    def path_ends(self, path: Path, start: str) -> str:
        v = start
        for name in path:
            arrow = self.by_name[name]
            if arrow.src != v:
                raise ValueError(f"path {'.'.join(path)} breaks at {name}")
            v = arrow.tgt
        return v


Relation = Tuple[Tuple[int, Path], ...]  # sum of coeff * path, = 0


class Presentation:
    """Quiver with homogeneous relations and an optional duality pairing."""

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Relation],
        duality: Optional[Dict[str, str]] = None,
    ):
        self.quiver = quiver
        self.relations: List[Relation] = []
        for rel in relations:
            if not rel:
                continue
            ends = set()
            lengths = set()
            for _, path in rel:
                if not path:
                    raise ValueError("empty path in relation")
                src = quiver.by_name[path[0]].src
                ends.add((src, quiver.path_ends(path, src)))
                lengths.add(len(path))
            if len(ends) != 1:
                raise ValueError(f"relation paths disagree on endpoints: {rel}")
            if len(lengths) != 1:
                raise ValueError(f"relation is not homogeneous: {rel}")
            self.relations.append(tuple(rel))
        self.duality: Optional[Dict[str, str]] = None
        if duality is not None:
            pairing = dict(duality)
            for a, b in list(pairing.items()):
                pairing.setdefault(b, a)
            for a, b in pairing.items():
                if pairing.get(b) != a:
                    raise ValueError("duality pairing is not an involution")
                ar, br = quiver.by_name[a], quiver.by_name[b]
                if (ar.src, ar.tgt) != (br.tgt, br.src):
                    raise ValueError(f"pairing {a} ~ {b} does not reverse direction")
            self.duality = pairing


def parse_presentation(text: str, duality: Optional[Dict[str, str]] = None) -> Presentation:
    """Parse the plain text format: one ``name: src -> tgt`` line per arrow,
    then relations ``p1 - p2 + p3 = 0`` with dot-separated paths."""
    arrows: List[Arrow] = []
    relation_lines: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line and ":" in line and "=" not in line:
            name, spec = line.split(":", 1)
            src, tgt = spec.split("->")
            arrows.append(Arrow(name.strip(), src.strip(), tgt.strip()))
        elif "=" in line:
            relation_lines.append(line)
        else:
            raise ValueError(f"cannot parse line {line!r}")
    quiver = Quiver(arrows)
    relations = [_parse_relation(line) for line in relation_lines]
    return Presentation(quiver, relations, duality)


def _parse_relation(line: str) -> Relation:
    lhs, rhs = line.split("=")
    if rhs.strip() != "0":
        raise ValueError(f"relations must end in '= 0': {line!r}")
    terms: List[Tuple[int, Path]] = []
    pieces = lhs.replace("-", " - ").replace("+", " + ").split()
    sign = 1
    for piece in pieces:
        if piece == "+":
            sign = 1
        elif piece == "-":
            sign = -1
        else:
            terms.append((sign, tuple(piece.split("."))))
            sign = 1
    return tuple(terms)


# ---------------------------------------------------------------------------
# graded basis of the quotient algebra
# ---------------------------------------------------------------------------

@dataclass
class PathAlgebra:
    """Basis of a path algebra modulo homogeneous relations.

    Saturates degree by degree: the degree-d component is the span of raw
    paths of length d modulo all ideal elements u * relation * v of total
    length d.  For a graded algebra the first empty degree ends the
    computation; failing to reach one within the bound leaves ``stabilized``
    false (the algebra may be infinite-dimensional) and module constructors
    refuse to run.
    """

    pres: Presentation
    length_bound: int = 8
    stabilized: bool = field(init=False, default=False)
    max_length: int = field(init=False, default=0)
    basis_paths: Dict[int, List[Tuple[str, Path]]] = field(init=False, default_factory=dict)
    _reduction: Dict[Tuple[str, Path], Dict[Tuple[str, Path], Fraction]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self):
        if self.length_bound < 1:
            raise ValueError("length bound must be >= 1")
        q = self.pres.quiver
        raw: Dict[int, List[Tuple[str, Path]]] = {
            0: [(v, ()) for v in q.vertices]
        }
        self.basis_paths[0] = list(raw[0])
        for (v, path) in raw[0]:
            self._reduction[(v, path)] = {(v, path): Fraction(1)}
        for d in range(1, self.length_bound + 1):
            raw[d] = [
                (src, path + (a.name,))
                for (src, path) in raw[d - 1]
                for a in q.out[q.path_ends(path, src)]
            ]
            index = {p: i for i, p in enumerate(raw[d])}
            rows: List[List[Fraction]] = []
            for rel in self.pres.relations:
                rel_len = len(rel[0][1])
                rel_src = q.by_name[rel[0][1][0]].src
                rel_tgt = q.path_ends(rel[0][1], rel_src)
                for d1 in range(d - rel_len + 1):
                    d2 = d - rel_len - d1
                    lefts = [
                        (s, pth) for (s, pth) in raw[d1]
                        if q.path_ends(pth, s) == rel_src
                    ]
                    rights = [
                        (s, pth) for (s, pth) in raw[d2] if s == rel_tgt
                    ]
                    for (ls, lp) in lefts:
                        for (_, rp) in rights:
                            row = [Fraction(0)] * len(raw[d])
                            for coeff, mid in rel:
                                row[index[(ls, lp + mid + rp)]] += coeff
                            rows.append(row)
            reduced, pivots = _rref(rows)
            pivot_set = set(pivots)
            basis = [p for i, p in enumerate(raw[d]) if i not in pivot_set]
            self.basis_paths[d] = basis
            for p in basis:
                self._reduction[p] = {p: Fraction(1)}
            for row, pc in zip(reduced, pivots):
                expr: Dict[Tuple[str, Path], Fraction] = {}
                for j, coeff in enumerate(row):
                    if j != pc and coeff != 0:
                        expr[raw[d][j]] = -coeff
                self._reduction[raw[d][pc]] = expr
            if not basis:
                self.stabilized = True
                self.max_length = d - 1
                break
        else:
            self.max_length = self.length_bound
        if self.stabilized:
            self.basis_paths = {
                d: b for d, b in self.basis_paths.items() if b
            }

    @property
    def dimension(self) -> int:
        if not self.stabilized:
            raise RuntimeError(
                f"algebra did not stabilize within length {self.length_bound}; "
                "it may be infinite-dimensional"
            )
        return sum(len(b) for b in self.basis_paths.values())

    def reduce(self, src: str, path: Path) -> Dict[Tuple[str, Path], Fraction]:
        """Express a raw path in the chosen basis (empty dict = zero)."""
        key = (src, path)
        if key in self._reduction:
            return self._reduction[key]
        if self.stabilized and len(path) > self.max_length:
            return {}
        raise KeyError(f"path of length {len(path)} beyond computed range")

    def projective(self, vertex: str) -> "FDModule":
        """Projective right module at a vertex: span of basis paths from it."""
        if not self.stabilized:
            raise RuntimeError("algebra basis did not stabilize")
        q = self.pres.quiver
        by_vertex: Dict[str, List[Tuple[str, Path]]] = {v: [] for v in q.vertices}
        for d in sorted(self.basis_paths):
            for (s, path) in self.basis_paths[d]:
                if s == vertex:
                    by_vertex[q.path_ends(path, s)].append((s, path))
        dims = {v: len(by_vertex[v]) for v in q.vertices}
        pos = {p: i for v in q.vertices for i, p in enumerate(by_vertex[v])}
        mats: Dict[str, Matrix] = {}
        for a in q.arrows:
            rows = [[Fraction(0)] * dims[a.src] for _ in range(dims[a.tgt])]
            for (s, path) in by_vertex[a.src]:
                col = pos[(s, path)]
                for target, coeff in self.reduce(s, path + (a.name,)).items():
                    rows[pos[target]][col] += coeff
            mats[a.name] = tuple(tuple(r) for r in rows)
        labels = {
            v: [".".join(path) if path else f"e{s}" for (s, path) in by_vertex[v]]
            for v in q.vertices
        }
        module = FDModule(self.pres, dims, mats, basis_labels=labels)
        module.generator = (vertex, 0)
        module.check_relations()
        return module


# ---------------------------------------------------------------------------
# finite-dimensional modules
# ---------------------------------------------------------------------------

class FDModule:
    """Representation of a presentation: a space per vertex, a matrix per
    arrow (shape target x source), satisfying every relation exactly."""

    def __init__(
        self,
        pres: Presentation,
        dims: Dict[str, int],
        mats: Dict[str, Matrix],
        basis_labels: Optional[Dict[str, List[str]]] = None,
    ):
        self.pres = pres
        self.dims = {v: int(dims.get(v, 0)) for v in pres.quiver.vertices}
        self.mats = {}
        for a in pres.quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                m = _zero_matrix(self.dims[a.tgt], self.dims[a.src])
            m = tuple(tuple(Fraction(x) for x in row) for row in m)
            if len(m) != self.dims[a.tgt] or any(
                len(row) != self.dims[a.src] for row in m
            ):
                raise ValueError(f"matrix shape mismatch on arrow {a.name}")
            self.mats[a.name] = m
        self.basis_labels = basis_labels
        self.generator: Optional[Tuple[str, int]] = None

    # -- basics -----------------------------------------------------------
    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def path_matrix(self, src: str, path: Path) -> Matrix:
        self.pres.quiver.path_ends(path, src)  # validates the path
        m = _identity(self.dims[src])
        for name in path:
            m = _mat_mul(self.mats[name], m)
        return m

    def check_relations(self) -> None:
        q = self.pres.quiver
        for rel in self.pres.relations:
            src = q.by_name[rel[0][1][0]].src
            tgt = q.path_ends(rel[0][1], src)
            acc = _zero_matrix(self.dims[tgt], self.dims[src])
            for coeff, path in rel:
                pm = self.path_matrix(src, path)
                acc = tuple(
                    tuple(x + coeff * y for x, y in zip(row_a, row_p))
                    for row_a, row_p in zip(acc, pm)
                )
            if any(any(row) for row in acc):
                raise AssertionError(f"relation violated: {rel}")

    def eval_path_combo(self, combo: Sequence[Tuple[int, Path]]) -> Tuple[str, Vector]:
        """Evaluate a path combination on the module generator."""
        if self.generator is None:
            raise ValueError("module carries no generator; build it as a projective")
        gv, gi = self.generator
        q = self.pres.quiver
        tgt = None
        acc: Optional[List[Fraction]] = None
        for coeff, path in combo:
            end = q.path_ends(path, gv)
            if tgt is None:
                tgt = end
                acc = [Fraction(0)] * self.dims[end]
            elif end != tgt:
                raise ValueError("paths in the combination end at different vertices")
            unit = [Fraction(0)] * self.dims[gv]
            unit[gi] = Fraction(1)
            image = _mat_vec(self.path_matrix(gv, path), unit)
            acc = [a + coeff * b for a, b in zip(acc, image)]
        if tgt is None:
            raise ValueError("empty path combination")
        return tgt, tuple(acc)

    # -- submodules, quotients, series -------------------------------------
    def _full_spaces(self) -> Dict[str, List[Vector]]:
        return {
            v: [tuple(row) for row in _identity(self.dims[v])]
            for v in self.pres.quiver.vertices
        }

    def _radical_of(self, spaces: Dict[str, List[Vector]]) -> Dict[str, List[Vector]]:
        q = self.pres.quiver
        images: Dict[str, List[Vector]] = {v: [] for v in q.vertices}
        for a in q.arrows:
            for vec in spaces[a.src]:
                images[a.tgt].append(_mat_vec(self.mats[a.name], vec))
        return {
            v: _span_basis(images[v]) for v in q.vertices
        }

    def radical_series(self) -> List[Dict[str, List[Vector]]]:
        """Chain M = R^0 > R^1 > ... > R^len = 0 (the zero term omitted)."""
        series = [self._full_spaces()]
        while any(series[-1][v] for v in series[-1]):
            series.append(self._radical_of(series[-1]))
        return series[:-1]

    def socle_series(self) -> List[Dict[str, List[Vector]]]:
        """Chain 0 < S^1 < ... < S^len = M (the zero term omitted)."""
        q = self.pres.quiver
        series: List[Dict[str, List[Vector]]] = []
        current: Dict[str, List[Vector]] = {v: [] for v in q.vertices}
        while True:
            annihilators = {
                v: _null_space(
                    [list(vec) for vec in current[v]], self.dims[v]
                )
                for v in q.vertices
            }
            nxt: Dict[str, List[Vector]] = {}
            for x in q.vertices:
                rows: List[List[Fraction]] = []
                for a in q.out[x]:
                    for ann in annihilators[a.tgt]:
                        rows.append(
                            [
                                sum(ann[i] * self.mats[a.name][i][j]
                                    for i in range(self.dims[a.tgt]))
                                for j in range(self.dims[x])
                            ]
                        )
                nxt[x] = _null_space(rows, self.dims[x]) if rows else [
                    tuple(row) for row in _identity(self.dims[x])
                ]
            series.append(nxt)
            if all(len(nxt[v]) == self.dims[v] for v in q.vertices):
                return series
            current = nxt

    def loewy(self) -> Tuple[List[Dict[str, int]], List[Dict[str, int]], bool]:
        """(radical layers, socle layers, rigid?).

        Layer i of the radical list is rad^{i-1}/rad^i, top down; layer i of
        the socle list is soc^i/soc^{i-1}, bottom up.  Rigid means the two
        filtrations coincide as chains of subspaces.
        """
        rad = self.radical_series()
        soc = self.socle_series()
        rad_layers = []
        for i, spaces in enumerate(rad):
            below = rad[i + 1] if i + 1 < len(rad) else {v: [] for v in spaces}
            layer = {v: len(spaces[v]) - len(below[v]) for v in spaces}
            rad_layers.append({v: n for v, n in layer.items() if n})
        soc_layers = []
        prev: Dict[str, List[Vector]] = {v: [] for v in self.dims}
        for spaces in soc:
            layer = {v: len(spaces[v]) - len(prev[v]) for v in spaces}
            soc_layers.append({v: n for v, n in layer.items() if n})
            prev = spaces
        rigid = len(rad) == len(soc)
        if rigid:
            depth = len(rad)
            for i in range(1, depth):
                # rad^i should equal soc^{depth-i}
                for v in self.dims:
                    if not _subspace_eq(rad[i][v], soc[depth - i - 1][v]):
                        rigid = False
                        break
                if not rigid:
                    break
        return rad_layers, soc_layers, rigid

    def composition_multiset(self) -> Dict[str, int]:
        return {v: d for v, d in self.dims.items() if d}

    def submodule_generated(self, vertex: str, vec: Vector) -> Dict[str, List[Vector]]:
        q = self.pres.quiver
        spaces: Dict[str, List[Vector]] = {v: [] for v in q.vertices}
        if any(vec):
            spaces[vertex] = [vec]
        frontier = [(vertex, vec)]
        while frontier:
            x, v = frontier.pop()
            for a in q.out[x]:
                image = _mat_vec(self.mats[a.name], v)
                if not any(image):
                    continue
                combined = _span_basis(spaces[a.tgt] + [image])
                if len(combined) > len(spaces[a.tgt]):
                    spaces[a.tgt] = combined
                    frontier.append((a.tgt, image))
        return spaces

    def quotient(self, spaces: Dict[str, List[Vector]]) -> "FDModule":
        q = self.pres.quiver
        proj: Dict[str, Matrix] = {}
        section: Dict[str, Matrix] = {}
        new_dims: Dict[str, int] = {}
        for v in q.vertices:
            reduced, pivots = _rref([list(x) for x in spaces[v]])
            free = [c for c in range(self.dims[v]) if c not in pivots]
            new_dims[v] = len(free)
            # projection: v -> coordinates at the free indices after killing
            # the pivot components
            rows = []
            for f in free:
                row = [Fraction(0)] * self.dims[v]
                row[f] = Fraction(1)
                for rr, pc in zip(reduced, pivots):
                    row[pc] = -rr[f]
                rows.append(tuple(row))
            proj[v] = tuple(rows)
            section[v] = tuple(
                tuple(Fraction(1 if i == f else 0) for f in free)
                for i in range(self.dims[v])
            )
        mats: Dict[str, Matrix] = {}
        for a in q.arrows:
            mats[a.name] = _mat_mul(proj[a.tgt], _mat_mul(self.mats[a.name], section[a.src]))
        out = FDModule(self.pres, new_dims, mats)
        out.check_relations()
        return out

    def quotient_by(self, combo: Sequence[Tuple[int, Path]]) -> "FDModule":
        """Quotient by the submodule generated by a path combination applied
        to the generator; a zero element returns the module unchanged."""
        vertex, vec = self.eval_path_combo(combo)
        if not any(vec):
            return self
        return self.quotient(self.submodule_generated(vertex, vec))

    # -- duality and isomorphism -------------------------------------------
    def contravariant_dual(self) -> "FDModule":
        """Transpose every arrow matrix and swap each arrow with its partner."""
        pairing = self.pres.duality
        if pairing is None:
            raise ValueError("presentation has no duality pairing")
        mats: Dict[str, Matrix] = {}
        for a in self.pres.quiver.arrows:
            partner = self.mats[pairing[a.name]]  # shape (dim_src, dim_tgt)
            mats[a.name] = tuple(
                tuple(partner[j][i] for j in range(self.dims[a.src]))
                for i in range(self.dims[a.tgt])
            )
        out = FDModule(self.pres, dict(self.dims), mats)
        out.check_relations()
        return out


def hom_space(m: FDModule, n: FDModule) -> List[Dict[str, Matrix]]:
    """Basis of the space of module homomorphisms m -> n."""
    if m.pres is not n.pres and m.pres.quiver.vertices != n.pres.quiver.vertices:
        raise ValueError("modules over different presentations")
    q = m.pres.quiver
    offsets: Dict[str, int] = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    rows: List[List[Fraction]] = []
    for a in q.arrows:
        x, y = a.src, a.tgt
        # phi_y * M_a - N_a * phi_x = 0 entrywise
        for i in range(n.dims[y]):
            for j in range(m.dims[x]):
                row = [Fraction(0)] * total
                for k in range(m.dims[y]):
                    row[offsets[y] + i * m.dims[y] + k] += m.mats[a.name][k][j]
                for k in range(n.dims[x]):
                    row[offsets[x] + k * m.dims[x] + j] -= n.mats[a.name][i][k]
                rows.append(row)
    basis = _null_space(rows, total) if rows else [
        tuple(row) for row in _identity(total)
    ]
    result = []
    for vec in basis:
        phi: Dict[str, Matrix] = {}
        for v in q.vertices:
            phi[v] = tuple(
                tuple(vec[offsets[v] + i * m.dims[v] + j] for j in range(m.dims[v]))
                for i in range(n.dims[v])
            )
        result.append(phi)
    return result


def is_isomorphic(m: FDModule, n: FDModule, size_cutoff: int = 14) -> bool:
    """Exact isomorphism test by hom-space search.

    The product of the per-vertex determinants is a polynomial on the hom
    space; evaluating it on an integer grid one larger than its per-variable
    degree decides whether an invertible homomorphism exists.  Declared
    inapplicable above the size cutoff.
    """
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    if m.total_dim > size_cutoff:
        raise ValueError(f"isomorphism search limited to dimension {size_cutoff}")
    basis = hom_space(m, n)
    if not basis:
        return False
    degree = m.total_dim
    if len(basis) > 5:
        raise ValueError("hom space too large for the grid search")
    for coeffs in itertools.product(range(degree + 1), repeat=len(basis)):
        invertible = True
        for v in m.pres.quiver.vertices:
            if m.dims[v] == 0:
                continue
            block = tuple(
                tuple(
                    sum(c * phi[v][i][j] for c, phi in zip(coeffs, basis))
                    for j in range(m.dims[v])
                )
                for i in range(m.dims[v])
            )
            if _det(block) == 0:
                invertible = False
                break
        if invertible:
            return True
    return False


# ---------------------------------------------------------------------------
# coefficient quivers
# ---------------------------------------------------------------------------

@dataclass
class CoefficientQuiver:
    nodes: List[Tuple[str, str]]  # (vertex, label)
    edges: List[Tuple[str, str, str, Fraction]]  # (arrow, from label, to label, coeff)

    def edge_set(self) -> set:
        return {(a, u, v) for a, u, v, _ in self.edges}

    def to_dot(self, title: str = "coefficient quiver") -> str:
        lines = [f'digraph "{title}" {{', "  node [shape=plaintext];"]
        for vertex, label in self.nodes:
            lines.append(f'  "{label}" [label="{vertex}"];')
        for arrow, u, v, coeff in self.edges:
            decoration = f"{arrow}" if coeff == 1 else f"{arrow} ({coeff})"
            lines.append(f'  "{u}" -> "{v}" [label="{decoration}"];')
        lines.append("}")
        return "\n".join(lines)


def coefficient_quiver(
    module: FDModule, basis: Dict[str, List[Tuple[str, Vector]]]
) -> CoefficientQuiver:
    """Coefficient quiver of a module with respect to a labelled basis.

    ``basis`` maps each vertex to labelled vectors forming a basis of the
    vertex space; an edge (arrow, b, b') appears whenever the matrix entry of
    the arrow between the two basis vectors is nonzero.
    """
    q = module.pres.quiver
    nodes: List[Tuple[str, str]] = []
    for v in q.vertices:
        vecs = basis.get(v, [])
        if len(vecs) != module.dims[v]:
            raise ValueError(f"basis at vertex {v} has wrong size")
        if vecs:
            reduced, _ = _rref([list(x) for _, x in vecs])
            if len(reduced) != module.dims[v]:
                raise ValueError(f"vectors at vertex {v} are not a basis")
        nodes.extend((v, label) for label, _ in vecs)
    edges: List[Tuple[str, str, str, Fraction]] = []
    for a in q.arrows:
        target_basis = basis.get(a.tgt, [])
        target_vectors = [vec for _, vec in target_basis]
        for label, vec in basis.get(a.src, []):
            image = _mat_vec(module.mats[a.name], vec)
            coords = _solve_in_basis(target_vectors, image)
            if coords is None:
                raise AssertionError("image escapes the target basis span")
            for (tlabel, _), coeff in zip(target_basis, coords):
                if coeff:
                    edges.append((a.name, label, tlabel, coeff))
    return CoefficientQuiver(nodes, edges)
