"""The order-24 symmetry group of the spatial lattice and its spacetime lift.

Elements are derived from first principles: a symmetry is determined by the
positively oriented triple it sends the basic triple to, so the 24 triples
give the 24 matrices.  Printed labels are attached afterwards by matrix
equality; any printed matrix that is not actually a symmetry is reported in
`ELEMENT_PRINT_DIFFS` and its label is assigned to the unique leftover
derived matrix.  (The published listing misprints exactly one entry.)

The spacetime story is handled here too: the block lift that fixes the time
axis, and a bounded exhaustive search for norm-preserving unit-determinant
maps that move the time axis.  The search is a certificate for whatever it
finds -- notably it *refutes* the published no-boost claim; see the report
fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import paperdata
from .lattice import MINKOWSKI_GRAM, Vec3, Vec4, _det3, inner3_doubled, norm_sq3, triples

__all__ = [
    "GroupElement",
    "GroupTable",
    "BoostCertificate",
    "elements",
    "element",
    "multiply",
    "inverse",
    "apply3",
    "build_table",
    "table_diff_vs_printed",
    "generate_from",
    "verify_subgroups",
    "pairwise_generators",
    "lift_to4",
    "apply4",
    "no_boost_search",
    "preserves_minkowski_form",
    "ELEMENT_PRINT_DIFFS",
]

Matrix3 = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A lattice symmetry: label plus 3x3 integer matrix (columns = images)."""

    label: str
    matrix: Matrix3

    def column(self, j: int) -> Vec3:
        return Vec3(self.matrix[0][j], self.matrix[1][j], self.matrix[2][j])


def _matmul3(a: Matrix3, b: Matrix3) -> Matrix3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def _derive_elements() -> tuple[tuple[GroupElement, ...], tuple[dict, ...]]:
    derived = [t.matrix() for t in triples()]
    derived_set = set(derived)
    if len(derived_set) != 24:
        raise AssertionError("expected 24 distinct symmetry matrices")

    assigned: dict[Matrix3, str] = {}
    missing_labels: list[str] = []
    diffs: list[dict] = []
    for lab in paperdata.LABEL_ORDER:
        printed = paperdata.ELEMENT_MATRICES_PRINTED[lab]
        if printed in derived_set:
            assigned[printed] = lab
        else:
            missing_labels.append(lab)
    leftovers = [m for m in derived if m not in assigned]
    if len(missing_labels) != len(leftovers):
        raise AssertionError("printed matrix listing inconsistent with derived group")
    if len(missing_labels) > 1:
        raise AssertionError(
            "more than one misprinted element matrix; cannot label unambiguously: "
            f"{missing_labels}"
        )
    for lab, m in zip(missing_labels, leftovers):
        assigned[m] = lab
        diffs.append(
            {
                "label": lab,
                "printed": paperdata.ELEMENT_MATRICES_PRINTED[lab],
                "derived": m,
                "reason": "printed matrix is not an isometry of the lattice form",
            }
        )
    by_label = {lab: m for m, lab in assigned.items()}
    elems = tuple(GroupElement(lab, by_label[lab]) for lab in paperdata.LABEL_ORDER)
    return elems, tuple(diffs)


_ELEMENTS, ELEMENT_PRINT_DIFFS = _derive_elements()
_BY_LABEL = {e.label: e for e in _ELEMENTS}
_BY_MATRIX = {e.matrix: e for e in _ELEMENTS}
_INDEX = {e.label: i for i, e in enumerate(_ELEMENTS)}

# 24x24 index multiplication table, used for closure and associativity work
_PRODUCT_INDEX = np.empty((24, 24), dtype=np.int8)
for _i, _y in enumerate(_ELEMENTS):
    for _j, _z in enumerate(_ELEMENTS):
        _prod = _matmul3(_y.matrix, _z.matrix)
        if _prod not in _BY_MATRIX:
            raise AssertionError(f"group not closed at {_y.label}*{_z.label}")
        _PRODUCT_INDEX[_i, _j] = _INDEX[_BY_MATRIX[_prod].label]


def elements() -> tuple[GroupElement, ...]:
    """The 24 symmetries in published label order (identity first)."""
    return _ELEMENTS


def element(label: str) -> GroupElement:
    return _BY_LABEL[label]


def multiply(y: GroupElement, z: GroupElement) -> GroupElement:
    """Product y*z, resolved by matrix equality against the element set."""
    prod = _matmul3(y.matrix, z.matrix)
    try:
        return _BY_MATRIX[prod]
    except KeyError:  # pragma: no cover - closure is established at import
        raise AssertionError(f"product {y.label}*{z.label} left the element set") from None


def inverse(z: GroupElement) -> GroupElement:
    i = _INDEX[z.label]
    j = int(np.where(_PRODUCT_INDEX[i] == _INDEX["I"])[0][0])
    return _ELEMENTS[j]


def apply3(z: GroupElement, v: Vec3) -> Vec3:
    m = z.matrix
    return Vec3(
        m[0][0] * v.n + m[0][1] * v.p + m[0][2] * v.q,
        m[1][0] * v.n + m[1][1] * v.p + m[1][2] * v.q,
        m[2][0] * v.n + m[2][1] * v.p + m[2][2] * v.q,
    )


@dataclass(frozen=True)
class GroupTable:
    """Full multiplication table as labels, plus verification results."""

    labels: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    latin_square: bool
    associative: bool

    def entry(self, row: str, col: str) -> str:
        return self.rows[self.labels.index(row)][self.labels.index(col)]


def build_table() -> GroupTable:
    """Compute all 576 products and check the Latin-square and associativity laws."""
    t = _PRODUCT_INDEX
    n = 24
    want = np.arange(n)
    latin = all(np.array_equal(np.sort(t[i, :]), want) for i in range(n)) and all(
        np.array_equal(np.sort(t[:, j]), want) for j in range(n)
    )
    left = t[t[:, :, None], np.arange(n)[None, None, :]]
    right = t[np.arange(n)[:, None, None], t[None, :, :]]
    assoc = bool(np.array_equal(left, right))
    labels = paperdata.LABEL_ORDER
    rows = tuple(tuple(labels[t[i, j]] for j in range(n)) for i in range(n))
    return GroupTable(labels=labels, rows=rows, latin_square=latin, associative=assoc)


def table_diff_vs_printed(table: GroupTable | None = None) -> list[dict]:
    """Cell-by-cell diff of the computed table against the published one."""
    table = table or build_table()
    diffs = []
    for i, row_label in enumerate(table.labels):
        printed_row = paperdata.MULTIPLICATION_TABLE_PRINTED[row_label].split()
        for j, col_label in enumerate(table.labels):
            if table.rows[i][j] != printed_row[j]:
                diffs.append(
                    {
                        "row": row_label,
                        "col": col_label,
                        "printed": printed_row[j],
                        "computed": table.rows[i][j],
                    }
                )
    return diffs


def generate_from(gens) -> set[GroupElement]:
    """Closure of a nonempty generator set under the group product."""
    gens = list(gens)
    if not gens:
        raise ValueError("generator set must be nonempty")
    seen = {_INDEX[g.label] for g in gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for i in frontier:
            for j in list(seen):
                for k in (int(_PRODUCT_INDEX[i, j]), int(_PRODUCT_INDEX[j, i])):
                    if k not in seen:
                        seen.add(k)
                        nxt.append(k)
        frontier = nxt
    return {_ELEMENTS[i] for i in seen}


def _is_subgroup(labels: tuple[str, ...]) -> dict:
    idx = [_INDEX[lab] for lab in labels]
    idx_set = set(idx)
    closed = all(int(_PRODUCT_INDEX[i, j]) in idx_set for i in idx for j in idx)
    has_identity = _INDEX["I"] in idx_set
    inverses = all(
        any(int(_PRODUCT_INDEX[i, j]) == _INDEX["I"] for j in idx) for i in idx
    )
    return {
        "labels": labels,
        "order": len(labels),
        "closed": closed,
        "has_identity": has_identity,
        "inverses": inverses,
        "subgroup": closed and has_identity and inverses,
    }


def verify_subgroups() -> list[dict]:
    """Check every published subgroup candidate for closure and inverses."""
    return [_is_subgroup(c) for c in paperdata.SUBGROUP_CANDIDATES_PRINTED]


def pairwise_generators() -> dict:
    """Scan pairs from the second half of the alphabet for the generator claim.

    Returns per-pair commutation and generated order, and whether every
    non-commuting pair generates the whole group.
    """
    labels = [lab for lab in paperdata.LABEL_ORDER if lab >= "M"]
    pairs = []
    claim_holds = True
    for a, b in itertools.combinations_with_replacement(labels, 2):
        i, j = _INDEX[a], _INDEX[b]
        commute = _PRODUCT_INDEX[i, j] == _PRODUCT_INDEX[j, i]
        order = len(generate_from([_ELEMENTS[i], _ELEMENTS[j]]))
        if not commute and order != 24:
            claim_holds = False
        pairs.append({"pair": (a, b), "commute": bool(commute), "generated_order": order})
    return {"pairs": pairs, "noncommuting_pairs_generate": claim_holds}


Matrix4 = tuple[tuple[int, int, int, int], ...]


def lift_to4(z: GroupElement) -> Matrix4:
    """Block lift fixing the time axis and acting spatially as z."""
    m = z.matrix
    return (
        (1, 0, 0, 0),
        (0, m[0][0], m[0][1], m[0][2]),
        (0, m[1][0], m[1][1], m[1][2]),
        (0, m[2][0], m[2][1], m[2][2]),
    )


def apply4(z: GroupElement, v: Vec4) -> Vec4:
    s = apply3(z, v.spatial)
    return Vec4(v.t, s.n, s.p, s.q)


def _det4_exact(cols) -> int:
    """Determinant of the integer matrix with these columns, expanded along the first."""
    rows = [[int(x) for x in c] for c in cols]  # the transpose, whose determinant is the same
    return sum(
        (-1) ** j * rows[0][j] * _det3([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(4)
        if rows[0][j]
    )


def preserves_minkowski_form(m: Matrix4) -> bool:
    """The exact Gram identity M^T G M == G, G the doubled Minkowski Gram matrix:
    M maps every vector to one of the same squared norm."""
    mat = np.array(m, dtype=np.int64)
    return bool(np.array_equal(mat.T @ MINKOWSKI_GRAM @ mat, MINKOWSKI_GRAM))


@dataclass(frozen=True)
class BoostCertificate:
    """Outcome of the bounded exhaustive search for time-axis-moving symmetries.

    ``time_eq_solutions`` / ``space_eq_solutions`` are the Diophantine
    sub-enumerations (images of the time / space basis vectors with the right
    norm); ``boost_examples`` holds up to 16 full matrices whose first column
    is not the (possibly negated) time axis.
    """

    bound: int
    time_eq_solutions: tuple[tuple[int, int, int, int], ...]
    space_eq_solutions: tuple[tuple[int, int, int, int], ...]
    total_solutions: int
    fixing_time_axis: int
    boost_count: int
    boost_examples: tuple[Matrix4, ...]
    quoted_families_found: dict = field(default_factory=dict)

    @property
    def no_boosts(self) -> bool:
        return self.boost_count == 0


def no_boost_search(bound: int) -> BoostCertificate:
    """Enumerate all integer norm-preserving det-1 maps with entries in [-bound, bound].

    Columns are the images of the four basis vectors; a solution is a
    "boost" when the image of the time basis vector is not the time axis up
    to sign.
    """
    if bound < 3:
        raise ValueError("bound must be at least 3")
    rng = np.arange(-bound, bound + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    norms = np.einsum("ij,jk,ik->i", grid, MINKOWSKI_GRAM, grid) // 2
    d_arr = grid[norms == 1]
    s_arr = grid[norms == -1]

    sols = []
    for td in d_arr:
        dots = s_arr @ (MINKOWSKI_GRAM @ td)
        s0 = s_arr[dots == 0]
        if len(s0) < 3:
            continue
        gram = s0 @ MINKOWSKI_GRAM @ s0.T
        for i in range(len(s0)):
            js = np.nonzero(gram[i] == -1)[0]
            for j in js:
                ks = js[gram[j, js] == -1]
                for k in ks:
                    cols = (td, s0[i], s0[j], s0[k])
                    if _det4_exact(cols) == 1:
                        sols.append(tuple(tuple(int(x) for x in c) for c in cols))
    sols.sort()

    d_axis = {(1, 0, 0, 0), (-1, 0, 0, 0)}
    boosts = [s for s in sols if s[0] not in d_axis]
    fixing = len(sols) - len(boosts)
    boost_matrices = tuple(
        tuple(tuple(c[i] for c in cols) for i in range(4)) for cols in boosts[:16]
    )

    time_solutions = tuple(sorted(tuple(int(x) for x in v) for v in d_arr))
    space_solutions = tuple(sorted(tuple(int(x) for x in v) for v in s_arr))
    families = {
        "time": {
            fam: fam in time_solutions for fam in paperdata.BOOST_EQ_TIME_FAMILIES
        },
        "space": {
            fam: fam in space_solutions for fam in paperdata.BOOST_EQ_SPACE_FAMILIES
        },
    }
    return BoostCertificate(
        bound=bound,
        time_eq_solutions=time_solutions,
        space_eq_solutions=space_solutions,
        total_solutions=len(sols),
        fixing_time_axis=fixing,
        boost_count=len(boosts),
        boost_examples=boost_matrices,
        quoted_families_found=families,
    )


def isometry_report() -> dict:
    """Check the Gram form is preserved on all basis pairs and 100 seeded random pairs."""
    import random

    rnd = random.Random(0)
    basis = (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    worst_ok = True
    for z in _ELEMENTS:
        for u in basis:
            for v in basis:
                if inner3_doubled(apply3(z, u), apply3(z, v)) != inner3_doubled(u, v):
                    worst_ok = False
    random_ok = True
    for _ in range(100):
        u = Vec3(rnd.randint(-50, 50), rnd.randint(-50, 50), rnd.randint(-50, 50))
        v = Vec3(rnd.randint(-50, 50), rnd.randint(-50, 50), rnd.randint(-50, 50))
        z = _ELEMENTS[rnd.randrange(24)]
        if inner3_doubled(apply3(z, u), apply3(z, v)) != inner3_doubled(u, v):
            random_ok = False
    dets_ok = all(_det3(z.matrix) == 1 for z in _ELEMENTS)
    units_ok = all(norm_sq3(z.column(j)) == 1 for z in _ELEMENTS for j in range(3))
    triple_set = {t.members() for t in triples()}
    triples_ok = all(
        tuple(apply3(z, v) for v in t.members()) in triple_set
        for z in _ELEMENTS
        for t in triples()
    )
    return {
        "basis_pairs_preserved": worst_ok,
        "random_pairs_preserved": random_ok,
        "determinants_one": dets_ok,
        "columns_unit": units_ok,
        "triples_to_triples": triples_ok,
    }
