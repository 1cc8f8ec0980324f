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
from .lattice import (
    MINKOWSKI_GRAM, TRIPLE_MATRICES, Vec4, det_exact, norm_sq3_rows, rank_keys, vectors_with_norm_up_to
)

__all__ = [
    "GroupElement",
    "GroupTable",
    "BoostCertificate",
    "elements",
    "element",
    "index",
    "MATRICES",
    "PRODUCT_INDEX",
    "build_table",
    "table_diff_vs_printed",
    "generate_from",
    "orbits",
    "verify_subgroups",
    "pairwise_generators",
    "apply4",
    "no_boost_search",
    "preserves_minkowski_form",
    "isometry_report",
    "ELEMENT_PRINT_DIFFS",
]

Matrix3 = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A lattice symmetry: label plus 3x3 integer matrix (columns = images)."""

    label: str
    matrix: Matrix3


def _derive_elements() -> tuple[tuple[GroupElement, ...], tuple[dict, ...]]:
    derived = [tuple(map(tuple, m)) for m in TRIPLE_MATRICES.tolist()]
    if len(set(derived)) != 24:
        raise AssertionError("expected 24 distinct symmetry matrices")
    printed = [paperdata.ELEMENT_MATRICES_PRINTED[lab] for lab in paperdata.LABEL_ORDER]
    missing_labels = [lab for lab, m in zip(paperdata.LABEL_ORDER, printed) if m not in derived]
    leftovers = [m for m in derived if m not in printed]
    if len(missing_labels) != len(leftovers):
        raise AssertionError("printed matrix listing inconsistent with derived group")
    if len(missing_labels) > 1:
        raise AssertionError(
            "more than one misprinted element matrix; cannot label unambiguously: "
            f"{missing_labels}"
        )
    fixed = dict(zip(missing_labels, leftovers))
    diffs = tuple(
        {
            "label": lab,
            "printed": paperdata.ELEMENT_MATRICES_PRINTED[lab],
            "derived": m,
            "reason": "printed matrix is not an isometry of the lattice form",
        }
        for lab, m in fixed.items()
    )
    elems = tuple(GroupElement(lab, fixed.get(lab, m)) for lab, m in zip(paperdata.LABEL_ORDER, printed))
    return elems, diffs


_ELEMENTS, ELEMENT_PRINT_DIFFS = _derive_elements()
_INDEX = {e.label: i for i, e in enumerate(_ELEMENTS)}
_IDENTITY = _INDEX["I"]

# The matrices as one read-only (24, 3, 3) int64 stack in label order, and the index
# table of its products y*z, the group's only multiplication.  Closure and an identity
# in every row (each element's inverse) are facts of this static data, asserted here.
MATRICES = np.array([e.matrix for e in _ELEMENTS], dtype=np.int64)
_HITS = np.all((MATRICES[:, None] @ MATRICES)[:, :, None] == MATRICES, axis=(-2, -1))
if not _HITS.any(axis=-1).all():
    _i, _j = np.argwhere(~_HITS.any(axis=-1))[0]
    raise AssertionError(f"group not closed at {_ELEMENTS[_i].label}*{_ELEMENTS[_j].label}")
PRODUCT_INDEX = _HITS.argmax(axis=-1).astype(np.int8)
if not (PRODUCT_INDEX == _IDENTITY).any(axis=1).all():
    raise AssertionError("a row of the product table holds no identity")
MATRICES.flags.writeable = PRODUCT_INDEX.flags.writeable = False


def elements() -> tuple[GroupElement, ...]:
    """The 24 symmetries in published label order (identity first)."""
    return _ELEMENTS


def element(label: str) -> GroupElement:
    return _ELEMENTS[_INDEX[label]]


def index(z: GroupElement) -> int:
    """Position of ``z`` in label order: its row of ``MATRICES`` and ``PRODUCT_INDEX``."""
    return _INDEX[z.label]


@dataclass(frozen=True)
class GroupTable:
    """Full multiplication table as labels, plus verification results."""

    labels: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    latin_square: bool
    associative: bool
    inverses: bool


def build_table() -> GroupTable:
    """Read the 576 products and check the Latin-square, associativity and two-sided
    inverse laws (the identity once per row, at transposed positions)."""
    t = PRODUCT_INDEX
    n = 24
    want = np.arange(n)
    latin = bool(np.all(np.sort(t, axis=1) == want) and np.all(np.sort(t, axis=0) == want[:, None]))
    left = t[t[:, :, None], np.arange(n)[None, None, :]]
    right = t[np.arange(n)[:, None, None], t[None, :, :]]
    assoc = bool(np.array_equal(left, right))
    identity = t == _IDENTITY
    inverses = bool(np.all(identity.sum(axis=1) == 1) and np.array_equal(identity, identity.T))
    labels = paperdata.LABEL_ORDER
    rows = tuple(tuple(labels[t[i, j]] for j in range(n)) for i in range(n))
    return GroupTable(labels, rows, latin, assoc, inverses)


def table_diff_vs_printed(table: GroupTable) -> list[dict]:
    """Cell-by-cell diff of the computed table against the published one."""
    return [
        {"row": row_label, "col": col_label, "printed": printed, "computed": computed}
        for row_label, row in zip(table.labels, table.rows)
        for col_label, printed, computed in zip(
            table.labels, paperdata.MULTIPLICATION_TABLE_PRINTED[row_label].split(), row
        )
        if computed != printed
    ]


def generate_from(gens) -> set[GroupElement]:
    """Closure of a nonempty generator set under the group product."""
    gens = list(gens)
    if not gens:
        raise ValueError("generator set must be nonempty")
    seen = np.zeros(24, dtype=bool)
    seen[[_INDEX[g.label] for g in gens]] = True
    while True:
        grown = seen.copy()
        grown[PRODUCT_INDEX[np.ix_(seen, seen)]] = True
        if np.array_equal(grown, seen):
            return {_ELEMENTS[i] for i in np.flatnonzero(seen)}
        seen = grown


def orbits(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the permutation group whose row g sends i to ``perms[g, i]``: each orbit's
    least index (column i of the stack is i's orbit), ascending, and for every index i
    an element g and that representative r with ``perms[g, r] == i``."""
    indices = np.arange(perms.shape[1])
    rep = perms.min(axis=0)
    element = np.argmax(perms[:, rep] == indices, axis=0)
    return np.flatnonzero(rep == indices), element, rep


def _is_subgroup(labels: tuple[str, ...]) -> dict:
    idx = [_INDEX[lab] for lab in labels]
    products = PRODUCT_INDEX[np.ix_(idx, idx)]
    closed = set(products.flat) <= set(idx)
    has_identity = _IDENTITY in idx
    inverses = bool(np.all(np.any(products == _IDENTITY, axis=1)))
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
        commute = PRODUCT_INDEX[i, j] == PRODUCT_INDEX[j, i]
        order = len(generate_from([_ELEMENTS[i], _ELEMENTS[j]]))
        if not commute and order != 24:
            claim_holds = False
        pairs.append({"pair": (a, b), "commute": bool(commute), "generated_order": order})
    return {"pairs": pairs, "noncommuting_pairs_generate": claim_holds}


Matrix4 = tuple[tuple[int, int, int, int], ...]


def apply4(z: GroupElement, v: Vec4) -> Vec4:
    """The spacetime lift of ``z``: it fixes the time axis and rotates the spatial part."""
    return Vec4(v.t, *(MATRICES[index(z)] @ v.coords()[1:]).tolist())


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


# Time images per block of the pairing scan: a block's (rows, space images) int32
# pairing table is the scan's largest array.
_BLOCK_ROWS = 64


def _with_each_of(lo: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with j in lo[i], ..., lo[i] + size[i] - 1, ascending in i, then j."""
    i = np.repeat(np.arange(len(lo)), size)
    return i, np.arange(len(i)) + np.repeat(lo - (np.cumsum(size) - size), size)


def _unit_images(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The time images (t, s), norm_sq3(s) = t^2 - 1, and the space images, t^2 + 1,
    with every entry in [-bound, bound]: rows of two (m, 4) arrays in lexicographic order."""
    spatial = vectors_with_norm_up_to(bound * bound + 1)
    spatial = spatial[np.all(np.abs(spatial) <= bound, axis=1)]
    t_sq = np.arange(-bound, bound + 1)[:, None] ** 2
    d_arr, s_arr = (
        np.column_stack([ti - bound, spatial[si]])
        for ti, si in (np.nonzero(norm_sq3_rows(spatial) == t_sq + shift) for shift in (-1, 1))
    )
    return d_arr, s_arr


def _orthogonal_triads(d_arr: np.ndarray, s_arr: np.ndarray) -> np.ndarray:
    """Every (d, s_a, s_b, s_c) of a time image and three space images orthogonal to
    it with pairwise doubled pairing -1, as the rows of an (N, 4, 4) stack in
    lexicographic order.

    The (time image, space image) pairs of zero pairing come from int32 pairing
    tables of ``_BLOCK_ROWS`` time images at a time, listed by time image.  Inside
    one time image's pairs, the ordered pairs (a, b) of doubled pairing -1 are the
    edges, and a third member c joins an edge (a, b) when (a, c) and (b, c) are
    edges too: the edges from a are found by position, (b, c) by binary search in
    the ascending edge keys.
    """
    gram = MINKOWSKI_GRAM.astype(np.int32)
    dg, s32 = d_arr.astype(np.int32) @ gram, s_arr.astype(np.int32)
    found = []
    for lo in range(0, len(dg), _BLOCK_ROWS):
        block = dg[lo:lo + _BLOCK_ROWS]
        pairing = block[:, :1] * s32[:, 0]
        for col in range(1, 4):
            pairing += block[:, col:col + 1] * s32[:, col]
        t, s = np.nonzero(pairing == 0)
        found.append((t + lo, s))
    time_of, space_of = (np.concatenate(part) for part in zip(*found))
    n = len(time_of)

    # a and b are positions in the pair list, each pair's time image the same
    group = np.bincount(time_of, minlength=len(d_arr))
    a, b = _with_each_of((np.cumsum(group) - group)[time_of], group[time_of])
    rows = s32[space_of]
    edge = np.einsum("ij,ij->i", (rows @ gram)[a], rows[b]) == -1
    a, b = a[edge], b[edge]

    degree = np.bincount(a, minlength=n)
    e, f = _with_each_of((np.cumsum(degree) - degree)[a], degree[a])
    hit = rank_keys(a * n + b, b[e] * n + b[f]) >= 0  # edge keys ascend, as a and b do
    a, b, c = a[e[hit]], b[e[hit]], b[f[hit]]
    return np.stack([d_arr[time_of[a]], s_arr[space_of[a]], s_arr[space_of[b]], s_arr[space_of[c]]], axis=1)


def no_boost_search(bound: int) -> BoostCertificate:
    """Enumerate all integer norm-preserving det-1 maps with entries in [-bound, bound].

    Columns are the images of the four basis vectors; a solution is a
    "boost" when the image of the time basis vector is not the time axis up
    to sign.  A time image (t, s) has norm_sq3(s) = t^2 - 1 and a space image
    t^2 + 1: both are spatial rows of the box.  The candidates are the
    orthogonal triads of space images with a time image, found in whole-array
    integer passes over blocks of time images; one determinant call keeps the
    solutions.  The candidates come out in lexicographic column order, so no
    list is sorted.
    """
    if bound < 3:
        raise ValueError("bound must be at least 3")
    d_arr, s_arr = _unit_images(bound)
    candidates = _orthogonal_triads(d_arr, s_arr)  # columns as rows: the transpose, of the same det
    sols = candidates[det_exact(candidates) == 1]

    moves_axis = (np.abs(sols[:, 0, 0]) != 1) | sols[:, 0, 1:].any(axis=1)
    boost_count = int(moves_axis.sum())
    boosts = sols[np.flatnonzero(moves_axis)[:16]].transpose(0, 2, 1).tolist()

    time_solutions = tuple(map(tuple, d_arr.tolist()))
    space_solutions = tuple(map(tuple, s_arr.tolist()))
    families = {
        "time": {fam: fam in time_solutions for fam in paperdata.BOOST_EQ_TIME_FAMILIES},
        "space": {fam: fam in space_solutions for fam in paperdata.BOOST_EQ_SPACE_FAMILIES},
    }
    return BoostCertificate(
        bound=bound,
        time_eq_solutions=time_solutions,
        space_eq_solutions=space_solutions,
        total_solutions=len(sols),
        fixing_time_axis=len(sols) - boost_count,
        boost_count=boost_count,
        boost_examples=tuple(tuple(map(tuple, m)) for m in boosts),
        quoted_families_found=families,
    )


def isometry_report() -> dict:
    """The exact spatial Gram identity M^T G M == G (on every pair by bilinearity; its
    diagonal makes the columns unit vectors), unit determinants, triples to triples."""
    gram = -MINKOWSKI_GRAM[1:, 1:]
    pulled_back = MATRICES.transpose(0, 2, 1) @ gram @ MATRICES
    # a triple's matrix has the members as columns, so M @ T holds their images
    moved = (MATRICES[:, None] @ TRIPLE_MATRICES)[:, :, None]
    return {
        "basis_pairs_preserved": bool(np.all(pulled_back == gram)),
        "determinants_one": bool(np.all(det_exact(MATRICES) == 1)),
        "triples_to_triples": bool(np.all(np.all(moved == TRIPLE_MATRICES, axis=(-2, -1)).any(-1))),
    }
