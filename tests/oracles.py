"""Per-object and dense reference implementations that only the tests run.

Each defines a notion the library computes another way (chain enumeration
against reachability arrays, set comparisons against integer matrices,
explicit step products against the expansion, per-pair matrix products
against the product table, a 4-D grid against spatial rows), so the tests
can diff the fast path against it on small cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from causet_qft import paperdata
from causet_qft.causet import History, Speed, children, precedes, shell
from causet_qft.lattice import MINKOWSKI_GRAM, Vec4
from causet_qft.symmetry import BoostCertificate, GroupElement, apply4


def path_lengths(u: Vec4, v: Vec4, sample_limit: int = 1000) -> frozenset[int]:
    """Lengths of link chains from u to v found by depth-first search.

    At most ``sample_limit`` complete chains are enumerated, in the
    deterministic order induced by sorted children.  The result may be empty:
    comparability does not imply link reachability on this lattice.
    """
    if not precedes(u, v):
        raise ValueError("path enumeration requires u strictly before v")
    lengths: set[int] = set()
    found = 0
    stack = [(u, 0)]
    while stack and found < sample_limit:
        w, depth = stack.pop()
        for c in reversed(children(w)):
            if c == v:
                lengths.add(depth + 1)
                found += 1
                if found >= sample_limit:
                    break
            elif c.t < v.t and precedes(c, v):
                stack.append((c, depth + 1))
    return frozenset(lengths)


def reachable_from(u: Vec4, hist: History) -> set[Vec4]:
    """Vertices of ``hist`` reachable from u along links, u included."""
    reach = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            if w.t >= hist.horizon:
                continue
            for c in children(w):
                if c in hist and c not in reach:
                    reach.add(c)
                    nxt.append(c)
        frontier = nxt
    return reach


def equivariance_check(t_max: int, group: tuple[GroupElement, ...]) -> bool:
    """Spatial symmetries permute each shell and preserve the link relation."""
    for t in range(t_max + 1):
        sh = set(shell(t))
        for z in group:
            if {apply4(z, v) for v in sh} != sh:
                return False
    for t in range(t_max):
        for v in shell(t):
            kids = set(children(v))
            for z in group:
                if {apply4(z, c) for c in kids} != set(children(apply4(z, v))):
                    return False
    return True


def exact_square(speed: Speed) -> Fraction:
    """The squared speed Q / t^2 as an exact fraction."""
    return Fraction(speed.norm_sq, speed.time * speed.time)


def difference_op(seq: list[np.ndarray]) -> list[np.ndarray]:
    """Forward difference of an operator sequence; length drops by one."""
    if len(seq) < 2:
        raise ValueError("difference needs at least two terms")
    return [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]


def product_formula(a_seq: list[np.ndarray], x0: np.ndarray, n: int) -> np.ndarray:
    """Ordered product [I + A(n-1)] ... [I + A(0)] X(0)."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    dim = x0.shape[0]
    eye = np.eye(dim, dtype=complex)
    out = x0.astype(complex)
    for j in range(n):
        out = (eye + a_seq[j]) @ out
    return out


def leibniz_det(m) -> int:
    """The signed sum over all permutations of entry products of a square matrix."""
    k = len(m)
    total = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = (-1) ** inversions
        for i in range(k):
            term *= m[i][perm[i]]
        total += term
    return total


def matmul3(a, b) -> tuple[tuple[int, ...], ...]:
    """The product of two 3x3 integer matrices given as nested tuples."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def product_table_by_pairs(group: tuple[GroupElement, ...]) -> np.ndarray:
    """Index table of y*z, one matrix product and one dict lookup per pair."""
    by_matrix = {z.matrix: i for i, z in enumerate(group)}
    table = np.empty((len(group), len(group)), dtype=np.int8)
    for i, y in enumerate(group):
        for j, z in enumerate(group):
            table[i, j] = by_matrix[matmul3(y.matrix, z.matrix)]
    return table


def no_boost_search_grid(bound: int) -> BoostCertificate:
    """The boost search over the full (2B+1)^4 coordinate grid, one candidate at a time.

    Every grid row of Minkowski norm 1 is a time image and of norm -1 a space
    image; for each time image the (i, j, k) triples of orthogonal space
    images with pairwise doubled pairing -1 are walked in nested loops and
    kept when their Leibniz determinant is 1.
    """
    rng = np.arange(-bound, bound + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    norms = np.einsum("ij,jk,ik->i", grid, MINKOWSKI_GRAM, grid) // 2
    d_arr = grid[norms == 1]
    s_arr = grid[norms == -1]
    sols = []
    for td in d_arr:
        s0 = s_arr[s_arr @ (MINKOWSKI_GRAM @ td) == 0]
        gram = s0 @ MINKOWSKI_GRAM @ s0.T
        for i in range(len(s0)):
            js = np.nonzero(gram[i] == -1)[0]
            for j in js:
                for k in js[gram[j, js] == -1]:
                    cols = tuple(tuple(int(x) for x in c) for c in (td, s0[i], s0[j], s0[k]))
                    if leibniz_det(cols) == 1:
                        sols.append(cols)
    sols.sort()
    boosts = [s for s in sols if s[0] not in {(1, 0, 0, 0), (-1, 0, 0, 0)}]
    time_solutions = tuple(sorted(tuple(int(x) for x in v) for v in d_arr))
    space_solutions = tuple(sorted(tuple(int(x) for x in v) for v in s_arr))
    return BoostCertificate(
        bound=bound,
        time_eq_solutions=time_solutions,
        space_eq_solutions=space_solutions,
        total_solutions=len(sols),
        fixing_time_axis=len(sols) - len(boosts),
        boost_count=len(boosts),
        boost_examples=tuple(
            tuple(tuple(c[i] for c in cols) for i in range(4)) for cols in boosts[:16]
        ),
        quoted_families_found={
            "time": {f: f in time_solutions for f in paperdata.BOOST_EQ_TIME_FAMILIES},
            "space": {f: f in space_solutions for f in paperdata.BOOST_EQ_SPACE_FAMILIES},
        },
    )
