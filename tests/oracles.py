"""Per-object and dense reference implementations that only the tests run.

Each defines a notion the library computes another way (chain enumeration
against reachability arrays, set comparisons against integer matrices,
explicit step products against the expansion), so the tests can diff the
fast path against it on small cases.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from causet_qft.causet import History, Speed, children, precedes, shell
from causet_qft.lattice import Vec4
from causet_qft.symmetry import GroupElement, apply4


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
