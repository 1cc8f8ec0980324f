"""Per-object and dense reference implementations that only the tests run.

Each defines a notion the library computes another way (shells, vertices,
precedence, children and parents one ``Vec4`` at a time, the coordinate-cube
enumerator against the per-column q intervals, chain enumeration
and the V x V order, link reachability and order axioms against the
per-shell key sets, cone membership and the child array from a dense
coordinate grid against the parent links looked up by key, sumset check and
closed-form pair counts, the sweep over every sum of two balls against the
positive-definiteness certificate, set comparisons against integer matrices,
explicit step products and the 2^n sum over decreasing time tuples against the step
recursion and its orders checked on the coupling circle, the dense
Hamiltonian and step loop and the whole parity-block series against the
series on orbit representative columns, the
dense xi matrix, dense matrix products and the dense commutator against the
Fock layer's ladder entries and bracket tables, a per-call ladder-map scan
against the cached entries, the scalar phase against the phase rows,
multiset indicators and diagonal momentum operators, per-pair matrix
products against the product table, a 4-D grid against spatial rows,
per-object triples and per-element spinor comparisons against their stacks,
the group elements one ``GroupElement`` each, built from the triples and the
printed listing alone, with their rotations ``cal_u`` and spinor values
``spinor_of`` (a ``Spinor2`` under a ``SignConvention``) solved one element at a
time, against ``symmetry.MATRICES`` and the representation stacks,
a converted copy of a report passed to ``json.dumps`` and a line-list walk
against the one-pass renderers), so the tests can diff the fast path
against it on small cases, the per-energy mass and hyperboloid loops
against the one enumeration of the spectra, the norm-ball enumeration against
the norm sieve, and the fock-verify gates one sample at a time (with the
commutator on the walk's every-column table) against the batched gates on
the safe-column table.  It also holds the helpers that
only tests call: the one-vector layer (``Vec3``, ``Vec4`` and their arithmetic,
the scalar norms, ``apply3``, ``apply4``, ``lift_to4``, ``inverse``, a table entry by
labels, the ``Vec4`` view ``points`` of a hyperboloid and hyperboloid membership), the
coordinate rows and rotation indices the gates take
from ``Vec4`` points and ``PoincareElement`` pairs, sorted eigensystems, the group
product by labels, the ``PoincareElement`` and its product, identity, inverse and
action on a vector,
the symmetry action ``rep_v``, a field operator applied to a vector, the
spin-tensored single-particle representation, the Fock basis units with the
vacuum, and the two-pi states as D-length vectors.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from causet_qft import paperdata, symmetry
from causet_qft.causet import _STEP_ARRAY, CovarianceReport, History, Speed, parent_histogram
from causet_qft.fock import FieldOperator, FockSpace, _monomials, _phases, phi, xi_entries
from causet_qft.lattice import (
    MINKOWSKI_GRAM,
    TRIPLE_MATRICES,
    norm_sq3_rows,
    rank_rows,
    vectors_with_norm,
    vectors_with_norm_up_to,
)
from causet_qft.momentum import Hyperboloid, attainable_spatial_norms
from causet_qft.representations import _canonicalize, _principal_angle, _solve_spinor
from causet_qft.scattering import (
    GENERATORS,
    InteractionConfig,
    ScatteringModel,
    ScatteringSeries,
    _max_abs,
    _window_rows,
)
from causet_qft.scattering import interaction_hamiltonian as block_hamiltonian
from causet_qft.symmetry import PRODUCT_INDEX, BoostCertificate, GroupTable


@dataclass(frozen=True, slots=True)
class Vec3:
    """Spatial lattice vector with coordinates (n, p, q) in the oblique basis."""

    n: int
    p: int
    q: int

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.n + other.n, self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.n - other.n, self.p - other.p, self.q - other.q)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.n, -self.p, -self.q)

    def __mul__(self, k: int) -> "Vec3":
        return Vec3(k * self.n, k * self.p, k * self.q)

    __rmul__ = __mul__

    def coords(self) -> tuple[int, int, int]:
        return (self.n, self.p, self.q)


@dataclass(frozen=True, slots=True)
class Vec4:
    """Spacetime lattice vector (t, n, p, q); t is the time coordinate."""

    t: int
    n: int
    p: int
    q: int

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.t + other.t, self.n + other.n, self.p + other.p, self.q + other.q)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.t - other.t, self.n - other.n, self.p - other.p, self.q - other.q)

    def coords(self) -> tuple[int, int, int, int]:
        return (self.t, self.n, self.p, self.q)


E3 = Vec3(1, 0, 0)
F3 = Vec3(0, 1, 0)
G3 = Vec3(0, 0, 1)
ORIGIN = Vec4(0, 0, 0, 0)

Matrix3 = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, slots=True)
class GroupElement:
    """A lattice symmetry: label plus 3x3 integer matrix (columns = images)."""

    label: str
    matrix: Matrix3


def spatial(v: Vec4) -> Vec3:
    return Vec3(v.n, v.p, v.q)


def scaled(k: int, v: Vec4) -> Vec4:
    return Vec4(*(k * c for c in v.coords()))


def norm_sq3(u: Vec3) -> int:
    """Squared spatial length n^2+p^2+q^2+np+nq+pq (always a nonnegative integer)."""
    n, p, q = u.n, u.p, u.q
    return n * n + p * p + q * q + n * p + n * q + p * q


def norm_sq4(u: Vec4) -> int:
    """Indefinite squared spacetime norm t^2 - |spatial|^2 (may be negative)."""
    return u.t * u.t - norm_sq3(spatial(u))


def inverse(z: GroupElement) -> GroupElement:
    """The element whose matrix times ``z``'s is the identity matrix."""
    return next(w for w in elements() if matmul3(z.matrix, w.matrix) == ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def apply3(z: GroupElement, v: Vec3) -> Vec3:
    m = z.matrix
    return Vec3(
        m[0][0] * v.n + m[0][1] * v.p + m[0][2] * v.q,
        m[1][0] * v.n + m[1][1] * v.p + m[1][2] * v.q,
        m[2][0] * v.n + m[2][1] * v.p + m[2][2] * v.q,
    )


def lift_to4(z: GroupElement) -> tuple[tuple[int, int, int, int], ...]:
    """Block lift fixing the time axis and acting spatially as z."""
    m = z.matrix
    return (
        (1, 0, 0, 0),
        (0, m[0][0], m[0][1], m[0][2]),
        (0, m[1][0], m[1][1], m[1][2]),
        (0, m[2][0], m[2][1], m[2][2]),
    )


def table_entry(table: GroupTable, row: str, col: str) -> str:
    return table.rows[table.labels.index(row)][table.labels.index(col)]


def points(h: Hyperboloid) -> tuple[Vec4, ...]:
    """The ``Vec4`` view of a hyperboloid's coordinate rows, in point order."""
    return tuple(Vec4(*row) for row in h.coords.tolist())


def on_hyperboloid(p: Vec4, h: Hyperboloid) -> bool:
    return bool(rank_rows(h.coords, np.array([p.coords()]))[0] >= 0)


def mass_squared_values(p0: int) -> tuple[int, ...]:
    """Attainable squared masses at fixed energy component p0, one enumeration per energy."""
    cap = p0 * p0
    return tuple(sorted({cap - q for q in attainable_spatial_norms(cap)}))


def attainable_spatial_norms_by_enumeration(limit: int) -> tuple[int, ...]:
    """The distinct values of norm_sq3 over the whole lattice ball norm_sq3 <= limit."""
    norms = np.sort(norm_sq3_rows(vectors_with_norm_up_to(limit)))
    return tuple(norms[np.diff(norms, prepend=-1) > 0].tolist())


def hyperboloid_coords(mass_sq: int, p_max: int) -> np.ndarray:
    """The (p0, n, p, q) rows of the truncated hyperboloid, one enumeration per energy:
    the energy blocks ascend and each is in lexicographic order."""
    blocks = [np.insert(vectors_with_norm(p0 * p0 - mass_sq), 0, p0, axis=1) for p0 in range(p_max + 1)]
    return np.concatenate(blocks)


def inner3_doubled(u: Vec3, v: Vec3) -> int:
    """Doubled spatial inner product 2<u,v>; the factor 2 keeps it integral."""
    n, p, q = u.n, u.p, u.q
    a, b, c = v.n, v.p, v.q
    return 2 * (n * a + p * b + q * c) + (n * b + p * a) + (n * c + q * a) + (p * c + q * b)


def minkowski_doubled(p: Vec4, x: Vec4) -> int:
    """Doubled Minkowski pairing 2(p.x) = 2 p^0 x^0 - 2<spatial, spatial>."""
    return 2 * p.t * x.t - inner3_doubled(spatial(p), spatial(x))


@dataclass(frozen=True, slots=True)
class Triple:
    """Ordered triple of unit vectors with pairwise doubled inner product 1.

    The ordering is the orientation-positive (determinant +1) one, so the 24
    triples are exactly the images of the basic triple under the symmetry
    group.
    """

    u: Vec3
    v: Vec3
    w: Vec3

    def members(self) -> tuple[Vec3, Vec3, Vec3]:
        return (self.u, self.v, self.w)


def unit_vectors3() -> tuple[Vec3, ...]:
    """The 12 unit vectors, sorted lexicographically by coordinates: the ball's rows."""
    return tuple(Vec3(*row) for row in vectors_with_norm(1).tolist())


def triples() -> tuple[Triple, ...]:
    """The 24 positively oriented triples, the ``Vec3`` view of ``TRIPLE_MATRICES``."""
    return tuple(Triple(*(Vec3(*col) for col in m.T.tolist())) for m in TRIPLE_MATRICES)


def _derive_elements() -> tuple[GroupElement, ...]:
    """The 24 symmetries in printed label order, one object each, from the triples and the
    printed listing alone: a label keeps its printed matrix when some triple's member
    columns form it, and the one label whose printed matrix none forms takes the matrix
    that no printed one matches."""
    derived = [tuple(zip(*(v.coords() for v in t.members()))) for t in triples()]
    printed = [paperdata.ELEMENT_MATRICES_PRINTED[label] for label in paperdata.LABEL_ORDER]
    (leftover,) = [m for m in derived if m not in printed]
    return tuple(GroupElement(lab, m if m in derived else leftover) for lab, m in zip(paperdata.LABEL_ORDER, printed))


_ELEMENTS = _derive_elements()


def elements() -> tuple[GroupElement, ...]:
    """The 24 symmetries in printed label order (identity first)."""
    return _ELEMENTS


def element(label: str) -> GroupElement:
    return _ELEMENTS[paperdata.LABEL_ORDER.index(label)]


def index(z: GroupElement) -> int:
    """``z``'s place in the printed label order: its row of ``symmetry.MATRICES``."""
    return paperdata.LABEL_ORDER.index(z.label)


def apply4(z: GroupElement, v: Vec4) -> Vec4:
    """The spacetime lift of ``z``: it fixes the time axis and rotates the spatial part."""
    return Vec4(v.t, *apply3(z, spatial(v)).coords())


def cube_vectors_with_norm_up_to(limit: int) -> np.ndarray:
    """All spatial vectors with norm_sq3 <= limit as lexicographic (n, p, q) int64 rows,
    filtered from the whole (2b + 1)^3 coordinate cube, b = isqrt(2 limit)."""
    b = math.isqrt(2 * limit) if limit >= 0 else -1
    axis = np.arange(-b, b + 1, dtype=np.int64)
    rows = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return rows[norm_sq3_rows(rows) <= limit]


# The 13 one-step moves in lexicographic order.
_STEPS = tuple(Vec4(*row) for row in _STEP_ARRAY.tolist())


def shell(t: int) -> tuple[Vec4, ...]:
    """All vertices at time t, lexicographically ordered by coordinates."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return tuple(Vec4(t, *row) for row in vectors_with_norm_up_to(t * t).tolist())


def vertices(hist: History) -> tuple[Vec4, ...]:
    """The ``Vec4`` view of a history's coordinate rows."""
    return tuple(Vec4(*row) for row in hist.coords.tolist())


def precedes(u: Vec4, v: Vec4) -> bool:
    """Causal order: strictly later time and nonnegative squared interval."""
    return u.t < v.t and norm_sq4(v - u) >= 0


def children(u: Vec4) -> tuple[Vec4, ...]:
    """The 13 one-step successors of a cone vertex, lexicographic order."""
    return tuple(sorted((u + s for s in _STEPS), key=Vec4.coords))


def parents(u: Vec4) -> tuple[Vec4, ...]:
    """Cone vertices one step before u; may be empty even for u.t >= 1."""
    if u.t <= 0:
        return ()
    return tuple(sorted((w for w in (u - s for s in _STEPS) if norm_sq4(w) >= 0), key=Vec4.coords))


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


def in_cone(v: Vec4) -> bool:
    """Membership in the forward solid light cone of the origin."""
    return v.t >= 0 and norm_sq4(v) >= 0


def link_array(coords: np.ndarray) -> np.ndarray:
    """V x 13 int32 indices of each row's children, in ``children`` order.

    ``coords`` are the rows of a history; a child past its last shell gets
    index -1.  Lookup goes through a dense coordinate grid with a margin of
    one, which holds every child since a step moves each coordinate by at
    most one.
    """
    lo = coords.min(axis=0) - 1
    grid = np.full(coords.max(axis=0) - lo + 2, -1, dtype=np.int32)
    grid[tuple((coords - lo).T)] = np.arange(len(coords), dtype=np.int32)
    kids = (coords - lo)[:, None, :] + _STEP_ARRAY
    return grid[tuple(np.moveaxis(kids, -1, 0))]


def causal_order(coords: np.ndarray) -> np.ndarray:
    """V x V bool relation ``precedes`` on the rows of a V x 4 coordinate array.

    Differences are broadcast one coordinate at a time into two V x V int32
    buffers, using 2 norm_sq3(n, p, q) = (n + p)^2 + (n + q)^2 + (p + q)^2,
    so no V x V x 4 block is ever held.
    """
    c = np.asarray(coords, dtype=np.int32)
    dt = c[None, :, 0] - c[:, None, 0]
    later = dt > 0
    twice_norm = np.square(dt, out=dt)
    twice_norm *= 2
    d = np.empty_like(twice_norm)
    for a, b in ((1, 2), (1, 3), (2, 3)):
        s = c[:, a] + c[:, b]
        np.subtract(s[None, :], s[:, None], out=d)
        d *= d
        twice_norm -= d
    return later & (twice_norm >= 0)


def link_reachability(links: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
    """V x V bool link reachability (reflexive) from a history's link array.

    Every link joins shell t to shell t + 1, so the rows are filled one shell
    at a time from the top down: a vertex reaches itself and whatever its
    children reach.  Rows are held as packed bits while they are combined.
    """
    n = len(links)
    bits = np.packbits(np.eye(n, dtype=bool), axis=1)
    for t in range(len(offsets) - 3, -1, -1):  # the top shell reaches only itself
        rows = slice(offsets[t], offsets[t + 1])
        bits[rows] |= np.bitwise_or.reduce(bits[links[rows]], axis=1)
    return np.unpackbits(bits, axis=1, count=n).view(bool)


def order_axioms(rel: np.ndarray) -> dict[str, bool]:
    """Irreflexivity, antisymmetry and transitivity of a V x V bool relation.

    Transitivity ORs together the packed rows of each element's successors
    and asks that the result lie inside the element's own row.  No pair
    count is formed, so nothing can wrap around the way a uint8 count of
    256 intermediate elements reads 0 and hides a violation.
    """
    packed = np.packbits(rel, axis=1)
    transitive = not any(
        (np.bitwise_or.reduce(packed[row], axis=0) & ~own).any()
        for row, own in zip(rel, packed)
    )
    return {
        "irreflexive": not rel.diagonal().any(),
        "antisymmetric": not (rel & rel.T).any(),
        "transitive": transitive,
    }


def sumsets_inside(hist: History) -> bool:
    """Whether B_j + B_k lies in B_{j+k} for all j, k >= 1 with j + k <= horizon, by
    sweeping every sum: ``causet.order_axioms``' ``transitive`` certificate, checked."""
    shells = np.split(hist.keys, hist.offsets[1:-1])
    for m in range(2, hist.horizon + 1):
        lo = shells[m][0]
        member = np.zeros(shells[m][-1] - lo + 1, dtype=bool)
        member[shells[m] - lo] = True
        for j in range(1, m // 2 + 1):
            b = shells[m - j] - lo
            rows = max(1, (1 << 16) // len(b))  # 2^16 sums, 512 KB, stay in cache
            for start in range(0, len(shells[j]), rows):
                sums = (shells[j][start : start + rows, None] + b).ravel()
                if sums[0] < 0 or sums[-1] >= len(member) or not member[sums].all():
                    return False
    return True


def covariance_diagnostics(hist: History) -> CovarianceReport:
    """``causet.covariance_diagnostics`` from the V x V order and reachability arrays:
    pairs counted, and the witness and samples taken, over the whole arrays."""
    links, order = link_array(hist.coords), causal_order(hist.coords)
    times = hist.coords[:, 0]
    heights = np.zeros(len(times), dtype=np.int64)
    for t in range(hist.horizon):
        rows = slice(hist.offsets[t], hist.offsets[t + 1])
        np.maximum.at(heights, links[rows].ravel(), np.repeat(heights[rows] + 1, links.shape[1]))
    parent_counts = np.bincount(links[links >= 0], minlength=len(links))
    orphans = np.flatnonzero((parent_counts == 0) & (times > 0))
    pathless = order & ~link_reachability(links, hist.offsets)
    child_times = np.where(links >= 0, times[links], hist.horizon + 1)
    later = (heights[:, None] < heights[None, :]) & ~order
    coords = hist.coords.tolist()
    witness = None
    if later.any():
        u, v = np.unravel_index(np.argmax(later), later.shape)
        witness = (tuple(coords[u]), tuple(coords[v]))
    return CovarianceReport(
        comparable_pairs=int(np.count_nonzero(order)),
        weakly_covariant=bool((child_times == times[:, None] + 1).all()),
        covariant=witness is None,
        covariance_witness=witness,
        orphan_count=len(orphans),
        height_mismatch_count=int(np.count_nonzero(heights != times)),
        pathless_comparable_pairs=int(np.count_nonzero(pathless)),
        pathless_sample=tuple((tuple(coords[u]), tuple(coords[v])) for u, v in np.argwhere(pathless)[:5]),
        parent_histogram=parent_histogram(hist),
    )


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
                if c.t <= hist.horizon and in_cone(c) and c not in reach:
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


def expansion_formula(a_seq: list[np.ndarray], x0: np.ndarray, n: int) -> np.ndarray:
    """Sum over strictly decreasing index tuples of A products, applied to X(0).

    Independent of the ordered product [I + A(n-1)] ... [I + A(0)] X(0); the
    two must agree.
    """
    from itertools import combinations

    dim = x0.shape[0]
    total = np.eye(dim, dtype=complex)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            term = None
            for j in reversed(combo):  # decreasing order, leftmost largest
                term = a_seq[j] if term is None else term @ a_seq[j]
            total += term
    return total @ x0.astype(complex)


def phase(p: Vec4, x: Vec4) -> complex:
    """exp(i p.x) of one point, from the doubled integer pairing."""
    return complex(np.exp(0.5j * minkowski_doubled(p, x)))


def psi(x, fock: FockSpace) -> FieldOperator:
    """Creation field at the (t, n, p, q) coordinate row x: sector n -> n+1 with amplitude
    sqrt(count+1) e^{ip.x}, the counterpart of :func:`causet_qft.fock.phi`.  The raising
    maps invert the lowering maps with the same amplitudes, so the adjoint relation to phi
    is a checkable fact about the phases; the top sector's image is dropped."""
    coeffs = tuple(_phases(fock.hyperboloid, np.asarray(x)).tolist())
    return FieldOperator(fock=fock, role="creates", coeffs=coeffs)


def momentum_operators(fock: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal coordinate-multiplication operators on the one-particle sector."""
    return tuple(np.diag(column) for column in fock.hyperboloid.coords.T)


def field_entries(op: FieldOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of a field, scanning its (d, dim) ladder maps on every call."""
    target, weight = op.fock.ladder_maps[op.role]
    q, cols = np.nonzero(target >= 0)
    return target[q, cols], cols, 0.0 + np.asarray(op.coeffs)[q] * weight[q, cols]


_SPIN_TAGS = {0: 1, 0.5: 2, 1: 3}


def spin_rep(y: Vec4, rot: GroupElement, spin, h: Hyperboloid) -> np.ndarray:
    """Single-particle representation tensored with the spin factor.

    spin 0 gives the plain single-particle action, spin 1/2 tensors with the
    spinor value of the inverse rotation (a homomorphism only up to sign),
    spin 1 with the 3d rotation of the inverse.
    """
    if spin not in _SPIN_TAGS:
        raise ValueError(f"spin must be one of 0, 1/2, 1; got {spin!r}")
    perm = h.permutation_under(index(rot))
    single = np.zeros((len(h), len(h)), dtype=complex)
    single[perm, np.arange(len(h))] = _phases(h, rows([y])[0])[perm]
    k = _SPIN_TAGS[spin]
    if k == 1:
        return single
    rot_inv = inverse(rot)
    factor = (
        spinor_of(rot_inv, SignConvention.CANONICAL).matrix
        if k == 2
        else cal_u(rot_inv).astype(complex)
    )
    return np.kron(single, factor)


def basis_unit(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Unit vector of the orthonormal basis at the given multiset."""
    if not all(0 <= i < len(fock.hyperboloid) for i in point_indices):
        raise ValueError(f"point indices {tuple(point_indices)} are not all on the hyperboloid")
    vec = np.zeros(fock.dim, dtype=complex)
    vec[fock.rank(len(point_indices), np.sort([point_indices], axis=1))] = 1.0
    return vec


def vacuum(fock: FockSpace) -> np.ndarray:
    return basis_unit(fock, ())


def two_pi_state(model: ScatteringModel, p: int, q: int) -> np.ndarray:
    """Normalized symmetric two-particle state at the pi-hyperboloid points of indices p and
    q, tensored with the sigma vacuum; ``ValueError`` for an index off the hyperboloid."""
    return np.kron(basis_unit(model.pi_space, (p, q)), vacuum(model.sigma_space))


def multiset_indicator(fock: FockSpace, point_indices: tuple[int, ...]) -> np.ndarray:
    """Multiset indicator as a full-space vector: the orthonormal basis unit times the
    square root of the multiset's number of ordered arrangements, so its squared norm
    is that number, as the ordered-tuple inner product on symmetric functions gives."""
    arrangements = math.factorial(len(point_indices))
    for k in set(point_indices):
        arrangements //= math.factorial(point_indices.count(k))
    return math.sqrt(arrangements) * basis_unit(fock, point_indices)


def xi_matrix(x: Vec4, fock: FockSpace) -> np.ndarray:
    """The self-adjoint field phi(x) + psi(x) as a dense dim x dim matrix, written from
    :func:`causet_qft.fock.xi_entries`."""
    rows, cols, vals = xi_entries(np.array([x.coords()]), fock)
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    out[rows, cols] = vals[0]
    return out


def matrix_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA of two dense matrices."""
    return a @ b - b @ a


def bracket_terms(a: FieldOperator, b: FieldOperator, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and values of the nonzero [a, b] entries, in (q, r, column) order: each
    bracket of ``table`` (by default the space's cached table for the two roles) times its
    Python coefficient product a.coeffs[q] * b.coeffs[r]."""
    if a.fock is not b.fock and a.fock != b.fock:
        raise ValueError("operators live on different Fock spaces")
    flat, q, r, bracket = a.fock.bracket_table(a.role, b.role) if table is None else table
    products = np.array([[ca * cb for cb in b.coeffs] for ca in a.coeffs])
    return flat, products[q, r] * bracket


def commutator(a: FieldOperator, b: FieldOperator) -> np.ndarray:
    """[a, b] on the full space, expanded bilinearly over the point pairs (q, r) of
    :func:`bracket_walk`'s table, which keeps the top-sector columns the space's mixed
    table drops.  Terms add up in (q, r) order, so same-species commutators are exact
    zeros."""
    flat, terms = bracket_terms(a, b, bracket_walk(a.fock, a.role, b.role))
    dim = a.fock.dim
    out = np.zeros(dim * dim, dtype=complex)
    np.add.at(out, flat, terms)
    return out.reshape(dim, dim)


def bracket_walk(fock: FockSpace, role_a: str, role_b: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`FockSpace.bracket_table` walked point by point over the dense ladder maps, on
    every column: for each q, the rows and float products of X_q Y_r and Y_r X_q at every
    (r, column) as (d, dim) arrays, -1 and 0.0 where a path is undefined, and their nonzero
    differences in (q, r, column) order."""
    (xt, xw), (yt, yw) = fock.ladder_maps[role_a], fock.ladder_maps[role_b]
    y_ok = yt >= 0
    parts = []
    for q, (xq, xwq) in enumerate(zip(xt, xw)):
        xy_row = np.where(y_ok, xq[yt], -1)
        yx_row = np.where(xq >= 0, yt[:, xq], -1)
        xy = np.where(xy_row >= 0, xwq[yt] * yw, 0.0)
        bracket = xy - np.where(yx_row >= 0, yw[:, xq] * xwq, 0.0)
        rows = np.maximum(xy_row, yx_row)
        r, c = np.nonzero((rows >= 0) & (bracket != 0))
        parts.append((rows[r, c] * fock.dim + c, np.full(len(r), q), r, bracket[r, c]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def safe_columns(fock: FockSpace, table: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The entries of a ``(flat, q, r, bracket)`` table in truncation-safe columns."""
    keep = table[0] % fock.dim < fock.safe_sector_end()
    return tuple(column[keep] for column in table)


def apply_entries(dim: int, entries: tuple[np.ndarray, np.ndarray, np.ndarray], vec: np.ndarray) -> np.ndarray:
    """The dim-row matrix with ``(rows, cols, values)`` entries applied to ``vec``, one
    ``np.add.at`` scatter-add."""
    rows, cols, vals = entries
    out = np.zeros(dim, dtype=complex)
    np.add.at(out, rows, vals * vec[cols])
    return out


def apply(op: FieldOperator, vec: np.ndarray) -> np.ndarray:
    """The field operator applied to a vector, one scatter-add over its entries."""
    return apply_entries(op.fock.dim, op._entries(), vec)


def phase_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> complex:
    """The commutator scalar: sum of exp(i p.(y-x)), in point order."""
    return sum(_phases(h, rows([y - x])[0]).tolist())


def sine_sum(h: Hyperboloid, x: Vec4, y: Vec4) -> float:
    """Sum of sin(p.(y-x)) over the points, in point order: exp of a purely imaginary
    argument has sin(p.(y-x)) as its imaginary part exactly."""
    return sum(_phases(h, rows([y - x])[0]).imag.tolist())


# The fock-verify gates one sample point or pair at a time, as the batched gates of
# causet_qft.fock once computed them: the same arithmetic in the same order.


def adjoint_defect_by_point(fock: FockSpace, points) -> float:
    """:func:`causet_qft.fock.adjoint_defect` one point at a time, from phi and psi."""
    (low, _), (up, up_w) = fock.ladder_maps["annihilates"], fock.ladder_maps["creates"]
    q, r, c, low_w = fock.ladder_entries["annihilates"]
    paired = up[q, r] == c
    q_up, c_up, r_up, w_up = fock.ladder_entries["creates"]
    orphans = low[q_up, c_up] != r_up

    def worst(x: Vec4) -> float:
        a, b = np.asarray(phi(x.coords(), fock).coeffs), np.asarray(psi(x.coords(), fock).coeffs)
        lowered = 0.0 + a[q] * low_w
        raised = 0.0 + b[q] * up_w[q, r]
        diff = np.where(paired, np.abs(raised - np.conj(lowered)), np.abs(lowered))
        orphan = np.abs(0.0 + b[q_up[orphans]] * w_up[orphans])
        return max(float(np.max(diff, initial=0.0)), float(np.max(orphan, initial=0.0)))

    return max(worst(x) for x in points)


def identity_defect_by_pair(fock: FockSpace, flat: np.ndarray, terms: np.ndarray, scalar: complex) -> float:
    """Largest |entry| of C - scalar * I on the truncation-safe sectors, C the ``terms``
    summed at their flat positions by ``np.add.at``; a safe diagonal entry with no term
    counts at |scalar|."""
    end = fock.safe_sector_end()
    safe = flat < end * fock.dim
    safe[safe] = flat[safe] % fock.dim < end
    positions, where = np.unique(flat[safe], return_inverse=True)
    entries = np.zeros(len(positions), dtype=complex)
    np.add.at(entries, where, terms[safe])
    diagonal = positions % (fock.dim + 1) == 0
    entries[diagonal] -= scalar
    bare = float(np.abs(np.complex128(scalar))) if np.count_nonzero(diagonal) < end else 0.0
    return max(float(np.max(np.abs(entries), initial=0.0)), bare)


def phase_sum_defect_by_pair(fock: FockSpace, pairs) -> float:
    """:func:`causet_qft.fock.phase_sum_defect` one pair at a time."""
    return max(
        identity_defect_by_pair(
            fock, *bracket_terms(phi(x.coords(), fock), psi(y.coords(), fock)), phase_sum(fock.hyperboloid, x, y)
        )
        for x, y in pairs
    )


def xi_entries_by_point(x: Vec4, fock: FockSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi(x)'s entries from its two field operators: phi's, then psi's."""
    return tuple(np.concatenate(parts) for parts in zip(*(field(x.coords(), fock)._entries() for field in (phi, psi))))


def xi_bracket_by_pair(fock: FockSpace, x: Vec4, y: Vec4) -> tuple[np.ndarray, np.ndarray]:
    """The [xi(x), xi(y)] terms of its four field brackets' tables, [psi(x), phi(y)] as
    -[phi(y), psi(x)]."""
    (phi_x, psi_x), (phi_y, psi_y) = ((phi(v.coords(), fock), psi(v.coords(), fock)) for v in (x, y))
    flat, terms = bracket_terms(phi_y, psi_x)
    parts = [bracket_terms(phi_x, phi_y), bracket_terms(phi_x, psi_y), (flat, -terms), bracket_terms(psi_x, psi_y)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def xi_defects_by_pair(fock: FockSpace, pairs, rnd) -> tuple[float, float]:
    """:func:`causet_qft.fock.xi_defects` one pair at a time, v drawn per pair."""
    end, dim = fock.safe_sector_end(), fock.dim

    def pair_defects(x: Vec4, y: Vec4) -> tuple[float, float]:
        flat, terms = xi_bracket_by_pair(fock, x, y)
        identity = identity_defect_by_pair(fock, flat, terms, 2j * sine_sum(fock.hyperboloid, x, y))
        v = np.zeros(dim, dtype=complex)
        v[:end] = np.array([2.0 * rnd.random() - 1.0 for _ in range(2 * end)]).view(complex)
        rows, cols = np.divmod(flat, dim)
        safe = cols < end
        defect = apply_entries(dim, (rows[safe], cols[safe], -terms[safe]), v)
        xi_x, xi_y = xi_entries_by_point(x, fock), xi_entries_by_point(y, fock)
        defect += apply_entries(dim, xi_x, apply_entries(dim, xi_y, v))
        defect -= apply_entries(dim, xi_y, apply_entries(dim, xi_x, v))
        return identity, float(np.max(np.abs(defect)))

    identity, products = zip(*(pair_defects(x, y) for x, y in pairs))
    return max(identity), max(products)


@dataclass(frozen=True)
class PoincareElement:
    """Pair of a lattice translation and a spatial rotation, acting as x -> y + Yx."""

    translation: Vec4
    rotation: GroupElement


def rows(points) -> np.ndarray:
    """The (t, n, p, q) rows of m ``Vec4`` points as one (m, 4) int64 array, as the gates take them."""
    return np.array([p.coords() for p in points], dtype=np.int64).reshape(-1, 4)


def pair_rows(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The x rows and the y rows of m pairs (x, y) of ``Vec4`` points."""
    pairs = list(pairs)
    return rows(x for x, _ in pairs), rows(y for _, y in pairs)


def element_rows(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 2, 4) translation rows and the (m, 2) rotation indices of m pairs of
    ``PoincareElement``s, as :func:`causet_qft.fock.rep_v_defects` takes them."""
    pairs = list(pairs)
    translations = rows(g.translation for pair in pairs for g in pair).reshape(-1, 2, 4)
    return translations, np.array([[index(g.rotation) for g in pair] for pair in pairs], dtype=np.int64).reshape(-1, 2)


def multiply(y: GroupElement, z: GroupElement) -> GroupElement:
    """Product y*z, read from the product table."""
    return elements()[PRODUCT_INDEX[index(y), index(z)]]


def poincare_product(g1: PoincareElement, g2: PoincareElement) -> PoincareElement:
    """g1 g2 = (y1 + Y1 y2, Y1 Y2), one pair of elements at a time."""
    return PoincareElement(g1.translation + apply4(g1.rotation, g2.translation), multiply(g1.rotation, g2.rotation))


def monomials_by_element(fock: FockSpace, group_elements) -> tuple[np.ndarray, np.ndarray]:
    """:func:`causet_qft.fock._monomials` of a list of ``PoincareElement``s."""
    translations = np.array([g.translation.coords() for g in group_elements], dtype=np.int64).reshape(-1, 4)
    return _monomials(fock, translations, np.array([index(g.rotation) for g in group_elements], dtype=np.int64))


def rep_v_defects_by_pair(fock: FockSpace, pairs) -> tuple[float, float, bool]:
    """:func:`causet_qft.fock.rep_v_defects` with each g1 g2 from :func:`poincare_product`,
    a pair's three actions one :func:`monomials_by_element` call."""
    unitarity = hom = 0.0
    block_diagonal = True
    sector_of = np.repeat(np.arange(fock.n_max + 1), np.diff(fock.offsets))
    for g1, g2 in pairs:
        (p1, p2, p12), (a1, a2, a12) = monomials_by_element(fock, [g1, g2, poincare_product(g1, g2)])
        shared = np.bincount(p1, minlength=fock.dim)[p1] > 1
        off_diagonal = float(np.max(np.abs(a1[shared]), initial=0.0)) ** 2
        unitarity = max(unitarity, off_diagonal, float(np.max(np.abs((a1.conj() * a1).real - 1.0))))
        prod = a1[p2] * a2
        defect = np.where(p1[p2] == p12, np.abs(prod - a12), np.maximum(np.abs(prod), np.abs(a12)))
        hom = max(hom, float(np.max(defect)))
        block_diagonal = block_diagonal and bool(np.all(sector_of[p1] == sector_of))
    return unitarity, hom, block_diagonal


def rep_v(y: Vec4, rot: GroupElement, fock: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Unitary symmetry action as ``(perm, amp)``, the monomial V[perm[c], c] = amp[c]:
    the rotation permutes each multiset's points (so V is block-diagonal over sectors)
    and the translation multiplies in the phases of the mapped points; ``perm`` is
    read-only."""
    amp = monomials_by_element(fock, [PoincareElement(y, rot)])[1][0]  # raises if the points leave
    return fock._sector_permutations[1][index(rot)], amp


def poincare_apply(g: PoincareElement, x: Vec4) -> Vec4:
    """The Poincare element's action x -> y + Yx on one spacetime vector."""
    return g.translation + apply4(g.rotation, x)


def window_slice(cfg: InteractionConfig, t: int) -> tuple[Vec4, ...]:
    """Cone vertices at time t within the configured spatial radius, one ``Vec4`` each."""
    return tuple(Vec4(*row) for row in _window_rows(cfg, t).tolist())


def interaction_hamiltonian(model: ScatteringModel, t: int) -> np.ndarray:
    """H(t) as a dense D x D matrix: g * (pi field squared) tensor (sigma field), summed
    over the window slice.  Each nonzero sigma entry (i, j) adds its multiple of the
    squared pi field into the strided (i, j) block of the tensor-product index; the sum
    A is returned as (A + A^H) / 2."""
    cfg = model.cfg
    d_pi, d_sigma = model.pi_space.dim, model.sigma_space.dim
    out = np.zeros((model.dim, model.dim), dtype=complex)
    blocks = out.reshape(d_pi, d_sigma, d_pi, d_sigma)
    for x in window_slice(cfg, t):
        pi_x = xi_matrix(x, model.pi_space)
        sq = pi_x @ pi_x
        sigma_x = xi_matrix(x, model.sigma_space)
        for i, j in zip(*np.nonzero(sigma_x)):
            blocks[:, i, :, j] += cfg.coupling * (sq * sigma_x[i, j])
    return (out + out.conj().T) / 2


def hamiltonian_maxima(model: ScatteringModel, hams) -> dict[str, float]:
    """The three maxima over dense H(t)'s that a series carries: max|H - H^H|, max|H[g.i, g.j]
    - H[i, j]| for g in ``GENERATORS`` (g.i from each sector's permutations) and max|H|."""
    images = []
    for label in GENERATORS:
        image = np.empty(model.dim, dtype=np.int64)
        for ix, perms in zip(model.sectors, model.sector_permutations):
            image[ix] = ix[perms[symmetry.index(label)]]
        images.append(image)

    def worst(values) -> float:
        return max(values, default=0.0)

    return {
        "hamiltonian_adjoint_defect": worst(float(np.max(np.abs(h - h.conj().T), initial=0.0)) for h in hams),
        "hamiltonian_rotation_defect": worst(
            float(np.max(np.abs(h[np.ix_(g, g)] - h), initial=0.0)) for g in images for h in hams
        ),
        "hamiltonian_max_abs": worst(float(np.max(np.abs(h), initial=0.0)) for h in hams),
    }


def dense_series(model: ScatteringModel) -> ScatteringSeries:
    """The series on dense D x D matrices, as the library built it before the graded layout:
    one step loop for the orders (order k updated from order k - 1 before that one
    changes), S(n) and each S(k)'s max|S^H S - I|, then the chain at every root of unity
    w != 1 of order n + 1 against the sum of w^k times order k."""
    n = model.cfg.horizon
    dim = model.dim
    eye = np.eye(dim, dtype=complex)
    hams = [interaction_hamiltonian(model, t) for t in range(n)]

    orders = [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    final, factor, unitarity = eye, np.empty_like(eye), [0.0]
    for t, h in enumerate(hams):
        np.multiply(1j, h, out=factor)
        for k in range(t + 1, 0, -1):
            orders[k] += factor @ orders[k - 1]
        factor.flat[:: dim + 1] += 1
        final = factor @ final
        np.matmul(final.conj().T, final, out=factor)
        factor.flat[:: dim + 1] -= 1
        unitarity.append(float(np.max(np.abs(factor))))

    rotated = 0.0
    chain, spare = np.empty_like(eye), np.empty_like(eye)
    for j in range(1, n + 1):
        w = np.exp(2j * np.pi * j / (n + 1))
        chain[...] = eye
        for h in hams:
            np.multiply(h, 1j * w, out=factor)
            factor.flat[:: dim + 1] += 1
            np.matmul(factor, chain, out=spare)
            chain, spare = spare, chain
        for order, w_k in zip(orders, w ** np.arange(n + 1)):
            chain -= np.multiply(order, w_k, out=factor)
        rotated = max(rotated, float(np.max(np.abs(chain))))
    return ScatteringSeries(
        final=final,
        final_orders=tuple(orders),
        final_max_abs=float(np.max(np.abs(final))),
        rotated_coupling_defect=rotated,
        order_sum_defect=float(np.max(np.abs(sum(orders) - final))),
        unitarity_defects=tuple(unitarity),
        **hamiltonian_maxima(model, hams),
    )


def densify(model: ScatteringModel, blocks, parity: int) -> np.ndarray:
    """A graded operator of Q-parity ``parity`` as a dense D x D matrix: block s fills
    the rows of sector s ^ parity and the columns of sector s, zeros elsewhere."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for s, block in enumerate(blocks):
        out[np.ix_(model.sectors[s ^ parity], model.sectors[s])] = block
    return out


def _step(ih, even, odd) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(I + iH) X for X = even + odd, as new blocks: the even part gains iH times the odd
    part, the odd part iH times the even part."""
    return (
        [e + ih[s ^ 1] @ o for s, (e, o) in enumerate(zip(even, odd))],
        [o + ih[s] @ e for s, (e, o) in enumerate(zip(even, odd))],
    )


def graded_unitarity_defect(even, odd) -> float:
    """max|S^H S - I| for S = even + odd on whole parity blocks.  Column sector s of S is
    even[s] in rows s and odd[s] in rows s ^ 1, so S^H S has two nonzero blocks per
    column: (s, s) and (s ^ 1, s), the latter taken for even s only (S^H S is self-adjoint)."""
    worst = 0.0
    for s, (e, o) in enumerate(zip(even, odd)):
        gram = e.conj().T @ e + o.conj().T @ o
        gram.flat[:: len(gram) + 1] -= 1
        worst = max(worst, _max_abs([gram]))
        if s % 2 == 0:
            worst = max(worst, _max_abs([even[s + 1].conj().T @ o + odd[s + 1].conj().T @ e]))
    return worst


def graded_series(model: ScatteringModel) -> ScatteringSeries:
    """The series on whole parity blocks, as the library built it before the orbit columns:
    orders t + 1 down to 1 updated in place at step t, S(n) and each S(k)'s unitarity
    defect, then the chain at every root of unity w != 1 of order n + 1 against the sum
    of w^k times order k.  Block s of every operator holds all of sector s's columns."""
    n = model.cfg.horizon
    dims = model.sector_dims
    hams = [block_hamiltonian(model, t) for t in range(n)]

    def zeros(parity: int) -> list[np.ndarray]:
        return [np.zeros((dims[s ^ parity], dims[s]), dtype=complex) for s in range(4)]

    eye = [np.eye(d, dtype=complex) for d in dims]
    orders = [eye] + [zeros(k % 2) for k in range(1, n + 1)]
    even, odd, unitarity = eye, zeros(1), [0.0]
    for t, h in enumerate(hams):
        ih = [1j * b for b in h]
        for k in range(t + 1, 0, -1):
            below = (k - 1) % 2
            for s, (order, prev) in enumerate(zip(orders[k], orders[k - 1])):
                order += ih[s ^ below] @ prev
        even, odd = _step(ih, even, odd)
        unitarity.append(graded_unitarity_defect(even, odd))

    rotated = 0.0
    for j in range(1, n + 1):
        w = np.exp(2j * np.pi * j / (n + 1))
        chain = (eye, zeros(1))
        for h in hams:
            chain = _step([b * (1j * w) for b in h], *chain)
        powers = w ** np.arange(n + 1)
        for parity, part in enumerate(chain):
            for k in range(parity, n + 1, 2):
                for block, order in zip(part, orders[k]):
                    block -= order * powers[k]
            rotated = max(rotated, _max_abs(part))
    summed = max(
        _max_abs(sum(order[s] for order in orders[parity::2]) - part[s] for s in range(4))
        for parity, part in enumerate((even, odd))
    )
    return ScatteringSeries(
        final=(tuple(even), tuple(odd)),
        final_orders=tuple(tuple(order) for order in orders),
        final_max_abs=max(_max_abs(even), _max_abs(odd)),
        rotated_coupling_defect=rotated,
        order_sum_defect=summed,
        unitarity_defects=tuple(unitarity),
        **hamiltonian_maxima(model, [densify(model, h, 1) for h in hams]),
    )


def expand(model: ScatteringModel, blocks, parity: int) -> list[np.ndarray]:
    """Whole parity blocks of a G-invariant operator of Q-parity ``parity`` from its blocks
    at the representative columns: the column of state i = g.r is P_g times column r,
    so its entry at row g.x is column r's entry at row x."""
    out = []
    for s, block in enumerate(blocks):
        reps, element, rep = model.orbits[s]
        rows = model.sector_permutations[s ^ parity][element]  # row i: the g of state i
        full = np.empty((model.sector_dims[s ^ parity], model.sector_dims[s]), dtype=complex)
        full[rows.T, np.arange(len(rep))] = block[:, np.searchsorted(reps, rep)]
        out.append(full)
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


def poincare_identity(identity_rotation: GroupElement) -> PoincareElement:
    return PoincareElement(ORIGIN, identity_rotation)


def poincare_inverse(g: PoincareElement) -> PoincareElement:
    rot_inv = inverse(g.rotation)
    return PoincareElement(ORIGIN - apply4(rot_inv, g.translation), rot_inv)


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


def units_triads_triples() -> tuple[tuple[Vec3, ...], tuple[frozenset[Vec3], ...], tuple[Triple, ...]]:
    """The unit vectors, the triads and the positively oriented triples, one object at a time.

    Units are the norm-1 points of the box [-2, 2]^3 in coordinate order; a triad is a
    3-subset of units with pairwise doubled inner product 1; its triples are the
    orderings whose member-column matrix has Leibniz determinant 1.
    """
    units = sorted(
        (Vec3(*c) for c in itertools.product(range(-2, 3), repeat=3) if norm_sq3(Vec3(*c)) == 1),
        key=Vec3.coords,
    )
    triad_list = [
        frozenset(c)
        for c in itertools.combinations(units, 3)
        if all(inner3_doubled(a, b) == 1 for a, b in itertools.combinations(c, 2))
    ]
    trips = [
        Triple(*perm)
        for triad in triad_list
        for perm in itertools.permutations(sorted(triad, key=Vec3.coords))
        if leibniz_det([[v.coords()[i] for v in perm] for i in range(3)]) == 1
    ]
    trips.sort(key=lambda t: tuple(v.coords() for v in t.members()))
    return tuple(units), tuple(triad_list), tuple(trips)


def basis_change() -> tuple[np.ndarray, np.ndarray]:
    """The published pair (U, U^-1) converting Cartesian <-> lattice coordinates."""
    return np.array(paperdata.U_MATRIX), np.array(paperdata.U_INVERSE)


def cal_u(z: GroupElement) -> np.ndarray:
    """Rotation matrix of ``z`` in Cartesian coordinates, U^-1 M U from its own matrix."""
    u, u_inv = basis_change()
    return u_inv @ np.array(z.matrix) @ u


class SignConvention(Enum):
    """How the global sign of a spinor value is fixed.

    CANONICAL: the first entry of (Re a, Im a, Re b, Im b) larger than 1e-7
    in magnitude is made positive.  PRINTED: follow the published listing's
    choice whenever the printed matrix is a faithful lift; fall back to
    CANONICAL for entries the source misprints.
    """

    CANONICAL = "canonical"
    PRINTED = "printed"


@dataclass(frozen=True)
class Spinor2:
    """SU(2) value [[a, b], [-conj(b), conj(a)]] at one group element."""

    label: str
    a: complex
    b: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]])


def spinor_of(z: GroupElement, convention: SignConvention = SignConvention.CANONICAL) -> Spinor2:
    """Spinor value of ``z`` under ``convention``, solved from :func:`cal_u` of ``z`` alone;
    the printed sign is read off :func:`printed_spinor_rows`' row of ``z``."""
    spinor = Spinor2(z.label, *_canonicalize(*_solve_spinor(cal_u(z))))
    if convention is SignConvention.PRINTED and printed_spinor_rows()[index(z)]["printed_sign"] < 0:
        return Spinor2(z.label, -spinor.a, -spinor.b)
    return spinor


def eigensystem(z: GroupElement) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (sorted by principal argument) and eigenvectors of cal_u(z)."""
    vals, vecs = np.linalg.eig(cal_u(z))
    order = sorted(range(3), key=lambda i: (_principal_angle(vals[i]), i))
    return vals[order], vecs[:, order]


def unitary3_defect_by_element(rotations) -> float:
    """Worst |R^H R - I| entry over the 24 rotations R in label order, one at a time."""
    worst = 0.0
    for m in rotations:
        worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(3)))))
    return worst


def homomorphism_defect_by_pairs(rotations) -> float:
    """Worst | calU(YZ) - calU(Y) calU(Z) | entry over the 24 rotations in label order,
    one pair at a time."""
    worst = 0.0
    for y in elements():
        for z in elements():
            product = rotations[index(multiply(y, z))] - rotations[index(y)] @ rotations[index(z)]
            worst = max(worst, float(np.max(np.abs(product))))
    return worst


def spinor_matrices(convention: SignConvention) -> dict[str, np.ndarray]:
    """Each element's :func:`spinor_of` matrix under ``convention``, by label."""
    return {z.label: spinor_of(z, convention).matrix for z in elements()}


def projective_check_by_pairs(mats: dict[str, np.ndarray]) -> dict:
    """Worst residual of R(YZ) = +-R(Y)R(Z) and the sign cocycle over the spinor matrices
    ``mats`` by label, one pair at a time."""
    cocycle: dict[tuple[str, str], int] = {}
    worst = 0.0
    for y in elements():
        for z in elements():
            target = mats[multiply(y, z).label]
            prod = mats[y.label] @ mats[z.label]
            d_plus = float(np.max(np.abs(prod - target)))
            d_minus = float(np.max(np.abs(prod + target)))
            worst = max(worst, min(d_plus, d_minus))
            cocycle[(y.label, z.label)] = 1 if d_plus <= d_minus else -1
    return {"worst_residual": worst, "cocycle": cocycle}


def printed_spinor_rows(tol: float = 1e-9) -> list[dict]:
    """The canonical spinor values against the printed listing, one element at a time:
    the printed matrix p's SU(2) form, its distance up to sign, and its sign (0 when p
    is corrupt)."""
    rows = []
    for z in elements():
        canonical = spinor_of(z).matrix
        p = np.array(paperdata.SPINOR_PRINTED[z.label])
        valid = bool(
            np.max(np.abs(p.conj().T @ p - np.eye(2))) < tol
            and abs(np.linalg.det(p) - 1.0) < tol
            and abs(p[1, 1] - p[0, 0].conjugate()) < tol
            and abs(p[1, 0] + p[0, 1].conjugate()) < tol
        )
        d_plus, d_minus = np.max(np.abs(p - canonical)), np.max(np.abs(p + canonical))
        diff = float(min(d_plus, d_minus))
        sign = 0 if not valid or diff >= tol else (1 if d_plus < d_minus else -1)
        rows.append(
            {
                "label": z.label,
                "printed_valid_form": valid,
                "matches_up_to_sign": diff < tol,
                "max_abs_diff": diff,
                "printed_sign": sign,
            }
        )
    return rows


ZERO3 = Vec3(0, 0, 0)


def basic_triple() -> Triple:
    return Triple(E3, F3, G3)


def to_cartesian3(u: Vec3) -> tuple[float, float, float]:
    """Cartesian embedding of a lattice vector via the published basis."""
    e, f, g = paperdata.BASIS_CARTESIAN
    return tuple(u.n * e[i] + u.p * f[i] + u.q * g[i] for i in range(3))


def cartesian_norm_sq(u: Vec3) -> float:
    x, y, z = to_cartesian3(u)
    return x * x + y * y + z * z


# ---------------------------------------------------------------- rendering


def plain(obj):
    """Recursively convert report values into JSON-encodable structures."""
    if isinstance(obj, complex):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.complexfloating,)):
        return plain(complex(obj))
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, dict):
        return {_key(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def render_json(bundle) -> str:
    """The report as ``json.dumps`` lays out its converted copy."""
    return json.dumps(plain(bundle), indent=2, sort_keys=True) + "\n"


def render_text(bundle) -> str:
    """The report as indented ``key: value`` and ``- item`` lines of its converted copy."""
    return "\n".join(_text_lines(plain(bundle))) + "\n"


def _text_lines(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_fmt_scalar(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(v)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
    return lines


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _fmt_scalar(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_scalar(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt_scalar(x)}" for k, x in v.items()) + "}"
    if isinstance(v, float):
        return repr(v)
    return str(v)
