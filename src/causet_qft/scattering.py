"""Discrete-time scattering: step products, their orders and amplitudes, on orbit columns.

S obeys S(k+1) = (I + iH(k))S(k) from the identity.  One step loop builds S, its orders
in the coupling (order k picks up one factor of H per step, so per-order amplitudes are
bookkeeping) and the products with the coupling turned through the (n+1)-th roots of
unity, which check every order.  The interaction g (pi field)^2 (x) (sigma field) maps
sector s = 2P + Q (P, Q the pi- and sigma-number parities) to s ^ 1, so H(t) is four
dense blocks and order k maps s to s ^ (k mod 2).  The window slice is a norm ball and
both hyperboloids are closed under the 24 rotations of G, so H(t), the orders and S
commute with the tensor permutations P_g: X[g.i, g.j] = X[i, j].  They are held at the
representative columns of each sector's G-orbits; the column at g.r is P_g times the
one at r.  The step loop builds each H(t), measures it and multiplies it in before it
builds the next, so the series holds one H(t) at a time and keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symmetry
from .fock import _ROLES, FockSpace, _phases, fock_space
from .lattice import require_memory, vectors_with_norm_up_to
from .momentum import Hyperboloid, hyperboloid

__all__ = [
    "InteractionConfig",
    "ScatteringModel",
    "ScatteringSeries",
    "build_model",
    "interaction_hamiltonian",
    "scattering_series",
    "self_adjoint_defect",
    "GENERATORS",
    "rotation_defect",
    "AmplitudeReport",
    "amplitude",
    "order_parity_check",
]


@dataclass(frozen=True)
class InteractionConfig:
    """Couplings, truncations and the spacetime window of the model."""

    coupling: float
    pi_mass_sq: int
    sigma_mass_sq: int
    energy_cap: int
    pi_particle_cap: int
    sigma_particle_cap: int
    window_radius: int
    horizon: int

    def validate(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.window_radius < 0:
            raise ValueError("window radius must be nonnegative")
        if self.pi_particle_cap < 2 or self.sigma_particle_cap < 1:
            raise ValueError("truncation caps too small to represent the interaction: need at "
                             "least two pi particles and one sigma particle")
        if self.pi_mass_sq < 0 or self.sigma_mass_sq < 0:
            raise ValueError("squared masses must be nonnegative")


def _window_rows(cfg: InteractionConfig, t: int) -> np.ndarray:
    """The window slice, the cone vertices at time t within the configured spatial radius,
    as lexicographic (t, n, p, q) int64 rows."""
    cap = min(t, cfg.window_radius)
    return np.insert(vectors_with_norm_up_to(cap * cap), 0, t, axis=1)


@dataclass(frozen=True)
class ScatteringModel:
    """Tensor-product arena with the per-time-slice interaction Hamiltonians."""

    cfg: InteractionConfig
    pi_space: FockSpace
    sigma_space: FockSpace

    @property
    def dim(self) -> int:
        return self.pi_space.dim * self.sigma_space.dim

    @cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Tensor-basis indices of sector s = 2P + Q, ascending: the pi states of
        particle-number parity P times the sigma states of parity Q."""
        pi, sigma = (_parity_split(space)[0] for space in (self.pi_space, self.sigma_space))
        return tuple(
            (np.flatnonzero(pi == p)[:, None] * self.sigma_space.dim + np.flatnonzero(sigma == q)).ravel()
            for p in (0, 1) for q in (0, 1)
        )

    @property
    def sector_dims(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.sectors)

    @cached_property
    def sector_permutations(self) -> tuple[np.ndarray, ...]:
        """Row g of sector s's (24, |s|) array: the index in s of each state's image under
        P_g = P_g^pi (x) P_g^sigma, g in ``symmetry.MATRICES`` order."""
        local, n_sigma = np.empty(self.dim, dtype=np.int64), self.sigma_space.dim
        for ix in self.sectors:
            local[ix] = np.arange(len(ix))
        pi, sigma = self.pi_space._sector_permutations[1], self.sigma_space._sector_permutations[1]
        return tuple(local[pi[:, ix // n_sigma] * n_sigma + sigma[:, ix % n_sigma]] for ix in self.sectors)

    @cached_property
    def orbits(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Each sector's G-orbits, as ``symmetry.orbits`` gives them."""
        return tuple(symmetry.orbits(perms) for perms in self.sector_permutations)

    @cached_property
    def _hamiltonian_terms(self) -> tuple:
        """The terms of H(t)'s blocks 2P out of the even-sigma sectors, placed once: a pi
        path X_q Y_r of :meth:`FockSpace.product_table` times a sigma ladder entry Z_u out
        of an even-sigma state, worth g K[(X, Y, q, r), (Z, u)] times the two weights in
        slice t, K the phase sums.  The sigma entries' (keys, weights, offsets per block)
        and each P's paths' (keys, offsets, weights), int32 where they fit."""
        pi, sigma = self.pi_space, self.sigma_space
        (pi_parity, pi_local), (sigma_parity, sigma_local) = _parity_split(pi), _parity_split(sigma)
        n_pi, n_sigma = np.bincount(pi_parity, minlength=2), np.bincount(sigma_parity, minlength=2)
        widths = n_pi * n_sigma[0]  # the columns of blocks 0 and 2
        index = np.int32 if max(widths * n_pi * n_sigma[1]) < 2**31 else np.int64

        (u, rows, cols, weight), z = _joined([sigma.ladder_entries[role] for role in _ROLES])
        even = sigma_parity[cols] == 0
        rows, cols = sigma_local[rows[even]], sigma_local[cols[even]]
        offsets = [(rows * width + cols).astype(index) for width in widths]
        sigma_terms = ((z * len(sigma.hyperboloid) + u)[even], weight[even], offsets)

        d = len(pi.hyperboloid)
        (rows, cols, q, r, weight), xy = _joined([pi.product_table(x, y) for x in _ROLES for y in _ROLES])
        parity = pi_parity[cols]
        keys = ((xy * d + q) * d + r).astype(index)
        offsets = (pi_local[rows] * n_sigma[1] * widths[parity] + pi_local[cols] * n_sigma[0]).astype(index)
        return sigma_terms, [(keys[parity == p], offsets[parity == p], weight[parity == p]) for p in (0, 1)]


def _fixed_states(h: Hyperboloid, cap: int) -> list[tuple[int, int]]:
    """The even and odd states each rotation (identity first) fixes in the Fock space over
    h: unions of its point cycles, counted by the product over cycles of 1 / (1 - x^length)."""
    perms, fixed = h.rotation_images, []
    length, image, k = np.zeros(perms.shape, dtype=np.int64), perms, 1
    while not length.all():  # each point's cycle length under each rotation
        length[(length == 0) & (image == np.arange(len(h)))] = k
        image, k = np.take_along_axis(perms, image, axis=1), k + 1
    for row in length:
        coefficients = [1] + [0] * cap
        for size, points in enumerate(np.bincount(row).tolist()[1:], start=1):
            for _ in range(points // size):  # one factor per cycle
                for n in range(size, cap + 1):
                    coefficients[n] += coefficients[n - size]
        fixed.append((sum(coefficients[0::2]), sum(coefficients[1::2])))
    return fixed


def _two_step_paths(d: int, cap: int) -> int:
    """Entries of the four ``FockSpace.product_table`` tables over d points.  Out of the C(n)
    states of n particles, lowering twice or lowering then raising gives d^2 C(n - 2) and
    d^2 C(n - 1); raising then lowering sums the squared supports of n + 1, d C(n) + d (d - 1)
    C(n - 1); raising twice d^2 C(n)."""
    states = [0, 0] + [math.comb(d + n - 1, n) for n in range(cap + 1)]  # C(n) at n + 2
    return sum(
        d * d * (states[n] + states[n + 1]) + (n < cap) * (d * states[n + 2] + d * (d - 1) * states[n + 1])
        + (n < cap - 1) * d * d * states[n + 2]
        for n in range(cap + 1)
    )


def _parity_split(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Each basis state's particle-number parity, and its index among the states of that parity."""
    parity = np.repeat(np.arange(space.n_max + 1) % 2, np.diff(space.offsets))
    local = np.empty(space.dim, dtype=np.int64)
    for p in (0, 1):
        local[parity == p] = np.arange(np.count_nonzero(parity == p))
    return parity, local


def build_model(cfg: InteractionConfig) -> ScatteringModel:
    """The model, or a ``ValueError`` before any sector exists when the series would
    outgrow physical memory.  Its traced peak stays below the held items (n // 2 + n + 2
    per orbit of s, |s| + |s ^ 1| rows each), the larger of a step (one H(t), sum |s|
    |s ^ 1| complex entries, beside the items' products with it) and one unitarity check,
    the larger of one more H(t) (building and measuring one) and numpy's ufunc buffer
    (a broadcast operation's), 51 int64 per state, 24 per Fock state and 16 bytes per H
    term, within one H(t); orbits by Burnside."""
    cfg.validate()
    # the spaces are lazy: building them first only checks that neither hyperboloid is empty
    pi_space = fock_space(hyperboloid(cfg.pi_mass_sq, cfg.energy_cap), cfg.pi_particle_cap)
    sigma_space = fock_space(hyperboloid(cfg.sigma_mass_sq, cfg.energy_cap), cfg.sigma_particle_cap)
    pi_h, sigma_h = pi_space.hyperboloid, sigma_space.hyperboloid
    pi, sigma = _fixed_states(pi_h, cfg.pi_particle_cap), _fixed_states(sigma_h, cfg.sigma_particle_cap)
    dims = [a * b for a in pi[0] for b in sigma[0]]  # Python integers, which cannot overflow
    w = [sum(f[p] * e[q] for f, e in zip(pi, sigma)) // 24 for p in (0, 1) for q in (0, 1)]
    m, n = [dims[s] + dims[s ^ 1] for s in range(4)], cfg.horizon
    held = (n // 2 + n + 2) * sum(a * b for a, b in zip(m, w))
    gram = max(24 * w[s] * (m[s] + w[s] + w[s ^ 1]) + 2 * m[s] * (w[s] + w[s ^ 1]) for s in range(4))
    h = sum(dims[s] * dims[s ^ 1] for s in range(4))
    entries = held + max(h + held, gram) + max(h, np.getbufsize())
    indices = 51 * sum(dims) + 24 * (sum(pi[0]) + sum(sigma[0]))
    need = 16 * (entries + _two_step_paths(len(pi_h), cfg.pi_particle_cap)) + 8 * indices
    require_memory(need, f"the scattering series at D = {sum(dims)}")
    return ScatteringModel(cfg=cfg, pi_space=pi_space, sigma_space=sigma_space)


def _joined(tables) -> tuple[list[np.ndarray], np.ndarray]:
    """The columns of tables of equal width, end to end, and each row's table index."""
    return [np.concatenate(c) for c in zip(*tables)], np.repeat(np.arange(len(tables)), [len(t[0]) for t in tables])


def interaction_hamiltonian(model: ScatteringModel, t: int) -> tuple[np.ndarray, ...]:
    """g (pi field)^2 (x) (sigma field), summed over the window slice, as its four blocks
    (block s maps sector s to s ^ 1).  With pi_x = sum of c^X_q(x) X_q over roles X and
    points q, and sigma_x alike, H(t) = g sum of K[X, Y, q, r, Z, u] X_q Y_r (x) Z_u,
    where the slice's phase sums K are one ``einsum``; a block is one gather of K and one
    ``bincount`` per part.  Only the blocks C out of sectors 0 and 2 are summed, and C^H
    is returned for the blocks back: H is exactly self-adjoint by construction."""
    cfg = model.cfg
    rows = _window_rows(cfg, t)
    # (2, W, d): each point's lowering and raising coefficients e^{-ip.x}, e^{ip.x} per window row
    phases = (_phases(space.hyperboloid, rows) for space in (model.pi_space, model.sigma_space))
    pi_c, sigma_c = (np.stack([p.conj(), p]) for p in phases)
    d, d_sigma = pi_c.shape[2], sigma_c.shape[2]
    phase_sums = np.einsum("axq,bxr,zxu->abqrzu", pi_c, pi_c, sigma_c).reshape(4 * d * d, 2 * d_sigma)
    (sigma_keys, sigma_weights, sigma_offsets), paths = model._hamiltonian_terms
    phase_sums = phase_sums[:, sigma_keys] * (cfg.coupling * sigma_weights)
    dims = model.sector_dims
    blocks = []
    for p, (keys, offsets, weights) in enumerate(paths):
        terms = phase_sums[keys] * weights[:, None]
        at = (offsets[:, None] + sigma_offsets[p]).ravel()
        c = np.empty(dims[2 * p + 1] * dims[2 * p], dtype=complex)
        c.real = np.bincount(at, terms.real.ravel(), len(c))
        c.imag = np.bincount(at, terms.imag.ravel(), len(c))
        c = c.reshape(dims[2 * p + 1], dims[2 * p])
        blocks += [c, c.conj().T]
    return tuple(blocks)


@dataclass(frozen=True)
class ScatteringSeries:
    """The orders, S(n) as its (even, odd) parts, max|S(n)|, the defects, and H(0..n-1)'s
    self-adjoint and rotation defects and max|H|, each taken before the next H(t) is built;
    block s of order k: the rows of sector s ^ (k mod 2) at sector s's representatives."""

    final: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    final_orders: tuple[tuple[np.ndarray, ...], ...]
    final_max_abs: float
    rotated_coupling_defect: float
    order_sum_defect: float
    unitarity_defects: tuple[float, ...]
    hamiltonian_adjoint_defect: float
    hamiltonian_rotation_defect: float
    hamiltonian_max_abs: float


def _max_abs(blocks) -> float:
    """Largest |entry| over the blocks, arrays or numbers; 0.0 when they hold none and NaN
    when one is NaN, where Python's ``max`` keeps whichever argument comes first."""
    return float(np.max([np.max(np.abs(b), initial=0.0) for b in blocks], initial=0.0))


def scattering_series(model: ScatteringModel) -> ScatteringSeries:
    """S, its orders and chains j = 0..n, the products of (I + i w_j H(t)), w_j = exp(2 pi
    i j / (n + 1)), in one loop.  Row sector r holds, one row per representative column,
    the items of column sector r (even orders, chains' even parts) and r ^ 1 (odd orders,
    odd parts), so a step is one product with H(t)'s block r per sector; order k gains
    i H(t) times order k - 1 and chain j i w_j H(t) times itself.  Chain 0 is S.  Chain j
    must be the sum of w_j^k times order k: ``order_sum_defect`` is the worst entry off
    at w = 1 and ``rotated_coupling_defect`` at the other roots, which bounds every order.
    Each H(t) is built, measured and multiplied in, and dropped before the next is built."""
    n, dims = model.cfg.horizon, model.sector_dims
    width = [len(orbit[0]) for orbit in model.orbits]
    half = n // 2 + 1  # orders 0, 2, ..., 2 half - 2 and 1, 3, ..., 2 half - 1
    count = half + n + 1  # items per column sector
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    scale = 1j * np.concatenate([np.ones(half), roots])[:, None, None]

    def items(held: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:  # (item, column, row) views
        cut, rows = count * width[r], held.shape[1]
        return held[:cut].reshape(count, width[r], rows), held[cut:].reshape(count, width[r ^ 1], rows)

    def step(h) -> None:
        for r, product in enumerate([held[r] @ h[r].T for r in range(4)]):
            even, odd = items(product, r)
            even *= scale
            odd *= scale
            to_even, to_odd = parts[r ^ 1]  # column sectors r ^ 1 and r
            to_odd += even  # order 2i to 2i + 1, each chain's even part to its odd part
            to_even[1:half] += odd[: half - 1]  # order 2i + 1 to 2i + 2
            to_even[half:] += odd[half:]

    held = [np.zeros((count * (width[r] + width[r ^ 1]), dims[r]), dtype=complex) for r in range(4)]
    parts = [items(held[r], r) for r in range(4)]
    for (reps, _, _), (even, _) in zip(model.orbits, parts):  # order 0 and the chains start as I
        even[np.r_[0, half:count][:, None], np.arange(len(reps)), reps] = 1
    columns = [[part[half] for part in pair] for pair in parts]  # S, chain 0
    defects, measured = [_unitarity_defect(model, columns)], []
    for t in range(n):
        h = interaction_hamiltonian(model, t)
        measured.append((self_adjoint_defect(h), rotation_defect(model, h), _max_abs(h[0::2])))
        step(h)
        del h  # the unitarity check and the next build run without it
        defects.append(_unitarity_defect(model, columns))
    worst = []  # per item, the worst entry off at each root
    for first, part in (item for pair in parts for item in enumerate(pair)):
        powers = roots[:, None] ** np.arange(first, 2 * half, 2)  # powers of the rounded w
        gap = part[half:] - np.einsum("jk,kcx->jcx", powers, part[:half])
        worst.append(np.max(np.abs(gap), axis=(1, 2), initial=0.0))

    def blocks(k: int, item: int) -> tuple[np.ndarray, ...]:
        return tuple(parts[s ^ k % 2][k % 2][item].T for s in range(4))

    final = (blocks(0, half), blocks(1, half))
    worst = np.max(worst, axis=0)  # per root, NaN when an item's is
    adjoint, rotation, largest = np.max(np.reshape(measured, (-1, 3)), axis=0, initial=0.0).tolist()
    return ScatteringSeries(
        final=final, final_orders=tuple(blocks(k, k // 2) for k in range(n + 1)),
        final_max_abs=_max_abs([*final[0], *final[1]]), rotated_coupling_defect=_max_abs(worst[1:]),
        order_sum_defect=float(worst[0]), unitarity_defects=tuple(defects),
        hamiltonian_adjoint_defect=adjoint, hamiltonian_rotation_defect=rotation, hamiltonian_max_abs=largest,
    )


def _unitarity_defect(model: ScatteringModel, columns) -> float:
    """max|S^H S - I| from S's columns in each row sector r (sector r's, then r ^ 1's):
    per column sector, one gather by the 24 row permutations and one product give every
    (S^H S)[g.a, b] = <P_g S e_a, S e_b>, less 1 where g.a = b, i.e. g fixes a = b."""
    dims, orbits, worst = model.sector_dims, model.orbits, []
    for s in (0, 2):
        perms = np.concatenate([model.sector_permutations[s], model.sector_permutations[s + 1] + dims[s]], axis=1)
        reps = np.concatenate([orbits[s][0], orbits[s + 1][0] + dims[s]])
        (e0, o0), (e1, o1) = columns[s], columns[s + 1]
        z = np.block([[e0, o1], [o0, e1]])  # columns of sectors s, s + 1 on the rows of both
        for lo, hi in ((0, len(orbits[s][0])), (len(orbits[s][0]), len(reps))):
            g, j = np.nonzero(perms[:, reps[lo:hi]] == reps[lo:hi])
            gram = z[lo:hi].take(perms, axis=1).reshape(24 * (hi - lo), len(z.T)) @ z.conj().T  # [b, g, a]
            gram.reshape(-1)[(j * 24 + g) * len(reps) + lo + j] -= 1
            worst.append(_max_abs([gram]))
    return _max_abs(worst)


def self_adjoint_defect(h: tuple[np.ndarray, ...]) -> float:
    """Worst |H - H^H| entry of one H(t), blocks 0 and 2 against the adjoints of 1 and 3
    (the reverse pairs are the same differences); 0.0 by construction."""
    return _max_abs(h[s] - h[s ^ 1].conj().T for s in (0, 2))


GENERATORS = ("A", "M")  # generate G: what commutes with both P_g commutes with all 24


def rotation_defect(model: ScatteringModel, h: tuple[np.ndarray, ...]) -> float:
    """Worst |P_g H P_g^T - H| entry of one H(t) for g in ``GENERATORS``, over blocks 0 and
    2, whose adjoints are 1 and 3.  Rounding-level, not zero: a term and its image add into
    their entries in different orders."""
    perms = model.sector_permutations
    images = [[p[symmetry.index(label)] for p in perms] for label in GENERATORS]
    return _max_abs(h[s][np.ix_(p[s + 1], p[s])] - h[s] for p in images for s in (0, 2))


@dataclass(frozen=True)
class AmplitudeReport:
    total: complex
    per_order: tuple[complex, ...]
    probability: float
    dims: tuple[int, int]


def amplitude(
    model: ScatteringModel, incoming: tuple[int, int], outgoing: tuple[int, int], series: ScatteringSeries
) -> AmplitudeReport:
    """<out| S |in> for two-particle states of the first species, each given by two
    pi-hyperboloid point indices (the caller keeps them on the hyperboloid), read from
    ``series``.  Each state is one tensor basis state of sector 0, its pi pair's rank with
    the sigma vacuum (index 0): |in> = e_{g.r}, so S|in> = P_g S e_r, paired with <out| at
    the rows g maps onto it in each row sector (none in sector 1)."""
    pi, n_sigma = model.pi_space, model.sigma_space.dim
    index_in, index_out = (pi.rank(2, np.sort([pair], axis=1))[0] * n_sigma for pair in (incoming, outgoing))
    reps, element, rep = model.orbits[0]
    local = np.searchsorted(model.sectors[0], index_in)
    g, column = element[local], np.searchsorted(reps, rep[local])
    out_rows = [model.sectors[p][model.sector_permutations[p][g]] == index_out for p in (0, 1)]

    def bracket(blocks, parity: int) -> complex:
        return complex(0.0 + np.vdot(out_rows[parity], blocks[0][:, column]))

    per_order = tuple(bracket(order, k % 2) for k, order in enumerate(series.final_orders))
    total = bracket(series.final[0], 0) + bracket(series.final[1], 1)
    return AmplitudeReport(total, per_order, float(abs(total) ** 2), (model.pi_space.dim, model.sigma_space.dim))


def order_parity_check(report: AmplitudeReport, incoming: tuple[int, int], outgoing: tuple[int, int]) -> dict:
    """Odd-order maximum (NaN when one is), |order 0| and order 2 of ``report``, and whether
    the in and out point-index pairs differ as sets."""
    return {
        "odd_order_max": _max_abs(report.per_order[1::2]),
        "order0": abs(report.per_order[0]),
        "order2": report.per_order[2] if len(report.per_order) > 2 else 0.0,
        "distinct_states": set(incoming) != set(outgoing),
    }
