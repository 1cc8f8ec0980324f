"""Discrete-time scattering: step products, their orders and amplitudes, held as parity blocks.

The scattering operator obeys the one-step recursion S(k+1) = (I + iH(k))S(k)
starting from the identity.  One step loop builds S, taking each S(k)'s unitarity
defect as it goes, and its orders in the interaction (order k picks up one factor
of H per step), so per-order amplitudes come from bookkeeping, not numerical
differentiation in the coupling; the series keeps the Hamiltonians, the orders and
S(n).  The product rebuilt with the coupling turned through the (n+1)-th roots of
unity checks every order.

The model interaction couples two scalar species on a tensor product of
truncated Fock spaces: the density at a spacetime point is the squared
self-adjoint field of the first species tensored with the field of the
second, scaled by the coupling constant.  The tensor basis splits into four
sectors s = 2P + Q by the pi-number parity P, which pi_x^2 keeps, and the
sigma-number parity Q, which sigma_x flips.  So H(t) maps sector s to s ^ 1 and
order k maps s to s ^ (k mod 2): an operator of Q-parity e is held as four
blocks, block s from sector s to s ^ e, and the other twelve blocks, exact zeros,
are never formed.  S(n) and the coupling-circle chain are (even, odd) pairs.
Amplitudes split the in/out vectors by sector for every order alike, so the
vanishing odd-order two-particle amplitudes are measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import FockSpace, _phases, basis_unit, fock_space, vacuum
from .lattice import Vec4, require_memory, vectors_with_norm_up_to
from .momentum import Hyperboloid, hyperboloid

__all__ = [
    "InteractionConfig",
    "ScatteringModel",
    "ScatteringSeries",
    "build_model",
    "interaction_hamiltonian",
    "scattering_series",
    "self_adjoint_defect",
    "two_pi_state",
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
            raise ValueError(
                "truncation caps too small to represent the interaction: need at "
                "least two pi particles and one sigma particle"
            )
        if self.pi_mass_sq < 0 or self.sigma_mass_sq < 0:
            raise ValueError("squared masses must be nonnegative")


def _window_rows(cfg: InteractionConfig, t: int) -> np.ndarray:
    """The window slice, the cone vertices at time t within the configured spatial radius,
    as lexicographic (t, n, p, q) int64 rows."""
    cap = min(t, cfg.window_radius)
    return np.insert(vectors_with_norm_up_to(cap * cap), 0, t, axis=1)


# Ladder roles in the order of their coefficients: lowering maps carry e^{-ip.x} in the
# field, as phi does, and raising maps e^{ip.x}, as psi does.
_ROLES = ("annihilates", "creates")


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
            for p in (0, 1)
            for q in (0, 1)
        )

    @property
    def sector_dims(self) -> tuple[int, ...]:
        return tuple(len(ix) for ix in self.sectors)

    @cached_property
    def _hamiltonian_terms(self) -> tuple:
        """The terms of H(t)'s blocks 2P out of the even-sigma sectors, placed once.

        A term is a two-step pi path X_q Y_r of :meth:`FockSpace.product_table` tensored
        with a sigma ladder entry Z_u out of an even-sigma state.  In slice t it is worth
        g K[(X, Y, q, r), (Z, u)] times the two weights, K the phase sums, at the path's
        offset plus the entry's in block 2P, P the path's pi parity.  Returns the sigma
        entries' (keys, weights, offsets per block) and each P's paths' (keys, offsets,
        weights), with int32 keys and offsets where they fit."""
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


def _parity_dims(points: int, cap: int) -> tuple[int, int]:
    """Numbers of basis states of even and of odd particle number in the Fock space over
    ``points`` points with at most ``cap`` particles: C(points + n - 1, n) hold n."""
    sizes = [math.comb(points + n - 1, n) for n in range(1, cap + 1)]
    return 1 + sum(sizes[1::2]), sum(sizes[0::2])


def _parity_split(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Each basis state's particle-number parity, and its index among the states of that parity."""
    parity = np.repeat(np.arange(space.n_max + 1) % 2, np.diff(space.offsets))
    local = np.empty(space.dim, dtype=np.int64)
    for p in (0, 1):
        local[parity == p] = np.arange(np.count_nonzero(parity == p))
    return parity, local


def build_model(cfg: InteractionConfig) -> ScatteringModel:
    """The model's two Fock spaces of dimension C(points + cap, cap), or a ``ValueError``
    before any sector exists when the series would outgrow physical memory.  An even
    graded operator holds U complex entries, U the sum of the squared sector sizes, and
    an odd one V = sum over s of |s| |s ^ 1| <= U.  Under tracemalloc the series (H and
    an order per step, S(n), then the circle check's chain and temporaries) peaks below
    (n + 10) / 2 even plus (3n + 12) / 2 odd operators, within one even one at n >= 2.
    That peak includes the H term table the model caches, 16 bytes per two-step pi path:
    3042 paths, 49 KB, beside a 276 KB even operator at sectors (92, 92, 13, 13)."""
    cfg.validate()
    pi_h = hyperboloid(cfg.pi_mass_sq, cfg.energy_cap)
    sigma_h = hyperboloid(cfg.sigma_mass_sq, cfg.energy_cap)
    caps = ((pi_h, cfg.pi_particle_cap), (sigma_h, cfg.sigma_particle_cap))
    (pi_even, pi_odd), (sigma_even, sigma_odd) = (_parity_dims(len(h), n) for h, n in caps)
    dim = (pi_even + pi_odd) * (sigma_even + sigma_odd)
    even = (pi_even**2 + pi_odd**2) * (sigma_even**2 + sigma_odd**2)
    odd = 2 * (pi_even**2 + pi_odd**2) * sigma_even * sigma_odd
    n = cfg.horizon
    need = np.dtype(complex).itemsize * ((n + 10) * even + (3 * n + 12) * odd) // 2
    require_memory(need, f"the scattering series at D = {dim}")
    return ScatteringModel(
        cfg=cfg,
        pi_space=fock_space(pi_h, cfg.pi_particle_cap),
        sigma_space=fock_space(sigma_h, cfg.sigma_particle_cap),
    )


def _joined(tables) -> tuple[list[np.ndarray], np.ndarray]:
    """The columns of tables of equal width, end to end, and each row's table index."""
    return [np.concatenate(c) for c in zip(*tables)], np.repeat(np.arange(len(tables)), [len(t[0]) for t in tables])


def _coefficients(h: Hyperboloid, rows: np.ndarray) -> np.ndarray:
    """(2, W, d): each point's lowering and raising coefficients e^{-ip.x} and e^{ip.x} in
    the field at each of the W window ``rows``, as phi and psi take them."""
    phases = _phases(h, rows)
    return np.stack([phases.conj(), phases])


def interaction_hamiltonian(model: ScatteringModel, t: int) -> tuple[np.ndarray, ...]:
    """g * (pi field squared) tensor (sigma field), summed over the window slice, as its
    four blocks: block s maps sector s to sector s ^ 1, and no other block is nonzero.

    With pi_x = sum over roles X and points q of c^X_q(x) X_q, and sigma_x alike,
    H(t) = g sum over role triples (X, Y, Z) and points (q, r, u) of K[X, Y, q, r, Z, u]
    (X_q Y_r tensor Z_u), where K, the slice's sums of c^X_q c^Y_r c^Z_u over the window
    points, is one ``einsum``.  The terms' places are fixed per model
    (``ScatteringModel._hamiltonian_terms``), so a block is one gather of K and one
    ``bincount`` per part.  Only the blocks C out of the even-sigma sectors 0 and 2 are
    summed, and C^H is returned for the blocks back, whose terms are the adjoints of C's:
    H is exactly self-adjoint by construction.
    """
    cfg = model.cfg
    rows = _window_rows(cfg, t)
    pi_c, sigma_c = (_coefficients(space.hyperboloid, rows) for space in (model.pi_space, model.sigma_space))
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
    """Hamiltonians H(0..n-1), the orders, the step loop's S(n), max|S(n)| and the defects.

    H(t) and order k are four blocks each, block s mapping sector s to s ^ 1 and to
    s ^ (k mod 2); ``final`` is S(n) as its (even, odd) pair of such block tuples.
    """

    hamiltonians: tuple[tuple[np.ndarray, ...], ...]
    final: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    final_orders: tuple[tuple[np.ndarray, ...], ...]
    final_max_abs: float
    rotated_coupling_defect: float
    order_sum_defect: float
    unitarity_defects: tuple[float, ...]


def _max_abs(blocks) -> float:
    """Largest |entry| over the blocks; 0.0 when they hold none."""
    return max((float(np.max(np.abs(b), initial=0.0)) for b in blocks), default=0.0)


def _step(ih, even, odd) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(I + iH) X for X = even + odd, as new blocks: the even part gains iH times the odd
    part, the odd part iH times the even part."""
    return (
        [e + ih[s ^ 1] @ o for s, (e, o) in enumerate(zip(even, odd))],
        [o + ih[s] @ e for s, (e, o) in enumerate(zip(even, odd))],
    )


def _unitarity_defect(even, odd) -> float:
    """max|S^H S - I| for S = even + odd.  Column sector s of S is even[s] in rows s and
    odd[s] in rows s ^ 1, so S^H S has two nonzero blocks per column: (s, s) and
    (s ^ 1, s).  S^H S is self-adjoint, so block (s ^ 1, s) is taken for even s only."""
    worst = 0.0
    for s, (e, o) in enumerate(zip(even, odd)):
        gram = e.conj().T @ e + o.conj().T @ o
        gram.flat[:: len(gram) + 1] -= 1
        worst = max(worst, _max_abs([gram]))
        if s % 2 == 0:
            worst = max(worst, _max_abs([even[s + 1].conj().T @ o + odd[s + 1].conj().T @ e]))
    return worst


def scattering_series(model: ScatteringModel) -> ScatteringSeries:
    """Build S and its orders in one step loop, then check every order on the coupling circle.

    Only orders 0..t are nonzero before step t, so it updates orders t+1 down to 1 in
    place, each from the order below it before that one changes; the same iH(t) then
    takes S(t) to S(t+1), whose max|S^H S - I| is taken before the next step.
    At each w = exp(2 pi i j / (n + 1)) the chain (I + i w H(n-1)) ... (I + i w H(0))
    must equal the sum of w^k times order k: ``order_sum_defect`` is the worst entry of
    the difference at w = 1 and ``rotated_coupling_defect`` over the other n roots,
    so by the inverse DFT no order is off anywhere by more than the larger.  The even
    orders are compared with the even part, the odd orders with the odd part.
    """
    n = model.cfg.horizon
    dims = model.sector_dims
    hams = [interaction_hamiltonian(model, t) for t in range(n)]

    def zeros(parity: int) -> list[np.ndarray]:
        return [np.zeros((dims[s ^ parity], dims[s]), dtype=complex) for s in range(4)]

    eye = [np.eye(d, dtype=complex) for d in dims]
    orders = [eye] + [zeros(k % 2) for k in range(1, n + 1)]
    even, odd, unitarity = eye, zeros(1), [0.0]  # S(0) = I is unitary
    for t, h in enumerate(hams):
        ih = [1j * b for b in h]
        for k in range(t + 1, 0, -1):
            below = (k - 1) % 2  # order k - 1 maps sector s to s ^ below
            for s, (order, prev) in enumerate(zip(orders[k], orders[k - 1])):
                order += ih[s ^ below] @ prev
        even, odd = _step(ih, even, odd)
        unitarity.append(_unitarity_defect(even, odd))

    rotated = 0.0
    for j in range(1, n + 1):
        w = np.exp(2j * np.pi * j / (n + 1))
        chain = (eye, zeros(1))
        for h in hams:  # n >= 1 steps, so the chain's blocks are its own
            chain = _step([b * (1j * w) for b in h], *chain)
        powers = w ** np.arange(n + 1)  # powers of the rounded w
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
        hamiltonians=tuple(hams),
        final=(tuple(even), tuple(odd)),
        final_orders=tuple(tuple(order) for order in orders),
        final_max_abs=max(_max_abs(even), _max_abs(odd)),
        rotated_coupling_defect=rotated,
        order_sum_defect=summed,
        unitarity_defects=tuple(unitarity),
    )


def self_adjoint_defect(series: ScatteringSeries) -> float:
    """Worst |H - H^H| entry over the series' Hamiltonians, block s against the conjugate
    transpose of block s ^ 1; 0.0 by construction."""
    return max(
        (_max_abs(h[s] - h[s ^ 1].conj().T for s in range(4)) for h in series.hamiltonians), default=0.0
    )


def two_pi_state(model: ScatteringModel, p: Vec4, q: Vec4) -> np.ndarray:
    """Normalized symmetric two-particle state tensored with the sigma vacuum."""
    h = model.pi_space.hyperboloid
    pair = (h.index(p), h.index(q))
    return np.kron(basis_unit(model.pi_space, pair), vacuum(model.sigma_space))


@dataclass(frozen=True)
class AmplitudeReport:
    total: complex
    per_order: tuple[complex, ...]
    probability: float
    dims: tuple[int, int]


def amplitude(
    model: ScatteringModel,
    incoming: tuple[Vec4, Vec4],
    outgoing: tuple[Vec4, Vec4],
    series: ScatteringSeries,
) -> AmplitudeReport:
    """<out| S |in> for two-particle states of the first species, read from ``series``:
    block s of an operator of Q-parity e takes the in-state's part in sector s to the
    out-state's part in sector s ^ e."""
    vec_in, vec_out = two_pi_state(model, *incoming), two_pi_state(model, *outgoing)
    parts_in, parts_out = ([vec[ix] for ix in model.sectors] for vec in (vec_in, vec_out))

    def bracket(blocks, parity: int) -> complex:
        return complex(sum(np.vdot(parts_out[s ^ parity], b @ parts_in[s]) for s, b in enumerate(blocks)))

    per_order = tuple(bracket(order, k % 2) for k, order in enumerate(series.final_orders))
    total = bracket(series.final[0], 0) + bracket(series.final[1], 1)
    return AmplitudeReport(
        total=total,
        per_order=per_order,
        probability=float(abs(total) ** 2),
        dims=(model.pi_space.dim, model.sigma_space.dim),
    )


def order_parity_check(
    report: AmplitudeReport, incoming: tuple[Vec4, Vec4], outgoing: tuple[Vec4, Vec4]
) -> dict:
    """Odd-order maximum, |order 0| and order 2 of ``report``, and whether in and out differ."""
    odd_max = max(
        (abs(c) for k, c in enumerate(report.per_order) if k % 2 == 1), default=0.0
    )
    return {
        "odd_order_max": odd_max,
        "order0": abs(report.per_order[0]),
        "order2": report.per_order[2] if len(report.per_order) > 2 else 0.0,
        "distinct_states": set(incoming) != set(outgoing),
    }
