"""Discrete-time scattering: step products, their orders and amplitudes.

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
second, scaled by the coupling constant.  One factor of the second species
per density insertion forces every odd-order two-particle amplitude between
its vacuum states to vanish; the engine verifies that numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, basis_unit, fock_space, vacuum, xi_matrix
from .lattice import Vec4, require_memory, vectors_with_norm_up_to
from .momentum import hyperboloid

__all__ = [
    "InteractionConfig",
    "ScatteringModel",
    "ScatteringSeries",
    "build_model",
    "window_slice",
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


def window_slice(cfg: InteractionConfig, t: int) -> tuple[Vec4, ...]:
    """Cone vertices at time t within the configured spatial radius."""
    cap = min(t, cfg.window_radius)
    return tuple(Vec4(t, *row) for row in vectors_with_norm_up_to(cap * cap).tolist())


@dataclass(frozen=True)
class ScatteringModel:
    """Tensor-product arena with the per-time-slice interaction Hamiltonians."""

    cfg: InteractionConfig
    pi_space: FockSpace
    sigma_space: FockSpace

    @property
    def dim(self) -> int:
        return self.pi_space.dim * self.sigma_space.dim


def build_model(cfg: InteractionConfig) -> ScatteringModel:
    """The model's two Fock spaces of dimension C(points + cap, cap), or a ``ValueError``
    before any sector exists when the dense series would outgrow physical memory: at
    its peak it holds 2n + 6 complex D x D arrays (H and an order per step, the identity,
    S(n) and a spare, the factor, the chain and one real |defect|)."""
    cfg.validate()
    pi_h = hyperboloid(cfg.pi_mass_sq, cfg.energy_cap)
    sigma_h = hyperboloid(cfg.sigma_mass_sq, cfg.energy_cap)
    caps = ((pi_h, cfg.pi_particle_cap), (sigma_h, cfg.sigma_particle_cap))
    dim = math.prod(math.comb(len(h) + n, n) for h, n in caps)
    need = (2 * cfg.horizon + 6) * np.dtype(complex).itemsize * dim * dim
    require_memory(need, f"the dense scattering series at D = {dim}")
    return ScatteringModel(
        cfg=cfg,
        pi_space=fock_space(pi_h, cfg.pi_particle_cap),
        sigma_space=fock_space(sigma_h, cfg.sigma_particle_cap),
    )


def interaction_hamiltonian(model: ScatteringModel, t: int) -> np.ndarray:
    """g * (pi field squared) tensor (sigma field), summed over the window slice.

    Each nonzero sigma entry (i, j) adds its multiple of the squared pi field
    into the strided (i, j) block of the tensor-product index, the same floats
    the Kronecker product would add; its zero entries would add only zeros.
    The sum A is returned as (A + A^H) / 2, which is exactly self-adjoint
    whatever order the products accumulated in: entries (i, j) and (j, i)
    are the same two floats added in either order, then conjugated.  An
    empty slice yields the zero operator.
    """
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


@dataclass(frozen=True)
class ScatteringSeries:
    """Hamiltonians H(0..n-1), the orders, the step loop's S(n), max|S(n)| and the defects."""

    hamiltonians: tuple[np.ndarray, ...]
    final: np.ndarray
    final_orders: tuple[np.ndarray, ...]
    final_max_abs: float
    rotated_coupling_defect: float
    order_sum_defect: float
    unitarity_defects: tuple[float, ...]


def scattering_series(model: ScatteringModel) -> ScatteringSeries:
    """Build S and its orders in one step loop, then check every order on the coupling circle.

    Only orders 0..t are nonzero before step t, so it updates orders t+1 down to 1 in
    place, each from the order below it before that one changes; the same iH(t) plus I
    then takes S(t) to S(t+1), whose max|S^H S - I| is taken before the next step.
    At each w = exp(2 pi i j / (n + 1)) the chain (I + i w H(n-1)) ... (I + i w H(0))
    must equal the sum of w^k times order k: ``order_sum_defect`` is the worst entry of
    the difference at w = 1 and ``rotated_coupling_defect`` over the other n roots,
    so by the inverse DFT no order is off anywhere by more than the larger.
    """
    n = model.cfg.horizon
    dim = model.dim
    eye = np.eye(dim, dtype=complex)
    hams = [interaction_hamiltonian(model, t) for t in range(n)]

    orders = [eye] + [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    final, factor, unitarity = eye, np.empty_like(eye), [0.0]  # S(0) = I is unitary
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
        for order, w_k in zip(orders, w ** np.arange(n + 1)):  # powers of the rounded w
            chain -= np.multiply(order, w_k, out=factor)
        rotated = max(rotated, float(np.max(np.abs(chain))))
    del chain, spare, factor
    return ScatteringSeries(
        hamiltonians=tuple(hams),
        final=final,
        final_orders=tuple(orders),
        final_max_abs=float(np.max(np.abs(final))),
        rotated_coupling_defect=rotated,
        order_sum_defect=float(np.max(np.abs(sum(orders) - final))),
        unitarity_defects=tuple(unitarity),
    )


def self_adjoint_defect(series: ScatteringSeries) -> float:
    """Worst |H - H^H| entry over the series' Hamiltonians; 0.0 by construction."""
    return max((float(np.max(np.abs(h - h.conj().T))) for h in series.hamiltonians), default=0.0)


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
    """<out| S |in> for two-particle states of the first species, read from ``series``."""
    vec_in = two_pi_state(model, *incoming)
    vec_out = two_pi_state(model, *outgoing)
    per_order = tuple(complex(np.vdot(vec_out, s @ vec_in)) for s in series.final_orders)
    total = complex(np.vdot(vec_out, series.final @ vec_in))
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
