"""Difference calculus, step products, the coupled model, and amplitudes."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from causet_qft.fock import phi, psi, xi_matrix
from causet_qft.lattice import Vec4
from causet_qft.scattering import (
    AmplitudeReport,
    InteractionConfig,
    amplitude,
    build_model,
    expansion_formula,
    interaction_hamiltonian,
    order_parity_check,
    scattering_series,
    two_pi_state,
    window_slice,
)
from oracles import difference_op, product_formula


def _random_matrices(rnd, dim, count, scale=0.5):
    out = []
    for _ in range(count):
        re = np.array([[rnd.gauss(0, scale) for _ in range(dim)] for _ in range(dim)])
        im = np.array([[rnd.gauss(0, scale) for _ in range(dim)] for _ in range(dim)])
        out.append(re + 1j * im)
    return out


def test_difference_op():
    eye = np.eye(4, dtype=complex)
    const = [eye.copy() for _ in range(5)]
    for d in difference_op(const):
        assert np.all(d == 0)
    linear = [n * eye for n in range(5)]
    for d in difference_op(linear):
        assert np.array_equal(d, eye)
    with pytest.raises(ValueError):
        difference_op([eye])


def test_product_formula_small_steps():
    rnd = random.Random(0)
    a_seq = _random_matrices(rnd, 4, 3)
    x0 = _random_matrices(rnd, 4, 1)[0]
    assert np.array_equal(product_formula(a_seq, x0, 0), x0.astype(complex))
    one = product_formula(a_seq, x0, 1)
    direct = (np.eye(4, dtype=complex) + a_seq[0]) @ x0
    assert np.max(np.abs(one - direct)) == 0.0


@pytest.mark.parametrize("dim,n", [(4, 3), (20, 6), (7, 5)])
def test_product_equals_expansion(dim, n):
    rnd = random.Random(dim * 100 + n)
    a_seq = _random_matrices(rnd, dim, n)
    x0 = _random_matrices(rnd, dim, 1)[0]
    prod = product_formula(a_seq, x0, n)
    expand = expansion_formula(a_seq, x0, n)
    assert np.max(np.abs(prod - expand)) < 1e-9


def _old_expansion(a_seq, x0, n):
    """The expansion summed as total = total + term, a new array per term."""
    from itertools import combinations

    total = np.eye(x0.shape[0], dtype=complex)
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            term = None
            for j in reversed(combo):
                term = a_seq[j] if term is None else term @ a_seq[j]
            total = total + term
    return total @ x0.astype(complex)


@pytest.mark.parametrize("dim,n", [(4, 3), (20, 6), (7, 5)])
def test_expansion_bit_equals_fresh_array_sum(dim, n):
    rnd = random.Random(dim * 10 + n)
    a_seq = _random_matrices(rnd, dim, n)
    x0 = _random_matrices(rnd, dim, 1)[0]
    kept = [a.copy() for a in a_seq]
    got = expansion_formula(a_seq, x0, n)
    assert np.array_equal(got.view(np.uint64), _old_expansion(a_seq, x0, n).view(np.uint64))
    assert all(np.array_equal(a, b) for a, b in zip(a_seq, kept))  # inputs left alone


@pytest.fixture(scope="module")
def model():
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=3,
    )
    return build_model(cfg)


def test_config_validation():
    good = dict(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=3,
    )
    InteractionConfig(**good).validate()
    for key, bad in [
        ("horizon", -1),
        ("window_radius", -2),
        ("pi_particle_cap", 1),
        ("sigma_particle_cap", 0),
        ("pi_mass_sq", -1),
    ]:
        with pytest.raises(ValueError):
            InteractionConfig(**{**good, key: bad}).validate()


def test_window_slice(model):
    cfg = model.cfg
    assert window_slice(cfg, 0) == (Vec4(0, 0, 0, 0),)
    assert window_slice(cfg, 5) == (Vec4(5, 0, 0, 0),)
    wide = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=2,
        horizon=2,
    )
    assert len(window_slice(wide, 0)) == 1
    assert len(window_slice(wide, 1)) == 13
    assert len(window_slice(wide, 2)) == 55
    from causet_qft.lattice import norm_sq4

    assert all(norm_sq4(x) >= 0 for x in window_slice(wide, 2))


@pytest.mark.parametrize("window_radius", [0, 1])
def test_hamiltonian_selfadjoint(window_radius):
    """Exactly self-adjoint by construction, whatever order BLAS sums in."""
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=window_radius,
        horizon=3,
    )
    m = build_model(cfg)
    assert len(window_slice(cfg, 2)) == (1 if window_radius == 0 else 13)
    for t in range(cfg.horizon):
        h = interaction_hamiltonian(m, t)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def _kron_hamiltonian(model, t):
    """H(t) assembled from Kronecker products of the two fields' full matrices."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for x in window_slice(model.cfg, t):
        pi_x = phi(x, model.pi_space).as_matrix() + psi(x, model.pi_space).as_matrix()
        sigma_x = phi(x, model.sigma_space).as_matrix() + psi(x, model.sigma_space).as_matrix()
        out += model.cfg.coupling * np.kron(pi_x @ pi_x, sigma_x)
    return (out + out.conj().T) / 2


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"window_radius": 1},
        {"sigma_particle_cap": 2},
        {"pi_mass_sq": 2, "sigma_mass_sq": 3, "energy_cap": 2},
        {"coupling": 0.0, "window_radius": 1},
    ],
    ids=["window0", "window1", "nsigma2", "pmax2", "g0"],
)
def test_hamiltonian_bit_equals_kron_assembly(changes):
    cfg = InteractionConfig(
        **{
            "coupling": 0.1,
            "pi_mass_sq": 0,
            "sigma_mass_sq": 1,
            "energy_cap": 1,
            "pi_particle_cap": 2,
            "sigma_particle_cap": 1,
            "window_radius": 0,
            "horizon": 3,
            **changes,
        }
    )
    m = build_model(cfg)
    for t in range(cfg.horizon):
        got, want = interaction_hamiltonian(m, t), _kron_hamiltonian(m, t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_hamiltonian_zero_coupling(model):
    cfg0 = InteractionConfig(
        coupling=0.0,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=2,
    )
    m0 = build_model(cfg0)
    assert np.all(interaction_hamiltonian(m0, 0) == 0)
    series = scattering_series(m0)
    for s in series.steps:
        assert np.array_equal(s, np.eye(m0.dim, dtype=complex))


def test_hamiltonian_single_point_hand_check():
    """Single-point hyperboloids: the density is plain ladder arithmetic."""
    cfg = InteractionConfig(
        coupling=0.5,
        pi_mass_sq=1,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=1,
    )
    m = build_model(cfg)
    assert (m.pi_space.dim, m.sigma_space.dim) == (3, 2)
    pi0 = xi_matrix(Vec4(0, 0, 0, 0), m.pi_space)
    s2 = math.sqrt(2.0)
    assert np.allclose(pi0, np.array([[0, 1, 0], [1, 0, s2], [0, s2, 0]]))
    expected_pi_sq = np.array([[1, 0, s2], [0, 3, 0], [s2, 0, 2]])
    expected_sigma = np.array([[0, 1], [1, 0]])
    h0 = interaction_hamiltonian(m, 0)
    assert np.allclose(h0, 0.5 * np.kron(expected_pi_sq, expected_sigma), atol=1e-14)


def test_series_recursion_properties(model):
    series = scattering_series(model)
    assert np.array_equal(series.steps[0], np.eye(model.dim, dtype=complex))
    assert series.expansion_defect < 1e-9
    # the difference of consecutive steps is iH(t) S(t)
    diffs = difference_op(list(series.steps))
    for t, d in enumerate(diffs):
        expected = (1j * interaction_hamiltonian(model, t)) @ series.steps[t]
        assert np.max(np.abs(d - expected)) < 1e-10
    # per-order pieces sum to the final operator
    total = sum(series.final_orders)
    assert np.max(np.abs(total - series.final)) < 1e-10


def _reference_orders(hams, dim):
    """Every order updated at every step: the n^2-product recursion."""
    n = len(hams)
    orders = [np.eye(dim, dtype=complex)] + [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    for h in hams:
        ih = 1j * h
        orders = [orders[0]] + [orders[k] + ih @ orders[k - 1] for k in range(1, n + 1)]
    return orders


@pytest.mark.parametrize("window_radius", [0, 1])
@pytest.mark.parametrize("horizon", range(6))
def test_final_orders_match_full_recursion(horizon, window_radius):
    """Skipping the orders that are still zero changes no bit, signed zeros included."""
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=window_radius,
        horizon=horizon,
    )
    m = build_model(cfg)
    series = scattering_series(m)
    reference = _reference_orders(series.hamiltonians, m.dim)
    assert len(series.final_orders) == len(reference) == horizon + 1
    for got, want in zip(series.final_orders, reference):
        assert np.array_equal(got, want)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def test_series_one_step(model):
    cfg1 = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=1,
    )
    m1 = build_model(cfg1)
    series = scattering_series(m1)
    expected = np.eye(m1.dim, dtype=complex) + 1j * interaction_hamiltonian(m1, 0)
    assert np.max(np.abs(series.final - expected)) == 0.0


def test_series_two_steps_order_pattern(model):
    cfg2 = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=2,
    )
    m2 = build_model(cfg2)
    series = scattering_series(m2)
    h0, h1 = interaction_hamiltonian(m2, 0), interaction_hamiltonian(m2, 1)
    eye = np.eye(m2.dim, dtype=complex)
    # later time acts on the left of earlier time
    expected = eye + 1j * (h0 + h1) + (1j**2) * (h1 @ h0)
    assert np.max(np.abs(series.final - expected)) < 1e-12
    assert np.max(np.abs(series.final_orders[2] - (1j**2) * (h1 @ h0))) < 1e-12


def test_unitarity_defect_structure(model):
    series = scattering_series(model)
    defects = series.unitarity_defects
    assert defects[0] == 0.0
    # one step: S*S - I = H^2 exactly for self-adjoint H
    h0 = interaction_hamiltonian(model, 0)
    assert defects[1] == pytest.approx(float(np.max(np.abs(h0 @ h0))), rel=1e-12)
    assert all(d > 0 for d in defects[1:])


def test_unitarity_defect_scales_with_coupling_squared(model):
    weak_cfg = InteractionConfig(
        coupling=0.01,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=1,
    )
    weak = scattering_series(build_model(weak_cfg)).unitarity_defects[1]
    strong = scattering_series(model).unitarity_defects[1]
    assert strong / weak == pytest.approx(100.0, rel=1e-6)


def test_two_pi_state_normalized(model):
    pts = model.pi_space.hyperboloid.points
    vec = two_pi_state(model, pts[1], pts[2])
    assert np.vdot(vec, vec) == pytest.approx(1.0)
    same = two_pi_state(model, pts[1], pts[1])
    assert np.vdot(same, same) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        two_pi_state(model, Vec4(9, 9, 9, 9), pts[0])


def test_amplitude_identity_for_equal_states(model):
    cfg0 = InteractionConfig(
        coupling=0.0,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=3,
    )
    m0 = build_model(cfg0)
    pts = m0.pi_space.hyperboloid.points
    rep = amplitude(m0, (pts[1], pts[2]), (pts[1], pts[2]), scattering_series(m0))
    assert rep.total == pytest.approx(1.0)
    assert rep.probability == pytest.approx(1.0)


def test_order_parity(model):
    pts = model.pi_space.hyperboloid.points
    incoming, outgoing = (pts[1], pts[2]), (pts[3], pts[4])
    rep = order_parity_check(
        amplitude(model, incoming, outgoing, scattering_series(model)), incoming, outgoing
    )
    assert rep["order0"] == 0.0
    assert rep["odd_order_max"] <= 1e-10
    assert abs(rep["order2"]) > 1e-4  # leading contribution is second order
    assert rep["distinct_states"]


def test_amplitude_report_structure(model):
    pts = model.pi_space.hyperboloid.points
    rep = amplitude(model, (pts[1], pts[2]), (pts[3], pts[4]), scattering_series(model))
    assert isinstance(rep, AmplitudeReport)
    assert len(rep.per_order) == model.cfg.horizon + 1
    assert rep.probability == pytest.approx(abs(rep.total) ** 2)
    assert rep.total == pytest.approx(sum(rep.per_order))
    assert rep.dims == (105, 2)


def test_sigma_parity_structure(model):
    """Each density insertion moves the sigma number by one: K is block
    off-diagonal in the sigma sector grading."""
    h = interaction_hamiltonian(model, 0)
    ns = model.sigma_space.dim
    blocks = h.reshape(model.pi_space.dim, ns, model.pi_space.dim, ns)
    for a in range(ns):
        assert np.all(blocks[:, a, :, a] == 0)
