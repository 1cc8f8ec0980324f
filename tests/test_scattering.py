"""Difference calculus, step products, the coupled model, and amplitudes."""

from __future__ import annotations

import math
import os
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from causet_qft import fock, scattering, symmetry
from causet_qft.fock import FockSpace, fock_space, phi
from causet_qft.momentum import hyperboloid
from causet_qft.scattering import (
    AmplitudeReport,
    InteractionConfig,
    ScatteringModel,
    amplitude,
    build_model,
    interaction_hamiltonian,
    order_parity_check,
    rotation_defect,
    scattering_series,
    self_adjoint_defect,
)
from oracles import (
    Vec4,
    dense_series,
    densify,
    difference_op,
    expand,
    expansion_formula,
    graded_series,
    graded_unitarity_defect,
    hamiltonian_maxima,
    norm_sq4,
    product_formula,
    psi,
    two_pi_state,
    window_slice,
    xi_matrix,
)
from oracles import interaction_hamiltonian as dense_hamiltonian


def _hamiltonians(model):
    """H(0..n-1), each built afresh: the series keeps none of them."""
    return [interaction_hamiltonian(model, t) for t in range(model.cfg.horizon)]


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


def _tuple_sums(a_seq, dim):
    """Sums of A(j_k) ... A(j_1) over the strictly decreasing time tuples, one per length k."""
    sums = [np.eye(dim, dtype=complex)]
    for k in range(1, len(a_seq) + 1):
        total = np.zeros((dim, dim), dtype=complex)
        for combo in combinations(range(len(a_seq)), k):
            term = np.eye(dim, dtype=complex)
            for j in combo:
                term = a_seq[j] @ term
            total += term
        sums.append(total)
    return sums


@pytest.mark.parametrize("dim,n", [(4, 1), (4, 3), (7, 5), (20, 6)])
def test_rotated_products_recover_every_order(dim, n):
    """Over the (n+1)-th roots of unity w, the inverse DFT of the step products at
    w A gives each per-length tuple sum, and those add up to the expansion."""
    rnd = random.Random(dim * 1000 + n)
    a_seq = _random_matrices(rnd, dim, n)
    eye = np.eye(dim, dtype=complex)
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    products = [product_formula([w * a for a in a_seq], eye, n) for w in roots]
    want = _tuple_sums(a_seq, dim)
    assert np.max(np.abs(sum(want) - expansion_formula(a_seq, eye, n))) < 1e-9
    scale = max(float(np.max(np.abs(o))) for o in want)
    for k, order in enumerate(want):
        got = sum(w ** -k * p for w, p in zip(roots, products)) / (n + 1)
        assert np.max(np.abs(got - order)) <= 1e-12 * scale


@pytest.mark.parametrize("window_radius", [0, 1])
def test_series_orders_are_the_tuple_sums(window_radius):
    """Order k of the series is the sum over time tuples of length k of iH products."""
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=0,
        sigma_mass_sq=1,
        energy_cap=1,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=window_radius,
        horizon=5,
    )
    m = build_model(cfg)
    series = scattering_series(m)
    want = _tuple_sums([1j * densify(m, h, 1) for h in _hamiltonians(m)], m.dim)
    for k, (got, order) in enumerate(zip(series.final_orders, want, strict=True)):
        assert np.max(np.abs(_full(m, got, k % 2) - order)) <= 1e-12 * series.final_max_abs


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


@pytest.mark.parametrize(
    "pi_mass_sq, energy_cap, pi_cap, sigma_cap",
    [(0, 1, 2, 1), (0, 1, 3, 2), (3, 2, 2, 1), (0, 1, 2, 3)],
)
def test_memory_guard_estimates_the_model_dimension(
    monkeypatch, pi_mass_sq, energy_cap, pi_cap, sigma_cap
):
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=pi_mass_sq,
        sigma_mass_sq=1,
        energy_cap=energy_cap,
        pi_particle_cap=pi_cap,
        sigma_particle_cap=sigma_cap,
        window_radius=0,
        horizon=1,
    )
    m = build_model(cfg)
    dim = m.dim
    need = _guard_bytes(m)  # one byte short, then exactly enough
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1}.get(name, need - 1))
    with pytest.raises(ValueError, match=f"series at D = {dim} needs about"):
        build_model(cfg)
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1}.get(name, need))
    assert build_model(cfg).dim == dim


def _hamiltonian_entries(model):
    """Entries of H(t): block s is |s ^ 1| x |s|."""
    d = model.sector_dims
    return sum(d[s ^ 1] * d[s] for s in range(4))


def _held_entries(model):
    """Entries of the series' items: n // 2 + n + 2 per orbit of s, |s| + |s ^ 1| rows each."""
    n, d = model.cfg.horizon, model.sector_dims
    return (n // 2 + n + 2) * sum((d[s] + d[s ^ 1]) * len(orbit[0]) for s, orbit in enumerate(model.orbits))


def _traced_series_peak(model):
    tracemalloc.start()
    try:
        scattering_series(model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _guard_bytes(model):
    """The guard's arithmetic from the built model: its sector sizes, its orbits as
    ``symmetry.orbits`` finds them and its two-step pi paths as the product tables list
    them, against the closed forms the guard uses before any sector exists."""
    d = model.sector_dims
    w = [len(orbit[0]) for orbit in model.orbits]
    rows = [d[s] + d[s ^ 1] for s in range(4)]
    pair = [w[s] + w[s ^ 1] for s in range(4)]
    held = _held_entries(model)
    gram = max(24 * w[s] * (rows[s] + pair[s]) + 2 * rows[s] * pair[s] for s in range(4))
    roles = ("annihilates", "creates")
    paths = sum(len(model.pi_space.product_table(x, y)[0]) for x in roles for y in roles)
    h = _hamiltonian_entries(model)
    entries = held + max(h + held, gram) + max(h, np.getbufsize()) + paths
    return 16 * entries + 8 * (51 * model.dim + 24 * (model.pi_space.dim + model.sigma_space.dim))


def _guard_and_traced_peak(monkeypatch, pi_mass_sq, sigma_mass_sq, energy_cap, horizon):
    """The guard's estimate for a model, one H(t) in bytes, the model's sector sizes and
    the series' traced peak."""
    cfg = InteractionConfig(
        coupling=0.1,
        pi_mass_sq=pi_mass_sq,
        sigma_mass_sq=sigma_mass_sq,
        energy_cap=energy_cap,
        pi_particle_cap=2,
        sigma_particle_cap=1,
        window_radius=0,
        horizon=horizon,
    )
    needs = []
    monkeypatch.setattr(scattering, "require_memory", lambda need, what: needs.append(need))
    model = build_model(cfg)
    peak = _traced_series_peak(model)
    assert needs == [_guard_bytes(model)]
    return needs[0], 16 * _hamiltonian_entries(model), model.sector_dims, peak


@pytest.mark.parametrize("horizon", [2, 4, 8])
def test_memory_guard_counts_the_series_peak(monkeypatch, horizon):
    """The guard's count is the traced peak of the series, rounded up to within one H(t);
    here the odd-pi sectors are a seventh of the even ones."""
    need, operator, dims, peak = _guard_and_traced_peak(monkeypatch, 0, 1, 1, horizon)
    assert dims == (92, 92, 13, 13)
    assert need - operator <= peak <= need


@pytest.mark.parametrize("horizon", [2, 4, 8])
def test_memory_guard_counts_the_peak_of_unequal_sigma_sectors(monkeypatch, horizon):
    """With six sigma points H(t) is a third of an even operator, and the guard still
    rounds the traced peak up to within one H(t)."""
    need, operator, dims, peak = _guard_and_traced_peak(monkeypatch, 2, 2, 2, horizon)
    assert dims == (22, 132, 6, 36)
    assert need - operator <= peak <= need


@pytest.mark.parametrize("masses", [(0, 1, 1), (2, 2, 2)], ids=["equal-sigma", "unequal-sigma"])
def test_series_peak_less_its_items_does_not_grow_with_the_horizon(masses):
    """Each H(t) is dropped before the next is built, so beyond the held items and one
    step's products of them the traced peak holds a horizon-free count of H(t)'s; it grew
    by one H(t) per step while the series kept every H(t)."""
    pi_mass_sq, sigma_mass_sq, energy_cap = masses
    beyond = []
    for horizon in (1, 2, 4, 8):
        cfg = InteractionConfig(
            coupling=0.1, pi_mass_sq=pi_mass_sq, sigma_mass_sq=sigma_mass_sq, energy_cap=energy_cap,
            pi_particle_cap=2, sigma_particle_cap=1, window_radius=0, horizon=horizon,
        )
        model = build_model(cfg)
        beyond.append(_traced_series_peak(model) - 2 * 16 * _held_entries(model))
    assert max(beyond) == beyond[0]


def test_maxima_keep_nan():
    """Python's ``max`` keeps its first argument against a NaN, so a fold through it can
    read 0.0 beside a NaN entry: the series' maxima and the parity check keep the NaN."""
    assert math.isnan(scattering._max_abs([np.zeros((2, 2)), np.array([[1.0, np.nan]])]))
    assert math.isnan(scattering._max_abs([np.array([np.inf]) - np.inf, np.ones(3)]))
    assert scattering._max_abs([]) == scattering._max_abs([np.zeros((0, 3))]) == 0.0
    nan = complex(math.nan, math.nan)
    report = AmplitudeReport(nan, (0j, 0j, 0j, nan), math.nan, (1, 1))
    assert math.isnan(order_parity_check(report, (1, 2), (3, 4))["odd_order_max"])


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
        assert all(np.array_equal(h[s ^ 1], h[s].conj().T) for s in range(4))
        dense = densify(m, h, 1)
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0


def _kron_hamiltonian(model, t):
    """H(t) assembled from Kronecker products of the two fields' full matrices."""
    out = np.zeros((model.dim, model.dim), dtype=complex)
    for x in window_slice(model.cfg, t):
        pi_x = phi(x.coords(), model.pi_space).as_matrix() + psi(x.coords(), model.pi_space).as_matrix()
        sigma_x = phi(x.coords(), model.sigma_space).as_matrix() + psi(x.coords(), model.sigma_space).as_matrix()
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
    """The dense oracle's strided assembly adds the floats the Kronecker product would."""
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
        got, want = dense_hamiltonian(m, t), _kron_hamiltonian(m, t)
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
    assert not any(block.any() for block in interaction_hamiltonian(m0, 0))
    series = scattering_series(m0)
    steps = _graded_steps(m0, _hamiltonians(m0))
    assert _same_blocks(_full_pair(m0, series.final), steps[-1])
    even, odd = _full_pair(m0, series.final)
    assert all(np.array_equal(block, np.eye(len(block))) for block in even)
    assert not any(block.any() for block in odd)
    assert series.unitarity_defects == tuple(graded_unitarity_defect(*s) for s in steps) == (0.0,) * 3


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
    h0 = densify(m, interaction_hamiltonian(m, 0), 1)
    assert np.allclose(h0, 0.5 * np.kron(expected_pi_sq, expected_sigma), atol=1e-14)


def _graded_steps(model, hams):
    """S(0..n) rebuilt one factor at a time on the parity blocks: (I + iH) S's even part
    gains iH times S's odd part, its odd part iH times the even part."""
    dims = model.sector_dims
    even = [np.eye(d, dtype=complex) for d in dims]
    odd = [np.zeros((dims[s ^ 1], dims[s]), dtype=complex) for s in range(4)]
    steps = [(even, odd)]
    for h in hams:
        ih = [1j * b for b in h]
        even, odd = (
            [e + ih[s ^ 1] @ o for s, (e, o) in enumerate(zip(even, odd))],
            [o + ih[s] @ e for s, (e, o) in enumerate(zip(even, odd))],
        )
        steps.append((even, odd))
    return steps


def _same_blocks(got, want):
    """Bit-equal (even, odd) pairs of block tuples."""
    pairs = (zip(part, other, strict=True) for part, other in zip(got, want, strict=True))
    return all(np.array_equal(a, b) for blocks in pairs for a, b in blocks)


def _full(model, blocks, parity):
    """A G-invariant operator of Q-parity ``parity`` as a dense D x D matrix from its blocks
    at the representative columns."""
    return densify(model, expand(model, blocks, parity), parity)


def _at_reps(model, blocks, parity):
    """The D x (representatives) matrix of an operator's representative columns, sector
    by sector, from its blocks."""
    out = []
    for s, block in enumerate(blocks):
        columns = np.zeros((model.dim, block.shape[1]), dtype=complex)
        columns[model.sectors[s ^ parity]] = block
        out.append(columns)
    return np.hstack(out)


def _full_pair(model, pair):
    """The (even, odd) pair of S on whole parity blocks."""
    return tuple(expand(model, blocks, parity) for parity, blocks in enumerate(pair))


def _dense(model, pair):
    """S as a dense D x D matrix from its (even, odd) pair at the representative columns."""
    return _full(model, pair[0], 0) + _full(model, pair[1], 1)


def test_series_recursion_properties(model):
    series = scattering_series(model)
    assert series.rotated_coupling_defect < 1e-9
    # S(0..n) rebuilt one factor at a time on whole parity blocks: the series' S(n) and
    # each step's unitarity defect agree with them to rounding
    steps = _graded_steps(model, _hamiltonians(model))
    scale = series.final_max_abs
    for got, want in zip(_full_pair(model, series.final), steps[-1], strict=True):
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-14 * scale
    want = [graded_unitarity_defect(*s) for s in steps]
    assert series.unitarity_defects == pytest.approx(want, rel=1e-12, abs=0)
    # the last step adds iH(n-1) S(n-1) to the rebuilt S(n-1)
    before = densify(model, steps[-2][0], 0) + densify(model, steps[-2][1], 1)
    final = _dense(model, series.final)
    (last,) = difference_op([before, final])
    h_last = interaction_hamiltonian(model, model.cfg.horizon - 1)
    assert np.max(np.abs(last - 1j * densify(model, h_last, 1) @ before)) < 1e-10
    # per-order pieces sum to the final operator
    total = sum(_full(model, order, k % 2) for k, order in enumerate(series.final_orders))
    assert np.max(np.abs(total - final)) < 1e-10


def _reference_orders(model, hams):
    """Every order updated at every step on the parity blocks: the n^2-product recursion."""
    n, dims = len(hams), model.sector_dims
    orders = [[np.eye(d, dtype=complex) for d in dims]]
    orders += [[np.zeros((dims[s ^ k % 2], dims[s]), dtype=complex) for s in range(4)] for k in range(1, n + 1)]
    for h in hams:
        ih = [1j * b for b in h]
        orders = [orders[0]] + [
            [o + ih[s ^ (k - 1) % 2] @ prev for s, (o, prev) in enumerate(zip(orders[k], orders[k - 1]))]
            for k in range(1, n + 1)
        ]
    return orders


@pytest.mark.parametrize("window_radius", [0, 1])
@pytest.mark.parametrize("horizon", range(6))
def test_final_orders_match_full_recursion(horizon, window_radius):
    """The block oracle skips the orders that are still zero, which changes no bit, signed
    zeros included; the orbit series updates every order at every step, as the n^2
    recursion does, and its representative columns agree with it to rounding."""
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
    graded = graded_series(m)
    reference = _reference_orders(m, _hamiltonians(m))
    assert len(graded.final_orders) == len(reference) == horizon + 1
    for got_blocks, want_blocks in zip(graded.final_orders, reference):
        for got, want in zip(got_blocks, want_blocks, strict=True):
            assert np.array_equal(got, want)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))
    series = scattering_series(m)
    scale = max(series.final_max_abs, *(np.max(np.abs(b)) for blocks in reference for b in blocks))
    for k, (got_blocks, want_blocks) in enumerate(zip(series.final_orders, reference, strict=True)):
        for s, (got, want) in enumerate(zip(got_blocks, want_blocks, strict=True)):
            assert np.max(np.abs(got - want[:, m.orbits[s][0]]), initial=0.0) <= 1e-14 * scale


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
    expected = np.eye(m1.dim, dtype=complex) + 1j * densify(m1, interaction_hamiltonian(m1, 0), 1)
    # I + iH at the representative columns, exactly: each is one column of H times i
    reps = np.concatenate([ix[orbit[0]] for ix, orbit in zip(m1.sectors, m1.orbits)])
    got = _at_reps(m1, series.final[0], 0) + _at_reps(m1, series.final[1], 1)
    assert np.max(np.abs(got - expected[:, reps])) == 0.0


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
    h0, h1 = (densify(m2, interaction_hamiltonian(m2, t), 1) for t in (0, 1))
    eye = np.eye(m2.dim, dtype=complex)
    # later time acts on the left of earlier time
    expected = eye + 1j * (h0 + h1) + (1j**2) * (h1 @ h0)
    assert np.max(np.abs(_dense(m2, series.final) - expected)) < 1e-12
    assert np.max(np.abs(_full(m2, series.final_orders[2], 0) - (1j**2) * (h1 @ h0))) < 1e-12


def test_unitarity_defect_structure(model):
    series = scattering_series(model)
    defects = series.unitarity_defects
    assert defects[0] == 0.0
    # one step: S*S - I = H^2 exactly for self-adjoint H
    h0 = densify(model, interaction_hamiltonian(model, 0), 1)
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
    vec = two_pi_state(model, 1, 2)
    assert np.vdot(vec, vec) == pytest.approx(1.0)
    same = two_pi_state(model, 1, 1)
    assert np.vdot(same, same) == pytest.approx(1.0)
    for off in (len(model.pi_space.hyperboloid), -1):
        with pytest.raises(ValueError, match="not all on the hyperboloid"):
            two_pi_state(model, off, 0)


@pytest.mark.parametrize(
    "incoming, outgoing", [((1, 2), (3, 4)), ((3, 3), (3, 3)), ((12, 4), (0, 7)), ((5, 9), (9, 5))]
)
def test_amplitude_reads_the_dense_bracket(incoming, outgoing):
    """Read by basis index, each order's amplitude and the total are <out| X |in> with the
    two-pi states as D-length vectors and X made dense from its representative columns."""
    m = _dense_case({})
    series = scattering_series(m)
    rep = amplitude(m, incoming, outgoing, series)
    vec_in, vec_out = two_pi_state(m, *incoming), two_pi_state(m, *outgoing)
    bound = 1e-14 * series.final_max_abs
    for k, order in enumerate(series.final_orders):
        assert abs(rep.per_order[k] - np.vdot(vec_out, _full(m, order, k % 2) @ vec_in)) <= bound
    assert abs(rep.total - np.vdot(vec_out, _dense(m, series.final) @ vec_in)) <= bound


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
    rep = amplitude(m0, (1, 2), (1, 2), scattering_series(m0))
    assert rep.total == pytest.approx(1.0)
    assert rep.probability == pytest.approx(1.0)


def test_order_parity(model):
    incoming, outgoing = (1, 2), (3, 4)
    rep = order_parity_check(
        amplitude(model, incoming, outgoing, scattering_series(model)), incoming, outgoing
    )
    assert rep["order0"] == 0.0
    assert rep["odd_order_max"] <= 1e-10
    assert abs(rep["order2"]) > 1e-4  # leading contribution is second order
    assert rep["distinct_states"]


def test_amplitude_report_structure(model):
    rep = amplitude(model, (1, 2), (3, 4), scattering_series(model))
    assert isinstance(rep, AmplitudeReport)
    assert len(rep.per_order) == model.cfg.horizon + 1
    assert rep.probability == pytest.approx(abs(rep.total) ** 2)
    assert rep.total == pytest.approx(sum(rep.per_order))
    assert rep.dims == (105, 2)


def test_sigma_parity_structure(model):
    """Each density insertion moves the sigma number by one: the dense oracle's H is
    block off-diagonal in the sigma sector grading."""
    h = dense_hamiltonian(model, 0)
    ns = model.sigma_space.dim
    blocks = h.reshape(model.pi_space.dim, ns, model.pi_space.dim, ns)
    for a in range(ns):
        assert np.all(blocks[:, a, :, a] == 0)


def _dense_case(case):
    """The model of one diff case: the module's small model with one change, or an empty pi
    hyperboloid (odd pi-parity sectors of size 0), which ``build_model`` refuses."""
    base = dict(
        coupling=0.1, pi_mass_sq=0, sigma_mass_sq=1, energy_cap=1, pi_particle_cap=2,
        sigma_particle_cap=1, window_radius=1, horizon=3,
    )
    if case == "pi_empty":
        cfg = InteractionConfig(**{**base, "pi_mass_sq": 1, "sigma_mass_sq": 0, "energy_cap": 0})
        assert len(hyperboloid(1, 0)) == 0
        return ScatteringModel(cfg, FockSpace(hyperboloid(1, 0), 2), fock_space(hyperboloid(0, 0), 1))
    return build_model(InteractionConfig(**{**base, **case}))


DENSE_CASES = [
    *({"horizon": n, "window_radius": w} for w in (0, 1) for n in range(6)),
    {"sigma_particle_cap": 2},
    "pi_empty",
    {"coupling": 0.0},
]


@pytest.mark.parametrize(
    "case",
    DENSE_CASES,
    ids=[*(f"horizon{n}-window{w}" for w in (0, 1) for n in range(6)), "nsigma2", "pi_empty", "g0"],
)
def test_graded_series_matches_the_dense_oracle(case):
    """The orbit columns against the whole parity blocks of the block oracle and against
    the dense Hamiltonian and step loop: an orbit column's images under the 24 rotations
    fill its sector's columns."""
    m = _dense_case(case)
    series, graded, dense = scattering_series(m), graded_series(m), dense_series(m)
    for t, h in enumerate(_hamiltonians(m)):
        # the selection rule: the dense H is an exact zero off the graded blocks
        want = dense_hamiltonian(m, t)
        support = densify(m, [np.ones_like(b) for b in h], 1) != 0
        assert not want[~support].any()
        assert np.max(np.abs(densify(m, h, 1) - want)) <= 1e-14 * np.max(np.abs(want))
        # one H(t)'s defects on its blocks, against the same H made dense
        maxima = hamiltonian_maxima(m, [densify(m, h, 1)])
        assert self_adjoint_defect(h) == maxima["hamiltonian_adjoint_defect"] == 0.0
        assert rotation_defect(m, h) == maxima["hamiltonian_rotation_defect"]
    # the maxima over H(t) taken in the step loop, against the same blocks made dense and
    # against the dense assembly, whose rounding differs
    fields = ("hamiltonian_adjoint_defect", "hamiltonian_rotation_defect", "hamiltonian_max_abs")
    assert [getattr(series, f) for f in fields] == [getattr(graded, f) for f in fields]
    assert series.hamiltonian_adjoint_defect == dense.hamiltonian_adjoint_defect == 0.0
    assert series.hamiltonian_max_abs == pytest.approx(dense.hamiltonian_max_abs, rel=1e-14)
    assert dense.hamiltonian_rotation_defect <= 1e-13 * dense.hamiltonian_max_abs
    orders = zip(series.final_orders, graded.final_orders, dense.final_orders, strict=True)
    for k, (got, blocks, want) in enumerate(orders):
        full = expand(m, got, k % 2)
        scale = np.max(np.abs(want))
        assert max(np.max(np.abs(a - b), initial=0.0) for a, b in zip(full, blocks)) <= 1e-14 * scale
        assert np.max(np.abs(densify(m, full, k % 2) - want)) <= 1e-14 * scale
    assert np.max(np.abs(_dense(m, series.final) - dense.final)) <= 1e-14 * dense.final_max_abs
    for other in (graded, dense):
        assert series.final_max_abs == pytest.approx(other.final_max_abs, rel=1e-14)
        assert series.unitarity_defects == pytest.approx(other.unitarity_defects, rel=1e-12, abs=0)
    bound = 1e-13 * series.final_max_abs
    assert series.rotated_coupling_defect < bound and series.order_sum_defect < bound
    if m.cfg.coupling == 0:
        even, odd = _full_pair(m, series.final)
        assert all(np.array_equal(block, np.eye(len(block))) for block in even)
        assert not any(block.any() for block in odd)
        assert series.unitarity_defects == (0.0,) * (m.cfg.horizon + 1)
        assert series.rotated_coupling_defect == series.order_sum_defect == 0.0


@pytest.mark.parametrize(
    "case",
    [*DENSE_CASES, {"pi_mass_sq": 2, "sigma_mass_sq": 3, "energy_cap": 2}],
    ids=[*(f"horizon{n}-window{w}" for w in (0, 1) for n in range(6)), "nsigma2", "pi_empty", "g0", "pmax2"],
)
def test_hamiltonian_matches_the_dense_oracle_per_slice(case):
    """Each slice's blocks, from the phase sums and the per-model term positions, against
    the dense per-point assembly; at g = 0 the bound is 0, so every block is an exact zero."""
    m = _dense_case(case)
    for t in range(m.cfg.horizon):
        got, want = densify(m, interaction_hamiltonian(m, t), 1), dense_hamiltonian(m, t)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


def test_hamiltonian_matches_the_dense_oracle_at_three_pi_particles():
    """One 13-point slice of the --npi 3 model (sectors 92, 92, 468, 468)."""
    m = _dense_case({"pi_particle_cap": 3})
    assert m.sector_dims == (92, 92, 468, 468)
    got, want = densify(m, interaction_hamiltonian(m, 1), 1), dense_hamiltonian(m, 1)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_hamiltonian_reads_no_field_entries(monkeypatch):
    """H(t) comes from the two-step tables and the ladder entries, not from xi's entries."""
    want = [interaction_hamiltonian(_dense_case({}), t) for t in range(3)]

    def refuse(*args):
        raise AssertionError("xi_entries called")

    monkeypatch.setattr(fock, "xi_entries", refuse)
    fresh = _dense_case({})  # its term table is built under the patch
    for t, blocks in enumerate(want):
        assert all(np.array_equal(a, b) for a, b in zip(interaction_hamiltonian(fresh, t), blocks, strict=True))


@pytest.mark.parametrize(
    "case, dims",
    [({}, (92, 92, 13, 13)), ({"sigma_particle_cap": 2}, (184, 92, 26, 13)), ("pi_empty", (1, 1, 0, 0))],
    ids=["base", "nsigma2", "pi_empty"],
)
def test_sectors_partition_the_tensor_basis_by_parity(case, dims):
    m = _dense_case(case)
    assert m.sector_dims == dims
    assert np.array_equal(np.sort(np.concatenate(m.sectors)), np.arange(m.dim))
    pi_number, sigma_number = (
        np.repeat(np.arange(space.n_max + 1), np.diff(space.offsets)) for space in (m.pi_space, m.sigma_space)
    )
    for s, ix in enumerate(m.sectors):
        pi, sigma = np.divmod(ix, m.sigma_space.dim)
        assert np.all(pi_number[pi] % 2 == s // 2) and np.all(sigma_number[sigma] % 2 == s % 2)


@pytest.mark.parametrize(
    "changes, dim, counts",
    [
        ({}, 210, (9, 9, 2, 2)),
        ({"pi_particle_cap": 3}, 1120, (9, 9, 30, 30)),
        ({"pi_particle_cap": 4}, 4760, (106, 106, 30, 30)),
        ({"energy_cap": 2}, 9126, None),
    ],
    ids=["D210", "D1120", "D4760", "D9126"],
)
def test_orbits_partition_each_sector(changes, dim, counts):
    """22, 78, 272 and 403 orbits: each sector's states are g.r for its representatives
    r, every state's representative is the least of its orbit, and Burnside's count from
    the hyperboloids alone (the memory guard's) is the number found."""
    m = _dense_case({"window_radius": 0, "horizon": 1, **changes})
    assert m.dim == dim
    found = tuple(len(orbit[0]) for orbit in m.orbits)
    assert sum(found) == {210: 22, 1120: 78, 4760: 272, 9126: 403}[dim]
    assert counts is None or found == counts
    for perms, (reps, element, rep) in zip(m.sector_permutations, m.orbits):
        assert np.array_equal(perms[element, rep], np.arange(perms.shape[1]))
        assert np.array_equal(rep, perms.min(axis=0))
        assert np.array_equal(reps, np.flatnonzero(rep == np.arange(len(rep))))
        assert np.array_equal(np.sort(perms, axis=0), np.sort(perms[:, rep], axis=0))  # g.i runs over i's orbit
    pi, sigma = (scattering._fixed_states(space.hyperboloid, space.n_max) for space in (m.pi_space, m.sigma_space))
    assert found == tuple(sum(f[p] * e[q] for f, e in zip(pi, sigma)) // 24 for p in (0, 1) for q in (0, 1))


def test_generators_generate_the_group():
    assert len(symmetry.generate_from([symmetry.index(label) for label in scattering.GENERATORS])) == 24
