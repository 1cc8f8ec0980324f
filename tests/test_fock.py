"""Fock sectors, field operators, commutation identities, symmetry action."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from causet_qft import fock as fock_module
from causet_qft.fock import (
    FieldOperator,
    adjoint_defect,
    basis_unit,
    commutator,
    fock_space,
    momentum_operators,
    multiset_indicator,
    phase,
    phase_sum,
    phi,
    psi,
    rep_v,
    restrict,
    sine_sum,
    spin_rep,
    vacuum,
    xi_commutator_defect,
    xi_matrix,
)
from causet_qft.lattice import Vec4, minkowski_doubled, norm_sq3
from causet_qft.momentum import (
    Hyperboloid,
    PoincareElement,
    hyperboloid,
    mass_shell_defect,
    poincare_product,
)
from causet_qft.representations import SignConvention, spinor_of
from causet_qft.symmetry import element, elements, multiply

RND = random.Random(20241)


def _random_x(rnd=RND, span=3):
    return Vec4(*(rnd.randint(-span, span) for _ in range(4)))


@pytest.fixture(scope="module")
def fock13():
    """13-point massless hyperboloid, two-particle cap: dims 1 + 13 + 91."""
    return fock_space(hyperboloid(0, 1), 2)


# Dense oracles for the monomial layer, built one multiset at a time.


def _lowering_oracle(fock):
    """Per-point real lowering matrices on the full space."""
    mats = [np.zeros((fock.dim, fock.dim)) for _ in fock.hyperboloid.points]
    for n in range(fock.n_max):
        src, dst = fock.multiset_arrays[n + 1].tolist(), fock.multiset_arrays[n].tolist()
        for col, mu in enumerate(src):
            for k in set(mu):
                removed = list(mu)
                removed.remove(k)
                row = dst.index(removed)
                mats[k][fock.offsets[n] + row, fock.offsets[n + 1] + col] = math.sqrt(mu.count(k))
    return mats


def _ladder_oracle(op, mats, q):
    return mats[q] if op.role == "annihilates" else mats[q].T


def _field_oracle(op, mats):
    out = np.zeros((op.fock.dim, op.fock.dim), dtype=complex)
    for q, c in enumerate(op.coeffs):
        out += c * _ladder_oracle(op, mats, q)
    return out


def _commutator_oracle(a, b, mats):
    """The dense bilinear loop over point pairs."""
    out = np.zeros((a.fock.dim, a.fock.dim), dtype=complex)
    for q in range(len(mats)):
        la = _ladder_oracle(a, mats, q)
        for r in range(len(mats)):
            lb = _ladder_oracle(b, mats, r)
            bracket = la @ lb - lb @ la
            if bracket.any():
                out += (a.coeffs[q] * b.coeffs[r]) * bracket
    return out


def _rep_v_oracle(y, rot, fock):
    """Dense V: point permutation from the rotation, phases from the translation."""
    perm = fock.hyperboloid.permutation_under(rot)
    point_phases = [phase(p, y) for p in fock.hyperboloid.points]
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    for n, sector in enumerate(fock.multiset_arrays):
        sector = sector.tolist()
        for col, mu in enumerate(sector):
            mapped = sorted(perm[i] for i in mu)
            amp = 1.0 + 0.0j
            for i in mapped:
                amp *= point_phases[i]
            out[fock.offsets[n] + sector.index(mapped), fock.offsets[n] + col] = amp
    return out


def _dense(perm, amp):
    """The monomial matrix V[perm[c], c] = amp[c]."""
    v = np.zeros((len(perm), len(perm)), dtype=complex)
    v[perm, np.arange(len(perm))] = amp
    return v


def _same_bits(a, b):
    """Equal as IEEE bit patterns, so signed zeros must agree too."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@pytest.fixture(scope="module", params=[(0, 1, 2), (2, 2, 3)], ids=["fock13", "six_points_n3"])
def oracle_space(request):
    """``fock13`` and a 6-point space with a three-particle cap (dim 84), with dense ladders."""
    m2, pmax, nmax = request.param
    space = fock_space(hyperboloid(m2, pmax), nmax)
    return space, _lowering_oracle(space)


def test_as_matrix_matches_dense_oracle(oracle_space):
    space, mats = oracle_space
    rnd = random.Random(11)
    for x in [Vec4(0, 0, 0, 0)] + [_random_x(rnd) for _ in range(4)]:
        for field in (phi, psi):
            op = field(x, space)
            m = op.as_matrix()
            assert _same_bits(m, _field_oracle(op, mats))
            rows, cols = np.nonzero(m)
            assert op.triplets() == [
                (int(r), int(c), float(m[r, c].real), float(m[r, c].imag)) for r, c in zip(rows, cols)
            ]
            vec = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(space.dim)])
            assert np.max(np.abs(op.apply(vec) - m @ vec)) < 1e-12


def test_array_phases_bit_equal_scalar_phase():
    rnd = random.Random(14)
    for m2, pmax in ((0, 2), (3, 3)):
        space = fock_space(hyperboloid(m2, pmax), 1)
        pts = space.hyperboloid.points
        for _ in range(20):
            x, y = _random_x(rnd, span=9), _random_x(rnd, span=9)
            assert _same_bits(np.array(psi(x, space).coeffs), np.array([phase(p, x) for p in pts]))
            conj = np.array([phase(p, x).conjugate() for p in pts])
            assert _same_bits(np.array(phi(x, space).coeffs), conj)
            assert _same_bits(
                np.array(phase_sum(space.hyperboloid, x, y)), np.array(sum(phase(p, y - x) for p in pts))
            )
            sines = sum(math.sin(0.5 * minkowski_doubled(p, y - x)) for p in pts)
            assert _same_bits(np.array(sine_sum(space.hyperboloid, x, y)), np.array(sines))


def test_commutator_across_equal_spaces():
    x, y = Vec4(1, 1, 0, 0), Vec4(2, 0, 1, -1)
    first, second = (fock_space(hyperboloid(3, 3), 2) for _ in range(2))
    assert first is not second and first == second
    assert _same_bits(commutator(phi(x, first), psi(y, second)), commutator(phi(x, first), psi(y, first)))
    with pytest.raises(ValueError, match="operators live on different Fock spaces"):
        commutator(phi(x, first), psi(y, fock_space(hyperboloid(3, 3), 1)))
    with pytest.raises(ValueError, match="operators live on different Fock spaces"):
        commutator(phi(x, first), psi(y, fock_space(hyperboloid(3, 4), 2)))


def test_commutator_matches_dense_oracle(oracle_space):
    space, mats = oracle_space
    rnd = random.Random(12)
    x, y = _random_x(rnd), _random_x(rnd)
    for fa in (phi, psi):
        for fb in (phi, psi):
            a, b = fa(x, space), fb(y, space)
            assert _same_bits(commutator(a, b), _commutator_oracle(a, b, mats))


def test_rep_v_matches_dense_oracle(oracle_space):
    space, _ = oracle_space
    rnd = random.Random(13)
    for _ in range(10):
        g = PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])
        perm, amp = rep_v(g.translation, g.rotation, space)
        oracle = _rep_v_oracle(g.translation, g.rotation, space)
        cols, rows = np.nonzero(oracle.T)  # column by column
        assert np.array_equal(cols, np.arange(space.dim))
        assert np.array_equal(perm, rows)
        assert np.max(np.abs(amp - oracle[perm, cols])) < 1e-15


def test_sector_dimensions(fock13):
    dims = [len(ms) for ms in fock13.multiset_arrays]
    assert dims == [1, 13, 91]
    assert fock13.offsets == (0, 1, 14, 105)
    assert fock13.dim == 105
    assert fock13.multiset_arrays[2].shape == (math.comb(13 + 2 - 1, 2), 2)
    # weights: number of ordered arrangements, summing to d^n over the sector
    indicators = [multiset_indicator(fock13, tuple(m)) for m in fock13.multiset_arrays[2].tolist()]
    assert sum(np.vdot(e, e).real for e in indicators) == pytest.approx(13**2)


def test_inner_product_weights(fock13):
    e_pp = multiset_indicator(fock13, (0, 0))
    e_pq = multiset_indicator(fock13, (0, 1))
    assert np.vdot(e_pp, e_pp) == pytest.approx(1.0)
    assert np.vdot(e_pq, e_pq) == pytest.approx(2.0)
    assert np.vdot(e_pp, e_pq) == 0.0
    assert np.vdot(e_pq, multiset_indicator(fock13, (1, 0))) == pytest.approx(2.0)


def test_inner_product_positive_definite(fock13):
    rnd = random.Random(1)
    for _ in range(20):
        v = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        assert np.vdot(v, v).real > 0
        w = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        assert np.vdot(v, w) == pytest.approx(np.conj(np.vdot(w, v)))


def test_phi_annihilates_vacuum(fock13):
    x = _random_x()
    out = phi(x, fock13).apply(vacuum(fock13))
    assert np.max(np.abs(out)) == 0.0


def test_phi_single_point_hyperboloid():
    f1 = fock_space(hyperboloid(1, 1), 2)
    p = f1.hyperboloid.points[0]
    x = Vec4(2, 1, 0, -1)
    out = phi(x, f1).apply(basis_unit(f1, (0,)))
    expected = np.conj(phase(p, x))
    assert out[0] == pytest.approx(expected)
    assert np.allclose(out[1:], 0.0)


def test_phi_real_at_origin(fock13):
    m = phi(Vec4(0, 0, 0, 0), fock13).as_matrix()
    assert np.max(np.abs(m.imag)) == 0.0


def test_psi_on_vacuum(fock13):
    x = _random_x()
    out = psi(x, fock13).apply(vacuum(fock13))
    sector1 = out[fock13.sector_slice(1)]
    expected = np.array([phase(p, x) for p in fock13.hyperboloid.points])
    assert np.max(np.abs(sector1 - expected)) < 1e-14


def test_psi_ladder_factor_single_point():
    f1 = fock_space(hyperboloid(1, 1), 3)
    x = Vec4(0, 0, 0, 0)
    creator = psi(x, f1)
    vec = vacuum(f1)
    for n in range(3):
        vec = creator.apply(vec)
        unit = basis_unit(f1, tuple([0] * (n + 1)))
        expected = math.prod(math.sqrt(k + 1) for k in range(n + 1))
        assert np.vdot(unit, vec) == pytest.approx(expected)


def test_psi_is_adjoint_of_phi(fock13):
    for _ in range(20):
        x = _random_x()
        a = phi(x, fock13).as_matrix()
        c = psi(x, fock13).as_matrix()
        assert np.max(np.abs(c - a.conj().T)) < 1e-12


def test_adjoint_pairing_random_vectors(fock13):
    rnd = random.Random(2)
    x = _random_x(rnd)
    a, c = phi(x, fock13), psi(x, fock13)
    for _ in range(10):
        f = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        g = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        # restrict g to sectors below the cap so truncation cannot leak
        g[fock13.sector_slice(2)] = 0.0
        assert np.vdot(a.apply(f), g) == pytest.approx(np.vdot(f, c.apply(g)), abs=1e-10)


def test_annihilator_commutator_vanishes_exactly(fock13):
    x, y = Vec4(1, 1, 0, 0), Vec4(3, 0, -1, 2)
    c = commutator(phi(x, fock13), phi(y, fock13))
    assert np.all(c == 0)


def test_creator_commutator_vanishes_exactly(fock13):
    x, y = Vec4(2, 0, 1, 0), Vec4(1, -1, 0, 1)
    c = commutator(psi(x, fock13), psi(y, fock13))
    assert np.all(c == 0)


def test_phi_psi_commutator_scalar(fock13):
    x, y = Vec4(1, 1, 0, 0), Vec4(2, 0, 1, -1)
    c = restrict(fock13, commutator(phi(x, fock13), psi(y, fock13)))
    scalar = phase_sum(fock13.hyperboloid, x, y)
    assert np.max(np.abs(c - scalar * np.eye(c.shape[0]))) < 1e-10


def test_phi_psi_same_point_counts_points(fock13):
    x = Vec4(2, 1, 1, 1)
    c = restrict(fock13, commutator(phi(x, fock13), psi(x, fock13)))
    assert np.max(np.abs(c - 13.0 * np.eye(c.shape[0]))) < 1e-10


def test_xi_commutator(fock13):
    x, y = Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0)
    # [xi(a), xi(b)] = 2i sine_sum(a, b) I on the truncation-safe sectors
    for a, b in ((x, y), (x, x), (y, x)):
        assert xi_commutator_defect(fock13, [(a, b)]) <= 1e-10
    val = 2j * sine_sum(fock13.hyperboloid, x, y)
    assert val == pytest.approx(2j * 12.0 * math.sin(1.0))
    assert 2j * sine_sum(fock13.hyperboloid, x, x) == 0
    assert 2j * sine_sum(fock13.hyperboloid, y, x) == pytest.approx(-val)
    assert sine_sum(fock13.hyperboloid, x, y) == pytest.approx(12.0 * math.sin(1.0))
    with pytest.raises(ValueError, match="n_max >= 1"):
        xi_commutator_defect(fock_space(hyperboloid(0, 1), 0), [(x, y)])


def test_xi_matrix_bit_equals_the_sum_of_its_fields(oracle_space):
    """One array holding both fields' entries is the sum of the two full matrices."""
    space, _ = oracle_space
    rnd = random.Random(15)
    for x in [Vec4(0, 0, 0, 0)] + [_random_x(rnd) for _ in range(4)]:
        assert _same_bits(xi_matrix(x, space), phi(x, space).as_matrix() + psi(x, space).as_matrix())


def _adjoint_defect_oracle(space, points):
    """The dense measure: worst |psi(x) - phi(x)^H| entry over full matrices."""
    field_phi, field_psi = fock_module.phi, fock_module.psi  # as patched
    return max(
        float(np.max(np.abs(field_psi(x, space).as_matrix() - field_phi(x, space).as_matrix().conj().T)))
        for x in points
    )


def test_adjoint_defect_matches_dense_oracle(oracle_space):
    space, _ = oracle_space
    rnd = random.Random(16)
    points = [_random_x(rnd) for _ in range(20)]
    assert adjoint_defect(space, points) == _adjoint_defect_oracle(space, points)


def test_adjoint_defect_sees_a_corrupted_coefficient(monkeypatch):
    space = fock_space(hyperboloid(3, 3), 2)
    rnd = random.Random(17)
    points = [_random_x(rnd) for _ in range(3)]
    exact = psi

    def corrupted(x, fock):
        op = exact(x, fock)
        return FieldOperator(fock=fock, role=op.role, coeffs=(op.coeffs[0] * 1.5,) + op.coeffs[1:])

    monkeypatch.setattr(fock_module, "psi", corrupted)
    defect = adjoint_defect(space, points)
    assert defect > 0.1
    assert defect == _adjoint_defect_oracle(space, points)


@pytest.mark.parametrize("part", ["weight", "target", "extra"])
def test_adjoint_defect_sees_a_corrupted_raising_entry(part):
    space = fock_space(hyperboloid(3, 3), 2)
    rnd = random.Random(18)
    points = [_random_x(rnd) for _ in range(3)]
    assert adjoint_defect(space, points) == 0.0
    up, up_w = space.ladder_maps["creates"]
    q, r = 4, 0  # raise point 4 out of the vacuum
    assert up[q, r] >= 0
    if part == "weight":
        up_w[q, r] *= 2.0
    elif part == "target":  # land where raising point 5 lands
        up[q, r] = up[q + 1, r]
    else:  # raise out of the top sector, whose image the truncation drops
        r = space.offsets[2]
        assert up[q, r] < 0
        up[q, r], up_w[q, r] = space.offsets[1], 1.0
    defect = adjoint_defect(space, points)
    assert defect > 0.5
    assert defect == _adjoint_defect_oracle(space, points)


def _rep_v_uncached(y, rot, fock):
    """rep_v ranking every sector's image multisets on each call."""
    point_perm = fock.hyperboloid.permutation_under(rot)
    point_phases = np.array([phase(p, y) for p in fock.hyperboloid.points])
    perm = np.empty(fock.dim, dtype=np.int64)
    amp = np.ones(fock.dim, dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays):
        mapped = np.sort(point_perm[ms], axis=1)
        block = fock.sector_slice(n)
        perm[block] = fock.rank(n, mapped)
        for points in mapped.T:
            amp[block] *= point_phases[points]
    return perm, amp


@pytest.mark.parametrize("m2,pmax,nmax", [(3, 3, 2), (0, 1, 3)])
def test_rep_v_bit_equals_uncached_oracle(m2, pmax, nmax):
    space = fock_space(hyperboloid(m2, pmax), nmax)
    rnd = random.Random(19)
    for rot in elements():
        for _ in range(2):  # the second call reads the cached permutation
            y = _random_x(rnd)
            perm, amp = rep_v(y, rot, space)
            want_perm, want_amp = _rep_v_uncached(y, rot, space)
            assert np.array_equal(perm, want_perm)
            assert _same_bits(amp, want_amp)
        assert not perm.flags.writeable


def test_rep_v_raises_on_an_open_point_set():
    """Without one point the set is not closed under the rotations that reach it:
    those raise on every call, as the uncached action does, and the others agree."""
    full = hyperboloid(0, 1)
    space = fock_space(Hyperboloid(mass_sq=0, p_max=1, coords=full.coords[:-1]), 2)
    y = Vec4(1, 0, 2, -1)
    raised = 0
    for rot in elements():
        try:
            want = _rep_v_uncached(y, rot, space)
        except ValueError as exc:
            raised += 1
            for _ in range(2):
                with pytest.raises(ValueError) as got:
                    rep_v(y, rot, space)
                assert str(got.value) == str(exc)
            continue
        got_perm, got_amp = rep_v(y, rot, space)
        assert np.array_equal(got_perm, want[0]) and _same_bits(got_amp, want[1])
    assert 0 < raised < 24


def test_xi_self_adjoint(fock13):
    x = _random_x()
    m = xi_matrix(x, fock13)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_rep_v_identity(fock13):
    perm, amp = rep_v(Vec4(0, 0, 0, 0), element("I"), fock13)
    assert np.array_equal(perm, np.arange(fock13.dim))
    assert np.array_equal(amp, np.ones(fock13.dim, dtype=complex))


def test_rep_v_translation_phases(fock13):
    y = Vec4(2, 1, 0, 0)
    v = _dense(*rep_v(y, element("I"), fock13))
    block = v[fock13.sector_slice(1), fock13.sector_slice(1)]
    expected = np.diag([phase(p, y) for p in fock13.hyperboloid.points])
    assert np.max(np.abs(block - expected)) < 1e-14


def test_rep_v_unitary_and_block_diagonal(fock13):
    rnd = random.Random(3)
    for _ in range(10):
        g = PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])
        v = _dense(*rep_v(g.translation, g.rotation, fock13))
        assert np.max(np.abs(v.conj().T @ v - np.eye(fock13.dim))) < 1e-12
        for n in range(fock13.n_max + 1):
            for m in range(fock13.n_max + 1):
                if n != m:
                    assert np.all(v[fock13.sector_slice(n), fock13.sector_slice(m)] == 0)


def test_rep_v_homomorphism(fock13):
    rnd = random.Random(4)
    for _ in range(20):
        g1 = PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])
        g2 = PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])
        g12 = poincare_product(g1, g2)
        (p1, a1), (p2, a2), (p12, a12) = (rep_v(g.translation, g.rotation, fock13) for g in (g1, g2, g12))
        assert np.array_equal(p1[p2], p12)
        assert np.max(np.abs(a1[p2] * a2 - a12)) < 1e-10
        assert np.max(np.abs(_dense(p1, a1) @ _dense(p2, a2) - _dense(p12, a12))) < 1e-10


def test_spin_rep_spin0_matches_single_particle(fock13):
    h = fock13.hyperboloid
    y = Vec4(1, 1, 0, 0)
    z = element("A")
    s0 = spin_rep(y, z, 0, h)
    full = _dense(*rep_v(y, z, fock13))
    assert np.max(np.abs(s0 - full[fock13.sector_slice(1), fock13.sector_slice(1)])) < 1e-12


def test_spin_rep_identity_rotation(fock13):
    h = fock13.hyperboloid
    y = Vec4(1, 0, 0, 0)
    s1 = spin_rep(y, element("I"), 1, h)
    phases = np.diag([phase(p, y) for p in h.points])
    assert np.max(np.abs(s1 - np.kron(phases, np.eye(3)))) < 1e-12


def test_spin_rep_unitary(fock13):
    h = fock13.hyperboloid
    rnd = random.Random(6)
    for spin in (0, 0.5, 1):
        for _ in range(5):
            z = elements()[rnd.randrange(24)]
            m = spin_rep(_random_x(rnd), z, spin, h)
            assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12
    with pytest.raises(ValueError):
        spin_rep(Vec4(0, 0, 0, 0), element("I"), 2, h)


def test_spin_half_projective_sign(fock13):
    """Composing the spin-1/2 action along an inverse pair flips by the lift sign."""
    h = fock13.hyperboloid
    zero = Vec4(0, 0, 0, 0)
    g, hh = element("G"), element("H")
    assert multiply(g, hh).label == "I"
    prod = spin_rep(zero, g, 0.5, h) @ spin_rep(zero, hh, 0.5, h)
    ident = spin_rep(zero, element("I"), 0.5, h)
    d_plus = np.max(np.abs(prod - ident))
    d_minus = np.max(np.abs(prod + ident))
    assert min(d_plus, d_minus) < 1e-10
    # under the published sign choices the same pair multiplies to minus one
    gp = spinor_of(g, SignConvention.PRINTED).matrix
    hp = spinor_of(hh, SignConvention.PRINTED).matrix
    assert np.max(np.abs(gp @ hp + np.eye(2))) < 1e-10


def test_momentum_operators(fock13):
    p0, p1, p2, p3 = momentum_operators(fock13)
    pts = fock13.hyperboloid.points
    for i, p in enumerate(pts):
        assert p0[i, i] == p.t
        assert (p1[i, i], p2[i, i], p3[i, i]) == (p.n, p.p, p.q)
    assert mass_shell_defect(fock13.hyperboloid) == 0
    # trace identity: energy-squared minus mass counts the spatial form
    lhs = int(np.trace(p0 @ p0)) - fock13.hyperboloid.mass_sq * len(pts)
    assert lhs == sum(norm_sq3(p.spatial) for p in pts)


def test_mass_shell_exact_on_massive_hyperboloid():
    f = fock_space(hyperboloid(4, 3), 1)
    assert mass_shell_defect(f.hyperboloid) == 0


def test_empty_hyperboloid_rejected():
    with pytest.raises(ValueError):
        fock_space(hyperboloid(2, 1), 1)  # no points with p0 <= 1 at mass^2=2
