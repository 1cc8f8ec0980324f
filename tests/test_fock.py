"""Fock sectors, field operators, commutation identities, symmetry action."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from causet_qft import cli
from causet_qft import fock as fock_module
from causet_qft.fock import (
    FieldOperator,
    adjoint_defect,
    fock_space,
    phase_sum_defect,
    phi,
    rep_v_defects,
    same_species_commutator_max,
    xi_defects,
)
from causet_qft.momentum import (
    Hyperboloid,
    hyperboloid,
    mass_shell_defect,
)
from oracles import (
    PoincareElement,
    SignConvention,
    Vec4,
    adjoint_defect_by_point,
    apply,
    basis_unit,
    bracket_terms,
    bracket_walk,
    commutator,
    element,
    element_rows,
    elements,
    field_entries,
    index,
    matrix_commutator,
    minkowski_doubled,
    momentum_operators,
    monomials_by_element,
    multiply,
    multiset_indicator,
    norm_sq3,
    pair_rows,
    phase,
    phase_sum,
    phase_sum_defect_by_pair,
    points,
    poincare_product,
    psi,
    rep_v,
    rep_v_defects_by_pair,
    rows,
    safe_columns,
    sine_sum,
    spatial,
    spin_rep,
    spinor_of,
    vacuum,
    xi_defects_by_pair,
    xi_matrix,
)

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
    mats = [np.zeros((fock.dim, fock.dim)) for _ in points(fock.hyperboloid)]
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
    perm = fock.hyperboloid.permutation_under(index(rot))
    point_phases = [phase(p, y) for p in points(fock.hyperboloid)]
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
            op = field(x.coords(), space)
            m = op.as_matrix()
            assert _same_bits(m, _field_oracle(op, mats))
            rows, cols = np.nonzero(m)
            assert list(zip(*(column.tolist() for column in op.triplets()))) == [
                (int(r), int(c), float(m[r, c].real), float(m[r, c].imag)) for r, c in zip(rows, cols)
            ]
            vec = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(space.dim)])
            assert np.max(np.abs(apply(op, vec) - m @ vec)) < 1e-12


def test_array_phases_bit_equal_scalar_phase():
    rnd = random.Random(14)
    for m2, pmax in ((0, 2), (3, 3)):
        space = fock_space(hyperboloid(m2, pmax), 1)
        pts = points(space.hyperboloid)
        for _ in range(20):
            x, y = _random_x(rnd, span=9), _random_x(rnd, span=9)
            assert _same_bits(np.array(psi(x.coords(), space).coeffs), np.array([phase(p, x) for p in pts]))
            conj = np.array([phase(p, x).conjugate() for p in pts])
            assert _same_bits(np.array(phi(x.coords(), space).coeffs), conj)
            assert _same_bits(
                np.array(phase_sum(space.hyperboloid, x, y)), np.array(sum(phase(p, y - x) for p in pts))
            )
            sines = sum(math.sin(0.5 * minkowski_doubled(p, y - x)) for p in pts)
            assert _same_bits(np.array(sine_sum(space.hyperboloid, x, y)), np.array(sines))


def test_commutator_across_equal_spaces():
    x, y = (1, 1, 0, 0), (2, 0, 1, -1)
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
            a, b = fa(x.coords(), space), fb(y.coords(), space)
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
    out = apply(phi(x.coords(), fock13), vacuum(fock13))
    assert np.max(np.abs(out)) == 0.0


def test_phi_single_point_hyperboloid():
    f1 = fock_space(hyperboloid(1, 1), 2)
    p = points(f1.hyperboloid)[0]
    x = Vec4(2, 1, 0, -1)
    out = apply(phi(x.coords(), f1), basis_unit(f1, (0,)))
    expected = np.conj(phase(p, x))
    assert out[0] == pytest.approx(expected)
    assert np.allclose(out[1:], 0.0)


def test_phi_real_at_origin(fock13):
    m = phi((0, 0, 0, 0), fock13).as_matrix()
    assert np.max(np.abs(m.imag)) == 0.0


def test_psi_on_vacuum(fock13):
    x = _random_x()
    out = apply(psi(x.coords(), fock13), vacuum(fock13))
    sector1 = out[fock13.sector_slice(1)]
    expected = np.array([phase(p, x) for p in points(fock13.hyperboloid)])
    assert np.max(np.abs(sector1 - expected)) < 1e-14


def test_psi_ladder_factor_single_point():
    f1 = fock_space(hyperboloid(1, 1), 3)
    x = Vec4(0, 0, 0, 0)
    creator = psi(x.coords(), f1)
    vec = vacuum(f1)
    for n in range(3):
        vec = apply(creator, vec)
        unit = basis_unit(f1, tuple([0] * (n + 1)))
        expected = math.prod(math.sqrt(k + 1) for k in range(n + 1))
        assert np.vdot(unit, vec) == pytest.approx(expected)


def test_psi_is_adjoint_of_phi(fock13):
    for _ in range(20):
        x = _random_x()
        a = phi(x.coords(), fock13).as_matrix()
        c = psi(x.coords(), fock13).as_matrix()
        assert np.max(np.abs(c - a.conj().T)) < 1e-12


def test_adjoint_pairing_random_vectors(fock13):
    rnd = random.Random(2)
    x = _random_x(rnd)
    a, c = phi(x.coords(), fock13), psi(x.coords(), fock13)
    for _ in range(10):
        f = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        g = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(fock13.dim)])
        # restrict g to sectors below the cap so truncation cannot leak
        g[fock13.sector_slice(2)] = 0.0
        assert np.vdot(apply(a, f), g) == pytest.approx(np.vdot(f, apply(c, g)), abs=1e-10)


def test_annihilator_commutator_vanishes_exactly(fock13):
    x, y = Vec4(1, 1, 0, 0), Vec4(3, 0, -1, 2)
    c = commutator(phi(x.coords(), fock13), phi(y.coords(), fock13))
    assert np.all(c == 0)


def test_creator_commutator_vanishes_exactly(fock13):
    x, y = Vec4(2, 0, 1, 0), Vec4(1, -1, 0, 1)
    c = commutator(psi(x.coords(), fock13), psi(y.coords(), fock13))
    assert np.all(c == 0)


def test_phi_psi_commutator_scalar(fock13):
    x, y = Vec4(1, 1, 0, 0), Vec4(2, 0, 1, -1)
    end = fock13.safe_sector_end()
    c = commutator(phi(x.coords(), fock13), psi(y.coords(), fock13))[:end, :end]
    scalar = phase_sum(fock13.hyperboloid, x, y)
    assert np.max(np.abs(c - scalar * np.eye(c.shape[0]))) < 1e-10


def test_phi_psi_same_point_counts_points(fock13):
    x = Vec4(2, 1, 1, 1)
    end = fock13.safe_sector_end()
    c = commutator(phi(x.coords(), fock13), psi(x.coords(), fock13))[:end, :end]
    assert np.max(np.abs(c - 13.0 * np.eye(c.shape[0]))) < 1e-10


def test_xi_commutator(fock13):
    x, y = Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0)
    # [xi(a), xi(b)] = 2i sine_sum(a, b) I on the truncation-safe sectors
    for a, b in ((x, y), (x, x), (y, x)):
        assert xi_defects(fock13, *pair_rows([(a, b)]), random.Random(0))[0] <= 1e-10
    val = 2j * sine_sum(fock13.hyperboloid, x, y)
    assert val == pytest.approx(2j * 12.0 * math.sin(1.0))
    assert 2j * sine_sum(fock13.hyperboloid, x, x) == 0
    assert 2j * sine_sum(fock13.hyperboloid, y, x) == pytest.approx(-val)
    assert sine_sum(fock13.hyperboloid, x, y) == pytest.approx(12.0 * math.sin(1.0))
    with pytest.raises(ValueError, match="n_max >= 1"):
        xi_defects(fock_space(hyperboloid(0, 1), 0), *pair_rows([(x, y)]), random.Random(0))


def test_same_species_bracket_tables_are_empty(oracle_space):
    space, _ = oracle_space
    for role in ("annihilates", "creates"):
        assert all(len(column) == 0 for column in space.bracket_table(role, role))
    flat, q, r, bracket = space.bracket_table("annihilates", "creates")
    assert len(flat) > 0 and np.all(bracket != 0)
    # (q, r, column) order, the order in which the dense loop adds the terms
    assert np.all(np.diff((q * len(space.hyperboloid) + r) * space.dim + flat % space.dim) > 0)


def test_a_second_commutator_reuses_the_cached_tables():
    space = fock_space(hyperboloid(3, 3), 2)
    x, y = Vec4(1, 1, 0, 0), Vec4(2, 0, 1, -1)
    first = phase_sum_defect(space, *pair_rows([(x, y)]))
    table = space.bracket_table("annihilates", "creates")
    assert phase_sum_defect(space, *pair_rows([(x, y)])) == first
    assert all(a is b for a, b in zip(space.bracket_table("annihilates", "creates"), table))
    assert not any(column.flags.writeable for column in table)
    # an equal space builds its own tables, with the same entries
    other = fock_space(hyperboloid(3, 3), 2).bracket_table("annihilates", "creates")
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(other, table))


@pytest.mark.parametrize("nmax", [1, 2, 3])
@pytest.mark.parametrize("m2, pmax", [(0, 1), (2, 2), (1, 2)], ids=["fock13", "six_points", "pmax2"])
def test_bracket_tables_bit_equal_the_walk(m2, pmax, nmax):
    """Each role pair's table, built from two product tables, has the entries, order, dtypes
    and bits of the point-by-point walk over the dense ladder maps: on every column for
    equal roles, on the truncation-safe columns, d (dim - top) entries, for mixed ones.
    So has the xi bracket, which reads [psi(x), phi(y)] off the (annihilates, creates)
    table, summed per entry, for three pairs at once."""
    space = fock_space(hyperboloid(m2, pmax), nmax)
    roles = ("annihilates", "creates")
    for role_a in roles:
        for role_b in roles:
            table, walk = space.bracket_table(role_a, role_b), bracket_walk(space, role_a, role_b)
            if role_a != role_b:
                walk = safe_columns(space, walk)
                assert len(table[0]) == len(space.hyperboloid) * space.safe_sector_end()
            assert [a.dtype for a in table] == [b.dtype for b in walk]
            assert all(_same_bits(a, b) for a, b in zip(table, walk))
    rnd = random.Random(27)
    pairs = [(_random_x(rnd), _random_x(rnd)) for _ in range(3)]
    xs, ys = pair_rows(pairs)
    positions, entries = fock_module._accumulated(*fock_module._xi_bracket(space, xs, ys))
    for (x, y), got in zip(pairs, entries, strict=True):
        fields = [(fa(x.coords(), space), fb(y.coords(), space)) for fa in (phi, psi) for fb in (phi, psi)]
        parts = [bracket_terms(a, b, bracket_walk(space, a.role, b.role)) for a, b in fields]
        flat, terms = (np.concatenate(column) for column in zip(*parts))
        safe = flat % space.dim < space.safe_sector_end()
        want_positions, where = np.unique(flat[safe], return_inverse=True)
        want = np.zeros(len(want_positions), dtype=complex)
        np.add.at(want, where, terms[safe])
        assert np.array_equal(positions, want_positions) and _same_bits(got, want)


def _xi_bracket_from_tables(space, x, y):
    return sum(commutator(fa(x.coords(), space), fb(y.coords(), space)) for fa in (phi, psi) for fb in (phi, psi))


@pytest.fixture(scope="module", params=["oracle", "d231"])
def xi_space(request, oracle_space):
    """Both oracle spaces and the 20-point, two-particle space (dim 231)."""
    return oracle_space[0] if request.param == "oracle" else fock_space(hyperboloid(3, 3), 2)


def test_table_xi_bracket_matches_the_dense_product(xi_space):
    rnd = random.Random(21)
    for _ in range(3):
        x, y = _random_x(rnd), _random_x(rnd)
        dense = matrix_commutator(xi_matrix(x, xi_space), xi_matrix(y, xi_space))
        tables = _xi_bracket_from_tables(xi_space, x, y)
        assert np.max(np.abs(tables - dense)) <= 1e-14 * np.max(np.abs(dense))


def _dense_identity_defect(space, bracket, scalar):
    end = space.safe_sector_end()
    return float(np.max(np.abs(bracket[:end, :end] - scalar * np.eye(end))))


def test_identity_gates_bit_equal_the_dense_safe_block(xi_space):
    """The gates read the bracket nonzeros; the dense brackets' safe blocks give the same bits."""
    rnd = random.Random(26)
    for _ in range(3):
        x, y = _random_x(rnd), _random_x(rnd)
        dense = commutator(phi(x.coords(), xi_space), psi(y.coords(), xi_space))
        scalar = phase_sum(xi_space.hyperboloid, x, y)
        assert phase_sum_defect(xi_space, *pair_rows([(x, y)])) == _dense_identity_defect(xi_space, dense, scalar)
        # the four field brackets' terms, added in one pass as the gate adds them
        flat, terms = fock_module._xi_bracket(xi_space, np.array([x.coords()]), np.array([y.coords()]))
        dense = np.zeros(xi_space.dim**2, dtype=complex)
        np.add.at(dense, flat, terms[0])
        scalar = 2j * sine_sum(xi_space.hyperboloid, x, y)
        want = _dense_identity_defect(xi_space, dense.reshape(xi_space.dim, xi_space.dim), scalar)
        assert xi_defects(xi_space, *pair_rows([(x, y)]), random.Random(0))[0] == want
        assert same_species_commutator_max(xi_space, *rows([x, y])) == (0.0, 0.0)


def test_identity_defect_counts_missing_and_stray_entries(fock13):
    """A safe diagonal entry with no term counts at |scalar|; a term off the diagonal at its
    size; a term outside the safe block not at all."""
    end, dim = fock13.safe_sector_end(), fock13.dim
    diagonal = np.arange(end) * (dim + 1)
    full = np.full(end, 3 + 4j)

    def defect(fock, flat, terms, scalar):  # one pair, and the same pair twice
        once = fock_module._identity_defect(fock, flat, terms[None], [scalar])
        assert fock_module._identity_defect(fock, flat, np.stack([terms, terms]), [scalar, scalar]) == once
        return once

    assert defect(fock13, diagonal, full, 3 + 4j) == 0.0
    assert defect(fock13, diagonal[1:], full[1:], 3 + 4j) == 5.0
    assert defect(fock13, np.array([], dtype=np.int64), np.array([], dtype=complex), 3 + 4j) == 5.0
    # (0, 1) is safe; (0, end), (end, 0) and the last entry are not
    stray = np.append(diagonal, [1, end, end * dim, dim * dim - 1])
    assert defect(fock13, stray, np.append(full, [0.5, 9.0, 9.0, 9.0]), 3 + 4j) == 0.5
    # two terms at one position add up before they are compared
    assert defect(fock13, np.append(diagonal, 0), np.append(full, 1j), 3 + 4j) == 1.0


def test_xi_matrix_defect_is_rounding_on_exact_matrices(xi_space):
    rnd = random.Random(22)
    pairs = [(_random_x(rnd), _random_x(rnd)) for _ in range(3)]
    assert xi_defects(xi_space, *pair_rows(pairs), random.Random(23))[1] < 1e-12


def test_xi_defects_build_each_bracket_once(monkeypatch, fock13):
    """One bracket per pair serves both gates, the pairs' brackets built a batch at a time,
    and each gate is the worst pair's value."""
    calls = []
    bracket = fock_module._xi_bracket
    monkeypatch.setattr(fock_module, "_xi_bracket", lambda *a: calls.append(a[1:]) or bracket(*a))
    rnd = random.Random(28)
    pairs = [(_random_x(rnd), _random_x(rnd)) for _ in range(3)]
    both = xi_defects(fock13, *pair_rows(pairs), random.Random(29))
    xs, ys = (np.concatenate(column) for column in zip(*calls))
    assert xs.tolist() == [list(x.coords()) for x, _ in pairs] and ys.tolist() == [list(y.coords()) for _, y in pairs]
    # each pair alone, its v drawn where the three-pair run drew it
    draws = random.Random(29)
    alone = [xi_defects(fock13, *pair_rows([pair]), draws) for pair in pairs]
    assert both == tuple(max(column) for column in zip(*alone))


@pytest.mark.parametrize(
    "entry",
    [lambda o: (o[0], o[1]), lambda o: (o[1], o[2]), lambda o: (o[1] + 1, o[1] + 3)],
    ids=["safe_block", "top_sector_column", "zero_entry"],
)
def test_xi_matrix_defect_sees_one_corrupted_entry(monkeypatch, entry):
    """One entry of xi's ladder entries off by 0.5: a lowering entry in the safe block, one
    in a top-sector column (reached only through xi(y) v), or a stray entry appended at a
    one-particle to one-particle position, which is zero."""
    space = fock_space(hyperboloid(3, 3), 2)
    row, col = entry(space.offsets)
    rnd = random.Random(24)
    pairs = [(_random_x(rnd), _random_x(rnd)) for _ in range(2)]
    exact = fock_module.xi_entries

    def corrupted(xs, fock):
        rows, cols, vals = exact(xs, fock)
        hit = (rows == row) & (cols == col)
        if not hit.any():
            return np.append(rows, row), np.append(cols, col), np.append(vals, np.full((len(vals), 1), 0.5), axis=1)
        return rows, cols, vals + 0.5 * hit

    assert max(xi_defects(space, *pair_rows(pairs), random.Random(25))) < 1e-12
    monkeypatch.setattr(fock_module, "xi_entries", corrupted)
    bracket_defect, product_defect = xi_defects(space, *pair_rows(pairs), random.Random(25))
    assert product_defect > 1e-3
    # the bracket gate reads the tables, not the ladder entries
    assert bracket_defect < 1e-12


def test_cached_ladder_entries_bit_equal_the_per_call_scan(oracle_space):
    """Each field's entries, gathered over the space's cached ladder entries, are the
    arrays a fresh scan of the ladder maps gives, in the same (point, column) order."""
    space, _ = oracle_space
    rnd = random.Random(27)
    for x in [Vec4(0, 0, 0, 0)] + [_random_x(rnd) for _ in range(4)]:
        for field in (phi, psi):
            op = field(x.coords(), space)
            for got, want in zip(op._entries(), field_entries(op)):
                assert _same_bits(got, want)
    for column in space.ladder_entries["creates"]:
        assert not column.flags.writeable


@pytest.mark.parametrize("m2, pmax, nmax", [(3, 3, 2), (0, 1, 3), (3, 3, 3), (0, 1, 4)])
def test_fock_memory_guard_covers_the_traced_peak(monkeypatch, m2, pmax, nmax):
    """The guard's count of ladder-map slots, mixed bracket-table entries (the run keeps one
    mixed table) and the Y_r X_q paths its build gathers covers the traced peak of a
    fock-verify run, and is within twice of it."""
    needs = []
    monkeypatch.setattr(fock_module, "require_memory", lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        code = cli.main(["fock-verify", "--m2", str(m2), "--pmax", str(pmax), "--nmax", str(nmax)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    space = fock_space(hyperboloid(m2, pmax), nmax)
    d = len(space.hyperboloid)
    entries = len(space.bracket_table("annihilates", "creates")[0])
    paths = len(space.product_table("creates", "annihilates", end=space.safe_sector_end())[0])
    assert needs == [fock_module._SLOT_BYTES * (d * space.dim + entries + paths)]
    assert peak <= needs[0] < 2 * peak


def test_xi_matrix_bit_equals_the_sum_of_its_fields(oracle_space):
    """One array holding both fields' entries is the sum of the two full matrices."""
    space, _ = oracle_space
    rnd = random.Random(15)
    for x in [Vec4(0, 0, 0, 0)] + [_random_x(rnd) for _ in range(4)]:
        assert _same_bits(xi_matrix(x, space), phi(x.coords(), space).as_matrix() + psi(x.coords(), space).as_matrix())


def _adjoint_defect_oracle(space, points):
    """The dense measure: worst |psi(x) - phi(x)^H| entry over full matrices, with the
    coefficients the gate reads (as patched)."""
    worst = 0.0
    for x in points:
        rows = fock_module._coefficients(space.hyperboloid, np.array([x.coords()]))
        roles = ("annihilates", "creates")
        low, high = (FieldOperator(space, role, tuple(r[0])).as_matrix() for role, r in zip(roles, rows))
        worst = max(worst, float(np.max(np.abs(high - low.conj().T))))
    return worst


def test_adjoint_defect_matches_dense_oracle(oracle_space):
    space, _ = oracle_space
    rnd = random.Random(16)
    points = [_random_x(rnd) for _ in range(20)]
    assert adjoint_defect(space, rows(points)) == _adjoint_defect_oracle(space, points)


def test_adjoint_defect_sees_a_corrupted_coefficient(monkeypatch):
    space = fock_space(hyperboloid(3, 3), 2)
    rnd = random.Random(17)
    points = [_random_x(rnd) for _ in range(3)]
    exact = fock_module._coefficients

    def corrupted(h, xs):
        phi_rows, psi_rows = exact(h, xs)
        psi_rows[:, 0] *= 1.5
        return phi_rows, psi_rows

    monkeypatch.setattr(fock_module, "_coefficients", corrupted)
    defect = adjoint_defect(space, rows(points))
    assert defect > 0.1
    assert defect == _adjoint_defect_oracle(space, points)


@pytest.mark.parametrize("part", ["weight", "target", "extra"])
def test_adjoint_defect_sees_a_corrupted_raising_entry(part):
    space = fock_space(hyperboloid(3, 3), 2)
    rnd = random.Random(18)
    points = [_random_x(rnd) for _ in range(3)]
    assert adjoint_defect(space, rows(points)) == 0.0
    # corrupt a fresh space's maps before its ladder entries are gathered from them
    space = fock_space(hyperboloid(3, 3), 2)
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
    defect = adjoint_defect(space, rows(points))
    assert defect > 0.5
    assert defect == _adjoint_defect_oracle(space, points)


def _rep_v_uncached(y, rot, fock):
    """rep_v ranking every sector's image multisets on each call."""
    point_perm = fock.hyperboloid.permutation_under(index(rot))
    point_phases = np.array([phase(p, y) for p in points(fock.hyperboloid)])
    perm = np.empty(fock.dim, dtype=np.int64)
    amp = np.ones(fock.dim, dtype=complex)
    for n, ms in enumerate(fock.multiset_arrays):
        mapped = np.sort(point_perm[ms], axis=1)
        block = fock.sector_slice(n)
        perm[block] = fock.rank(n, mapped)
        for column in mapped.T:
            amp[block] *= point_phases[column]
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


def _rep_v_defects_by_element(fock, pairs):
    """The rep_v gate one V(g) at a time, each from :func:`_rep_v_uncached`."""
    unitarity = hom = 0.0
    block_diagonal = True
    sector_of = np.repeat(np.arange(fock.n_max + 1), np.diff(fock.offsets))
    for g1, g2 in pairs:
        (p1, a1), (p2, a2), (p12, a12) = (
            _rep_v_uncached(g.translation, g.rotation, fock) for g in (g1, g2, poincare_product(g1, g2))
        )
        shared = np.bincount(p1, minlength=fock.dim)[p1] > 1
        off_diagonal = float(np.max(np.abs(a1[shared]), initial=0.0)) ** 2
        unitarity = max(unitarity, off_diagonal, float(np.max(np.abs((a1.conj() * a1).real - 1.0))))
        prod = a1[p2] * a2
        defect = np.where(p1[p2] == p12, np.abs(prod - a12), np.maximum(np.abs(prod), np.abs(a12)))
        hom = max(hom, float(np.max(defect)))
        block_diagonal = block_diagonal and bool(np.all(sector_of[p1] == sector_of))
    return unitarity, hom, block_diagonal


@pytest.mark.parametrize("m2,pmax,nmax", [(3, 3, 2), (0, 1, 3), (2, 2, 2)])
def test_rep_v_gate_bit_equals_the_per_element_oracle(m2, pmax, nmax):
    """The batched gate and each batch row against the actions built one at a time."""
    space = fock_space(hyperboloid(m2, pmax), nmax)
    rnd = random.Random(29)

    def rand_g():
        return PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])

    pairs = [(rand_g(), rand_g()) for _ in range(17)]
    got, want = rep_v_defects(space, *element_rows(pairs)), _rep_v_defects_by_element(space, pairs)
    assert got == want and got[2]
    batch = [g for pair in pairs[:4] for g in pair]
    perms, amps = monomials_by_element(space, batch)
    for g, perm, amp in zip(batch, perms, amps, strict=True):
        want_perm, want_amp = _rep_v_uncached(g.translation, g.rotation, space)
        assert np.array_equal(perm, want_perm) and _same_bits(amp, want_amp)


def _same_values(a, b):
    return _same_bits(np.array(a, dtype=float), np.array(b, dtype=float))


@pytest.mark.parametrize("nmax", [1, 2, 3])
@pytest.mark.parametrize("m2, pmax", [(0, 1), (2, 2), (1, 2)], ids=["fock13", "six_points", "pmax2"])
def test_batched_gates_bit_equal_the_per_sample_oracles(m2, pmax, nmax):
    """Each gate, its samples taken a batch at a time, gives the bits of the same gate one
    point or pair at a time, for odd sample counts from one to several batches."""
    space = fock_space(hyperboloid(m2, pmax), nmax)
    rnd = random.Random(31)

    def rand_g():
        return PoincareElement(_random_x(rnd), elements()[rnd.randrange(24)])

    for count in (1, 7, 21):
        points = [_random_x(rnd) for _ in range(count)]
        pairs = [(_random_x(rnd), _random_x(rnd)) for _ in range(count)]
        group_pairs = [(rand_g(), rand_g()) for _ in range(count)]
        assert _same_values(adjoint_defect(space, rows(points)), adjoint_defect_by_point(space, points))
        assert _same_values(phase_sum_defect(space, *pair_rows(pairs)), phase_sum_defect_by_pair(space, pairs))
        got = xi_defects(space, *pair_rows(pairs), random.Random(count))
        assert _same_values(got, xi_defects_by_pair(space, pairs, random.Random(count)))
        got = rep_v_defects(space, *element_rows(group_pairs))
        assert _same_values(got, rep_v_defects_by_pair(space, group_pairs))
    assert len(fock_module._batches(space, 21, 3 * space.dim)) > 1  # rep_v's pairs in more than one batch


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


@pytest.mark.parametrize("nmax", [2, 3])
def test_product_table_bit_equals_the_dense_products(nmax):
    """Each two-step table, placed densely per (q, r), is as_matrix(X_q) @ as_matrix(Y_r)
    bit for bit, and lists its entries in (q, r, column) order."""
    space = fock_space(hyperboloid(2, 2), nmax)
    d = len(space.hyperboloid)
    units = np.eye(d, dtype=complex)
    for role_a in ("annihilates", "creates"):
        for role_b in ("annihilates", "creates"):
            rows, cols, q, r, weight = space.product_table(role_a, role_b)
            assert np.array_equal(np.lexsort((cols, r, q)), np.arange(len(rows)))
            for qq in range(d):
                x = FieldOperator(space, role_a, tuple(units[qq])).as_matrix()
                for rr in range(d):
                    y = FieldOperator(space, role_b, tuple(units[rr])).as_matrix()
                    pick = (q == qq) & (r == rr)
                    table = np.zeros((space.dim, space.dim), dtype=complex)
                    table[rows[pick], cols[pick]] = weight[pick]
                    assert _same_bits(table, x @ y)


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
    expected = np.diag([phase(p, y) for p in points(fock13.hyperboloid)])
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
    phases = np.diag([phase(p, y) for p in points(h)])
    assert np.max(np.abs(s1 - np.kron(phases, np.eye(3)))) < 1e-12


def test_spin_rep_unitary(fock13):
    h = fock13.hyperboloid
    rnd = random.Random(6)
    for spin in (0, 0.5, Fraction(1, 2), 1):
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
    pts = points(fock13.hyperboloid)
    for i, p in enumerate(pts):
        assert p0[i, i] == p.t
        assert (p1[i, i], p2[i, i], p3[i, i]) == (p.n, p.p, p.q)
    assert mass_shell_defect(fock13.hyperboloid) == 0
    # trace identity: energy-squared minus mass counts the spatial form
    lhs = int(np.trace(p0 @ p0)) - fock13.hyperboloid.mass_sq * len(pts)
    assert lhs == sum(norm_sq3(spatial(p)) for p in pts)


def test_mass_shell_exact_on_massive_hyperboloid():
    f = fock_space(hyperboloid(4, 3), 1)
    assert mass_shell_defect(f.hyperboloid) == 0


def test_empty_hyperboloid_rejected():
    with pytest.raises(ValueError):
        fock_space(hyperboloid(2, 1), 1)  # no points with p0 <= 1 at mass^2=2
