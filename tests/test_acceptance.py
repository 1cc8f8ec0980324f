"""Acceptance criteria, one test per criterion, with per-criterion report lines.

Each criterion is asserted at its stated tolerance and time budget.  Three
published claims turned out to be refutable by exhaustive computation (the
no-boost theorem, the pairwise-generator claim, and path existence between
comparable vertices); for those the attainable content is asserted here and
the literal published wording is kept as a strict expected-failure test so
the counterexample stays visible and machine-checked.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import CRITERION_LINES
from oracles import (
    PoincareElement,
    commutator,
    dense_series,
    expansion_formula,
    mass_squared_values,
    matrix_commutator,
    norm_sq4,
    path_lengths,
    poincare_product,
    product_formula,
    rep_v,
    xi_matrix,
)

import causet_qft
from causet_qft import causet, fock, momentum, paperdata, representations as reps, scattering, symmetry
from causet_qft.lattice import Vec4


def _report(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _report(f"[criterion {number:2d}] FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed <= budget_s else "FAIL (over budget)"
    _report(f"[criterion {number:2d}] {status}  {label}  ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded {budget_s}s: {elapsed:.2f}s"


def test_criterion_1_group_order_and_table():
    with criterion(1, 1.0, "group order and multiplication table"):
        assert len(symmetry.elements()) == 24
        table = symmetry.build_table()
        assert table.latin_square
        assert table.associative
        assert symmetry.table_diff_vs_printed(table) == []


def test_criterion_2_generators():
    with criterion(2, 5.0, "generating pairs"):
        gens = symmetry.generate_from([symmetry.element("M"), symmetry.element("N")])
        assert len(gens) == 24
        report = symmetry.pairwise_generators()
        by_pair = {r["pair"]: r for r in report["pairs"]}
        assert not by_pair[("M", "N")]["commute"]
        assert by_pair[("M", "N")]["generated_order"] == 24
        # commuting pairs never generate more than an abelian fragment
        for r in report["pairs"]:
            if r["commute"]:
                assert r["generated_order"] < 24


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published claim refuted: 24 non-commuting pairs from the second half "
        "of the alphabet generate only order-6 or order-8 subgroups, e.g. the "
        "pair (M, P) closes into {C, D, I, M, P, Q}"
    ),
)
def test_criterion_2_literal_every_noncommuting_pair_generates():
    report = symmetry.pairwise_generators()
    assert report["noncommuting_pairs_generate"]


def test_criterion_3_representations():
    with criterion(3, 30.0, "unitary and spinor representations"):
        assert reps.homomorphism_defect() < 1e-12
        assert reps.eigenvalue_set_defect() < 1e-10
        report = reps.printed_spinor_report()
        mismatched = {r["label"] for r in report if not r["matches_up_to_sign"]}
        # every faithfully printed matrix is reproduced to 1e-9; the eight
        # remaining listings are corrupted in the source (wrong exponents,
        # dropped imaginary units, a stray prefactor, one mixed-up row)
        assert mismatched == {"C", "F", "H", "Q", "R", "S", "V", "X"}
        for r in report:
            if r["label"] not in mismatched:
                assert r["max_abs_diff"] < 1e-9
        printed = reps.projective_check(reps.SignConvention.PRINTED)
        assert printed["worst_residual"] < 1e-10
        assert oracles.multiply(symmetry.element("G"), symmetry.element("H")).label == "I"
        assert printed["cocycle"][("G", "H")] == -1
        assert printed["cocycle"][("J", "J")] == -1
        canonical = reps.projective_check(reps.SignConvention.CANONICAL)
        assert canonical["worst_residual"] < 1e-10
        assert canonical["cocycle"][("J", "J")] == -1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "eight printed spinor matrices are corrupted in the source text and "
        "cannot match any valid SU(2) lift (C, F, H, Q, R, S, V, X)"
    ),
)
def test_criterion_3_literal_every_printed_spinor_matches():
    report = reps.printed_spinor_report()
    assert all(r["matches_up_to_sign"] for r in report)


def test_criterion_4_boost_search():
    with criterion(4, 60.0, "bounded boost search and Diophantine families"):
        cert = symmetry.no_boost_search(5)
        assert all(cert.quoted_families_found["time"].values())
        assert all(cert.quoted_families_found["space"].values())
        assert (2, 1, 1, 0) in cert.time_eq_solutions
        assert (3, 2, 2, -2) in cert.time_eq_solutions
        assert (1, 1, 1, -1) in cert.space_eq_solutions
        assert (2, 2, 1, -1) in cert.space_eq_solutions
        # the lifted spatial group is recovered among the solutions
        assert cert.fixing_time_axis == 48
        # counterexamples to the published theorem are genuine isometries
        rnd = random.Random(123)
        for m in cert.boost_examples[:4]:
            mat = np.array(m, dtype=np.int64)
            for _ in range(300):
                v = Vec4(*(rnd.randint(-9, 9) for _ in range(4)))
                img = mat @ np.array(v.coords())
                assert norm_sq4(Vec4(*(int(c) for c in img))) == norm_sq4(v)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published no-boost theorem refuted: the bound-5 search finds "
        "determinant-one integer isometries moving the time axis, e.g. one "
        "with first column (-3, -2, -2, 2); the published Diophantine case "
        "analysis missed compatible solution families"
    ),
)
def test_criterion_4_literal_zero_boosts():
    cert = symmetry.no_boost_search(5)
    assert cert.no_boosts


def _shell2_brute_force_oracle() -> int:
    count = 0
    for n, p, q in itertools.product(range(-3, 4), repeat=3):
        if n * n + p * p + q * q + n * p + n * q + p * q <= 4:
            count += 1
    return count


def test_criterion_5_causet_structure():
    with criterion(5, 30.0, "causal-set structure at horizon 3"):
        assert len(oracles.shell(0)) == 1
        assert len(oracles.shell(1)) == 13
        assert len(oracles.shell(2)) == _shell2_brute_force_oracle() == 55
        hist = causet.history(3)
        for v in oracles.vertices(hist):
            assert len(oracles.children(v)) == 13
        verts = oracles.vertices(hist)
        n = len(verts)
        rel = np.zeros((n, n), dtype=bool)
        for i, u in enumerate(verts):
            for j, v in enumerate(verts):
                rel[i, j] = oracles.precedes(u, v)
        assert not rel.diagonal().any()
        assert not (rel & rel.T).any()
        assert not (((rel.astype(np.int64) @ rel.astype(np.int64)) > 0) & ~rel).any()
        # every path that exists has the shell-difference length, and the
        # comparable pairs without any path are exactly the 30 found by the
        # reachability oracle
        pathless = 0
        for i, u in enumerate(verts):
            for j, v in enumerate(verts):
                if rel[i, j]:
                    lengths = path_lengths(u, v, sample_limit=100)
                    if not lengths:
                        pathless += 1
                    else:
                        assert lengths == frozenset({v.t - u.t})
        assert pathless == 30
        diag = causet.covariance_diagnostics(hist)
        assert diag.weakly_covariant
        assert not diag.covariant
        assert diag.covariance_witness is not None
        u, v = diag.covariance_witness
        assert not oracles.precedes(u, v)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published path-existence claim refuted: 30 origin-to-shell-3 pairs "
        "are causally comparable but admit no chain of one-step links, e.g. "
        "the vertex (3, -3, -1, 2); every path-length set for those pairs is "
        "empty rather than the singleton shell difference"
    ),
)
def test_criterion_5_literal_all_comparable_pairs_have_singleton_paths():
    hist = causet.history(3)
    verts = oracles.vertices(hist)
    for u in verts:
        for v in verts:
            if oracles.precedes(u, v):
                assert path_lengths(u, v, sample_limit=100) == frozenset({v.t - u.t})


def test_criterion_6_speeds_and_masses():
    with criterion(6, 30.0, "average speeds and mass spectra against oracles"):
        for t in (1, 2, 3):
            assert causet.speeds_paper_diff(t)["agree"]
        # oracle: exhaustive enumeration of the quadratic form
        def oracle_attainable(limit):
            vals = set()
            bound = math.isqrt(2 * limit)
            for n, p, q in itertools.product(range(-bound, bound + 1), repeat=3):
                v = n * n + p * p + q * q + n * p + n * q + p * q
                if v <= limit:
                    vals.add(v)
            return vals

        for t in (4, 5):
            assert {s.norm_sq for s in causet.average_speeds(t)} == oracle_attainable(t * t)
            diff = causet.speeds_paper_diff(t)
            assert diff["computed_only"] or diff["printed_only"]
        for p0 in range(4):
            assert set(mass_squared_values(p0)) == set(
                paperdata.MASS_SQ_TABLE_PRINTED[p0]
            )
        norms = momentum.attainable_spatial_norms(49)
        rows = momentum.mass_squared_rows(norms, 7)
        for p0 in range(4, 8):
            expected = {p0 * p0 - q for q in oracle_attainable(p0 * p0)}
            assert set(mass_squared_values(p0)) == set(rows[p0]) == expected
            row = momentum.mass_table_paper_diff(rows)[p0]
            assert row["computed_only"] or row["printed_only"]
        assert set(norms) == oracle_attainable(49)
        diff49 = momentum.spatial_norms_paper_diff(norms, 49)
        assert 15 in diff49["computed_only"]


def test_criterion_7_fock_theorems():
    with criterion(7, 30.0, "field-operator theorems on the truncated Fock space"):
        h = momentum.hyperboloid(0, 1)
        assert len(h) == 13
        space = fock.fock_space(h, 2)
        rnd = random.Random(777)

        def rand_x():
            return Vec4(*(rnd.randint(-4, 4) for _ in range(4)))

        for _ in range(20):
            x = rand_x()
            a = fock.phi(x, space).as_matrix()
            c = oracles.psi(x, space).as_matrix()
            assert np.max(np.abs(c - a.conj().T)) < 1e-10
        x, y = Vec4(1, 1, 0, 0), Vec4(2, -1, 1, 0)
        assert np.all(commutator(fock.phi(x, space), fock.phi(y, space)) == 0)
        for _ in range(5):
            x, y = rand_x(), rand_x()
            end = space.safe_sector_end()
            measured = commutator(fock.phi(x, space), oracles.psi(y, space))[:end, :end]
            # independent oracle: direct phase summation over the point set
            d = y - x
            doubled_dots = [2 * p.t * d.t - oracles.inner3_doubled(oracles.spatial(p), oracles.spatial(d)) for p in h.points]
            scalar = sum(cmath.exp(0.5j * dd) for dd in doubled_dots)
            assert np.max(np.abs(measured - scalar * np.eye(measured.shape[0]))) < 1e-10
            expected_sine = 2j * sum(math.sin(0.5 * dd) for dd in doubled_dots)
            xi_measured = matrix_commutator(xi_matrix(x, space), xi_matrix(y, space))[:end, :end]
            assert np.max(np.abs(xi_measured - expected_sine * np.eye(xi_measured.shape[0]))) < 1e-10


def _monomial(perm, amp):
    """Dense V with V[perm[c], c] = amp[c]."""
    v = np.zeros((len(perm), len(perm)), dtype=complex)
    v[perm, np.arange(len(perm))] = amp
    return v


def test_criterion_8_poincare_representation():
    with criterion(8, 60.0, "Fock-space symmetry representation"):
        h = momentum.hyperboloid(0, 1)
        space = fock.fock_space(h, 2)
        assert space.dim <= 500
        rnd = random.Random(4242)
        for _ in range(50):
            g1 = PoincareElement(
                Vec4(*(rnd.randint(-4, 4) for _ in range(4))),
                symmetry.elements()[rnd.randrange(24)],
            )
            g2 = PoincareElement(
                Vec4(*(rnd.randint(-4, 4) for _ in range(4))),
                symmetry.elements()[rnd.randrange(24)],
            )
            v1, v2 = (_monomial(*rep_v(g.translation, g.rotation, space)) for g in (g1, g2))
            assert np.max(np.abs(v1.conj().T @ v1 - np.eye(space.dim))) < 1e-10
            g12 = poincare_product(g1, g2)
            v12 = _monomial(*rep_v(g12.translation, g12.rotation, space))
            assert np.max(np.abs(v1 @ v2 - v12)) < 1e-10
            for a in range(space.n_max + 1):
                for b in range(space.n_max + 1):
                    if a != b:
                        assert np.all(
                            v1[space.sector_slice(a), space.sector_slice(b)] == 0
                        )


def test_criterion_9_dyson_engine():
    with criterion(9, 60.0, "discrete scattering series"):
        rnd = random.Random(99)
        for dim, n in ((20, 6), (12, 5), (6, 4)):
            a_seq = []
            for _ in range(n):
                re = np.array([[rnd.gauss(0, 0.4) for _ in range(dim)] for _ in range(dim)])
                im = np.array([[rnd.gauss(0, 0.4) for _ in range(dim)] for _ in range(dim)])
                a_seq.append(re + 1j * im)
            x0 = np.eye(dim, dtype=complex)
            prod = product_formula(a_seq, x0, n)
            expand = expansion_formula(a_seq, x0, n)
            assert np.max(np.abs(prod - expand)) < 1e-9
        cfg = scattering.InteractionConfig(
            coupling=0.1,
            pi_mass_sq=0,
            sigma_mass_sq=1,
            energy_cap=1,
            pi_particle_cap=2,
            sigma_particle_cap=1,
            window_radius=0,
            horizon=3,
        )
        model = scattering.build_model(cfg)
        incoming, outgoing = (1, 2), (3, 4)
        amplitudes = scattering.amplitude(
            model, incoming, outgoing, scattering.scattering_series(model)
        )
        report = scattering.order_parity_check(amplitudes, incoming, outgoing)
        assert report["order0"] <= 1e-10
        assert report["odd_order_max"] <= 1e-10
        assert abs(report["order2"]) > 1e-6
        zero_cfg = scattering.InteractionConfig(
            coupling=0.0,
            pi_mass_sq=0,
            sigma_mass_sq=1,
            energy_cap=1,
            pi_particle_cap=2,
            sigma_particle_cap=1,
            window_radius=0,
            horizon=3,
        )
        zero_model = scattering.build_model(zero_cfg)
        series = scattering.scattering_series(zero_model)
        even, odd = series.final  # at the representative columns of each sector
        assert all(np.array_equal(b, np.eye(len(b))[:, orbit[0]]) for b, orbit in zip(even, zero_model.orbits))
        assert not any(block.any() for block in odd)
        # the dense step loop agrees exactly: S = I, and every S(k) is exactly unitary
        dense = dense_series(zero_model)
        assert np.array_equal(dense.final, np.eye(zero_model.dim))
        assert series.unitarity_defects == dense.unitarity_defects == (0.0,) * 4


CLI_SUBCOMMANDS = [
    ("group-table", "--check"),
    ("group-verify",),
    ("reps-verify",),
    ("no-boost", "--bound", "3"),
    ("shells", "--t", "2"),
    ("causet-verify", "--t", "2"),
    ("speeds", "--t", "5"),
    ("masses", "--p0-max", "7"),
    ("hyperboloid", "--m2", "0", "--pmax", "2"),
    ("fock-verify", "--m2", "0", "--pmax", "1", "--nmax", "2"),
    ("scatter", "--g", "0.1", "--m2", "0", "--M2", "1", "--horizon", "2", "--window", "0"),
]


# The children import the package from where this process found it, so the
# test needs no PYTHONPATH of its own.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(causet_qft.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def test_criterion_10_cli_determinism():
    with criterion(10, 120.0, "byte-identical CLI payloads"):
        for argv in CLI_SUBCOMMANDS:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "causet_qft.cli", "--format", "json", *argv],
                    capture_output=True,
                    check=True,
                    env=CHILD_ENV,
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"nondeterministic output for {argv[0]}"
            json.loads(outputs[0])
