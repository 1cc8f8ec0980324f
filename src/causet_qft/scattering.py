"""Discrete-time scattering: step products, their orders and amplitudes, on G's isotypic blocks.

S obeys S(k+1) = (I + iH(k))S(k) from the identity.  One step loop builds S, its orders
in the coupling (order k picks up one factor of H per step, so per-order amplitudes are
bookkeeping) and the products with the coupling turned through the (n+1)-th roots of
unity, which check every order.  The interaction g (pi field)^2 (x) (sigma field) maps
sector s = 2P + Q (P, Q the pi- and sigma-number parities) to s ^ 1, and order k maps s
to s ^ (k mod 2).  The window slice is a norm ball and both hyperboloids are closed under
the 24 rotations of G = S4, so H(t), the orders and S commute with the tensor
permutations P_g.  By Schur's lemma each is then the sum over G's irreps rho of
A_rho (x) I_d in a basis adapted to them (``symmetry.adapted_basis``), one n_rho x n_rho
multiplicity block per irrep, the paper's rotations ``CAL_U`` being the irrep 3'.  H(t)
is built only at each orbit's representative column, which gives its blocks; the series
holds, per sector pair and irrep, its operators on that irrep's copies, and a step is two
small products per pair and irrep.  Maxima in the tensor basis are read back from the
representative columns.  The step loop builds each H(t), measures it and multiplies it
in before it builds the next, so the series holds one H(t) at a time and keeps none.
"""

from __future__ import annotations

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
    "hamiltonian_blocks",
    "scattering_series",
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
    def isotypic(self) -> tuple[tuple[np.ndarray, np.ndarray, tuple], ...]:
        """Per sector pair (0, 1) and (2, 3), ``symmetry.adapted_basis`` on its orbits, sector
        2p's first: the (w, 24, 24) entries, the stabilizer orders |K| and, per irrep rho of
        dimension d, its copies (copy j on orbit k one index, by orbit): their (n, d) rows
        24 k + slot (rho, j, l) of the entries, their entries at their representatives, and
        how many lie in sector 2p."""
        perms, sizes = self.sector_permutations, np.cumsum([0, *self.sector_dims])
        entries, order, counts = symmetry.adapted_basis(np.hstack([p + o for p, o in zip(perms, sizes)]))
        bounds, out = np.cumsum([0, *(len(o[0]) for o in self.orbits)]), []
        for lo, split, hi in (bounds[0:3], bounds[2:5]):
            at, copies, first = entries[lo:hi, symmetry.index("I")].ravel(), [], 0
            for d, m in zip((len(d.T) for d in symmetry.irreps()), counts[:, lo:hi]):
                k = np.repeat(np.arange(hi - lo), m)
                j = np.arange(len(k)) - np.repeat(np.cumsum(m) - m, m)
                rows = (24 * k + first + d * j)[:, None] + np.arange(d)
                copies.append((rows, at[rows], int(m[: split - lo].sum())))
                first += d * d
            out.append((entries[lo:hi], order[lo:hi], tuple(copies)))
        return tuple(out)

    @cached_property
    def _hamiltonian_terms(self) -> tuple:
        """The terms of H(t)'s blocks 0 and 2 at the representative columns (a, b) of
        sectors 0 and 2, placed once: a pi path X_q Y_r of :meth:`FockSpace.product_table`
        out of pi state a times a sigma ladder entry Z_u out of sigma state b, worth
        g K[(X, Y, q, r), (Z, u)] times the two weights in slice t, K the phase sums.  Per
        block, the terms' flat keys into K, g times their weights, their entries in the
        (rows x representatives) block and its shape."""
        pi, sigma = self.pi_space, self.sigma_space
        (pi_parity, pi_local), (sigma_parity, sigma_local) = _parity_split(pi), _parity_split(sigma)
        n_pi, n_sigma = np.bincount(pi_parity, minlength=2), np.bincount(sigma_parity, minlength=2)
        d, d_sigma = len(pi.hyperboloid), len(sigma.hyperboloid)
        (u, rows, cols, weight), z = _joined([sigma.ladder_entries[role] for role in _ROLES])
        even = sigma_parity[cols] == 0
        sigma_key, sigma_weight, sigma_row = (z * d_sigma + u)[even], weight[even], sigma_local[rows[even]]
        sigma_col = sigma_local[cols[even]]
        (rows, cols, q, r, weight), xy = _joined([pi.product_table(x, y) for x in _ROLES for y in _ROLES])
        terms = []
        for p in (0, 1):
            reps = self.orbits[2 * p][0]
            place = np.full(n_pi[p] * n_sigma[0], -1)
            place[reps] = np.arange(len(reps))
            mine = np.flatnonzero(pi_parity[cols] == p)
            column = place[pi_local[cols[mine]][:, None] * n_sigma[0] + sigma_col]  # -1 off the representatives
            path, entry = np.nonzero(column >= 0)
            rep, path = column[path, entry], mine[path]
            keys = ((xy * d + q) * d + r)[path] * (2 * d_sigma) + sigma_key[entry]
            at = (pi_local[rows[path]] * n_sigma[1] + sigma_row[entry]) * len(reps) + rep
            weights = (self.cfg.coupling * sigma_weight[entry]) * weight[path]
            terms.append((keys, weights, at, (n_pi[p] * n_sigma[1], len(reps))))
        return tuple(terms)


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


def _parity_split(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Each basis state's particle-number parity, and its index among the states of that parity."""
    parity = np.repeat(np.arange(space.n_max + 1) % 2, np.diff(space.offsets))
    local = np.empty(space.dim, dtype=np.int64)
    for p in (0, 1):
        local[parity == p] = np.arange(np.count_nonzero(parity == p))
    return parity, local


def build_model(cfg: InteractionConfig) -> ScatteringModel:
    """The model, or a ``ValueError`` before any sector exists when the series would
    outgrow physical memory.  Irrep rho has m_s = sum_g chi_rho(g) fix_s(g) / 24 copies in
    sector s, fix_s(g) the states g fixes, and m = m_2p + m_2p+1 on sector pair p, whose W
    orbits are the trivial irrep's copies.  The traced peak is the held items, 2n + 2 of m^2
    per pair and irrep, plus the largest of one step's products ((2n + 1) m^2 and A's
    adjoint, at most m^2 / 4, for the largest m, beside H(t)'s blocks), one unitarity check (sum m^2 for the
    Grams, 24 W^2 slot coordinates and the larger of their 36 W min(W, 64) read back and
    6 m W placed) and one build of H's blocks (24 s (w + 4 W) with s and w the orbits of
    sectors 2p and 2p + 1, and H's s columns of sector 2p + 1), plus one ufunc buffer, with
    40 int64 per state, 128 per Fock state and 600 per orbit."""
    cfg.validate()
    # the spaces are lazy: building them first only checks that neither hyperboloid is empty
    pi_space = fock_space(hyperboloid(cfg.pi_mass_sq, cfg.energy_cap), cfg.pi_particle_cap)
    sigma_space = fock_space(hyperboloid(cfg.sigma_mass_sq, cfg.energy_cap), cfg.sigma_particle_cap)
    pi_h, sigma_h = pi_space.hyperboloid, sigma_space.hyperboloid
    pi, sigma = _fixed_states(pi_h, cfg.pi_particle_cap), _fixed_states(sigma_h, cfg.sigma_particle_cap)
    fixed = [[f[p] * e[q] for f, e in zip(pi, sigma)] for p in (0, 1) for q in (0, 1)]  # Python integers
    characters = [np.rint(np.trace(d, axis1=1, axis2=2)).astype(np.int64).tolist() for d in symmetry.irreps()]
    copies = [[sum(c * f for c, f in zip(chi, fix)) // 24 for fix in fixed] for chi in characters]
    dims = [fix[0] for fix in fixed]
    n, m = cfg.horizon, [[c[s] + c[s + 1] for c in copies] for s in (0, 2)]  # per sector pair and irrep
    total, big = sum(x * x for pair in m for x in pair), max(x for pair in m for x in pair)
    transient = (8 * n + 5) * big * big // 4 + total // 4  # a step's products, one A^H and H's blocks
    for p, pair in enumerate(m):
        s, w = copies[0][2 * p : 2 * p + 2]
        check = sum(x * x for x in pair) + 24 * (s + w) ** 2 + max(36 * min(s + w, 64), 6 * max(pair)) * (s + w)
        transient = max(transient, check, 24 * s * (w + 4 * (s + w)) + dims[2 * p + 1] * s)
    tables = 40 * sum(dims) + 128 * (sum(pi[0]) + sum(sigma[0])) + 600 * sum(copies[0])
    need = 16 * ((2 * n + 2) * total + transient + np.getbufsize()) + 8 * tables
    require_memory(need, f"the scattering series at D = {sum(dims)}")
    return ScatteringModel(cfg=cfg, pi_space=pi_space, sigma_space=sigma_space)


def _joined(tables) -> tuple[list[np.ndarray], np.ndarray]:
    """The columns of tables of equal width, end to end, and each row's table index."""
    return [np.concatenate(c) for c in zip(*tables)], np.repeat(np.arange(len(tables)), [len(t[0]) for t in tables])


def interaction_hamiltonian(model: ScatteringModel, t: int) -> tuple[np.ndarray, np.ndarray]:
    """g (pi field)^2 (x) (sigma field), summed over the window slice, at the representative
    columns of sectors 0 and 2: blocks 0 and 2 (from sector s to s + 1) at those columns.
    With pi_x = sum of c^X_q(x) X_q over roles X and points q, and sigma_x alike,
    H(t) = g sum of K[X, Y, q, r, Z, u] X_q Y_r (x) Z_u, where the slice's phase sums K are
    one ``einsum``; a block is one gather of K and one ``bincount`` per part."""
    rows = _window_rows(model.cfg, t)
    # (2, W, d): each point's lowering and raising coefficients e^{-ip.x}, e^{ip.x} per window row
    phases = (_phases(space.hyperboloid, rows) for space in (model.pi_space, model.sigma_space))
    pi_c, sigma_c = (np.stack([p.conj(), p]) for p in phases)
    phase_sums = np.einsum("axq,bxr,zxu->abqrzu", pi_c, pi_c, sigma_c).ravel()
    columns = []
    for keys, weights, at, shape in model._hamiltonian_terms:
        terms = phase_sums[keys] * weights
        c = np.empty(shape[0] * shape[1], dtype=complex)
        c.real = np.bincount(at, terms.real, len(c))
        c.imag = np.bincount(at, terms.imag, len(c))
        columns.append(c.reshape(shape))
    return tuple(columns)


def _real_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a @ z for real a and complex z, as one real product on z's interleaved parts, so no
    complex copy of a is made."""
    return (a @ z.view(float)).view(complex)


def _columns(x: np.ndarray, rows: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """(row copy, l, k): slot coordinates at representative k of the operator whose block
    for one irrep x is, from its column copies' rows and entries at their representatives;
    an orbit holds at most three copies j, so the sum over them is one product per orbit."""
    k, slot = np.divmod(rows[:, 0], 24)
    place = 3 * k + (slot - slot[:1]) // len(at.T)  # 3 k + j, the first copy's j being 0
    spread, entries = np.zeros((len(x), 3 * width), dtype=complex), np.zeros((3 * width, len(at.T)))
    spread[:, place], entries[place] = x, at
    products = spread.reshape(len(x), width, 3).transpose(1, 0, 2) @ entries.reshape(width, 3, len(at.T))
    return products.transpose(1, 2, 0)


def hamiltonian_blocks(model: ScatteringModel, columns) -> tuple[tuple[tuple[np.ndarray, ...], ...], float]:
    """H's multiplicity blocks A_rho = B_rho^H H B_rho from its representative columns: per
    sector pair p, the five irreps' blocks from sector 2p's copies to 2p + 1's; the reverse
    blocks are their conjugate transposes, so H is exactly self-adjoint by construction.
    H[:, g.r] = P_g H[:, r], so the representative columns in slot coordinates (one product
    with each orbit's 24 row images) hold B_rho's vectors of every row l, and A_rho weighs
    their rows.  Also the leakage: the largest slot coordinate of the columns that the
    blocks do not give back.  It is rounding when the column at each representative r is
    fixed by r's stabilizer, as a G-invariant H's is; a column at a representative that only
    the identity fixes is some G-invariant operator's whatever it holds, so the leakage sees
    no symmetry breaking there, and the blocks are those of the G-invariant operator with
    these representative columns."""
    blocks, leakage = [], []
    for p, h in enumerate(columns):
        entries, order, irreps = model.isotypic[p]
        w, split = len(entries), len(model.orbits[2 * p][0])
        images = h[model.sector_permutations[2 * p + 1][:, model.orbits[2 * p + 1][0]]].transpose(1, 0, 2)
        slots = np.zeros((w, 24, split), dtype=complex)
        slots[split:] = _real_times(entries[split:].transpose(0, 2, 1), images) / order[split:, None, None]
        slots, rebuilt, pair = slots.reshape(24 * w, split), np.zeros((24 * w, split), dtype=complex), []
        for rows, at, n0 in irreps:
            weight = at[:n0] * (24 / len(at.T) / order[rows[:n0, :1] // 24])
            pair.append(np.einsum("xlc,cl->xc", slots[rows[n0:]][:, :, rows[:n0, 0] // 24], weight))
            rebuilt[rows[n0:]] = _columns(pair[-1], rows[:n0], at[:n0], split)
        blocks.append(tuple(pair))
        leakage.append(_max_abs([slots - rebuilt]))
    return tuple(blocks), _max_abs(leakage)


@dataclass(frozen=True)
class ScatteringSeries:
    """S(n) and its orders, per sector pair and irrep the block on the pair's copies as its
    rows in sector 2p and in 2p + 1; max|S(n)|, the defects, and H(0..n-1)'s self-adjoint
    defect (0.0, its reverse blocks being adjoints), leakage and max|H|, each taken before
    the next H(t) is built."""

    final: tuple[tuple[np.ndarray, ...], ...]
    final_orders: tuple[tuple[tuple[np.ndarray, ...], ...], ...]
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


def _standard_max(model: ScatteringModel, p: int, xs) -> float:
    """max|X| in the tensor basis of sector pair p for the X whose blocks xs are: X commutes
    with every P_g, so its largest entry lies in its representative columns, read back from
    slot coordinates onto each orbit's 24 row images, 64 orbits at a time."""
    entries, _, irreps = model.isotypic[p]
    slots = np.zeros((24 * len(entries), len(entries)), dtype=complex)
    for (rows, at, _), x in zip(irreps, xs):
        slots[rows] = _columns(x, rows, at, len(entries))
    slots = slots.reshape(len(entries), 24, len(entries))
    return _max_abs(_real_times(entries[k : k + 64], slots[k : k + 64]) for k in range(0, len(entries), 64))


def _items_before(n: int, t: int) -> int:
    """Of each block's items, the n + 1 chains and the orders 0..n, the prefix that can be
    nonzero before step t: the step's products of the others would add exact zeros."""
    return n + 2 + t


def scattering_series(model: ScatteringModel) -> ScatteringSeries:
    """S, its orders and chains j = 0..n, the products of (I + i w_j H(t)), w_j = exp(2 pi
    i j / (n + 1)), in one loop on the multiplicity blocks: per sector pair and irrep, the
    n + 1 chains (chain 0 is S) and the orders 0..n as operators on the pair's copies.
    Order k gains i H(t) times order k - 1 and chain j i w_j H(t) times itself, H(t) being
    [[0, A^H], [A, 0]] on the pair, so a step is two small products per pair and irrep;
    step t multiplies only the items up to order t, those above are still zero.  Chain j
    must be the sum of w_j^k times order k: ``order_sum_defect`` is the worst block entry
    off at w = 1 and ``rotated_coupling_defect`` at the other roots, which bounds every
    order.  Each H(t) is built, measured and multiplied in, and dropped before the next."""
    n = model.cfg.horizon
    roots = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    scale = 1j * np.concatenate([roots, np.ones(n + 1)])[:, None, None]
    model._hamiltonian_terms  # built before the items, so its peak does not add to theirs
    held = []  # per sector pair and irrep, the items' rows in sector 2p and in 2p + 1
    for *_, irreps in model.isotypic:
        for rows, _, n0 in irreps:
            upper, lower = (np.zeros((2 * n + 2, k, len(rows)), dtype=complex) for k in (n0, len(rows) - n0))
            upper[: n + 2, :, :n0], lower[: n + 2, :, n0:] = np.eye(n0), np.eye(len(rows) - n0)
            held.append((upper, lower))

    def largest(gram: bool) -> float:  # max|S^H S - I| or max|S| in the tensor basis
        out = []
        for p in (0, 1):
            s = [(u[0], v[0]) for u, v in held[5 * p : 5 * p + 5]]
            xs = [u.conj().T @ u + v.conj().T @ v - np.eye(len(u.T)) if gram else np.vstack([u, v]) for u, v in s]
            out.append(_standard_max(model, p, xs))
        return _max_abs(out)

    defects, measured = [largest(True)], []
    for t in range(n):
        columns = interaction_hamiltonian(model, t)
        h, leakage = hamiltonian_blocks(model, columns)
        measured.append((leakage, _max_abs(columns)))
        del columns
        pre = _items_before(n, t)
        for (upper, lower), a in zip(held, (a for pair in h for a in pair)):
            top, bottom = a.conj().T @ lower[:pre], a @ upper[:pre]  # H(t) X's rows in sectors 2p, 2p + 1
            for x, product in ((upper, top), (lower, bottom)):
                product *= scale[:pre]  # i w_j for chain j, i for the orders
                x[: n + 1] += product[: n + 1]
                x[n + 2 : pre + 1] += product[n + 1 :]
            del top, bottom, product  # before the next irrep's
        del h  # the unitarity check and the next build run without it
        defects.append(largest(True))
    powers, gaps = roots[:, None] ** np.arange(n + 1), []  # powers of the rounded w
    for x in (x for pair in held for x in pair):  # per item, the worst entry off at each root
        gap = powers @ x[n + 1 :].reshape(n + 1, -1)
        gap -= x[: n + 1].reshape(n + 1, -1)
        gaps.append(np.max(np.abs(gap), axis=1, initial=0.0))
    del gap  # before the read back of max|S|
    worst = np.max(gaps, axis=0)  # per root, NaN when an item's is

    def blocks(item: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
        return tuple(tuple((u[item], v[item]) for u, v in held[5 * p : 5 * p + 5]) for p in (0, 1))

    rotation, largest_h = np.max(np.reshape(measured, (-1, 2)), axis=0, initial=0.0).tolist()
    return ScatteringSeries(
        final=blocks(0), final_orders=tuple(blocks(n + 1 + k) for k in range(n + 1)),
        final_max_abs=largest(False), rotated_coupling_defect=_max_abs(worst[1:]),
        order_sum_defect=float(worst[0]), unitarity_defects=tuple(defects),
        hamiltonian_adjoint_defect=0.0, hamiltonian_rotation_defect=rotation, hamiltonian_max_abs=largest_h,
    )


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
    the sigma vacuum (index 0): |in> = e_{g.r}, so <out| X |in> = X[g^-1.out, r] for every
    G-invariant X, the basis entries at g^-1.out and at r paired through X's blocks; odd
    orders map sector 0 to sector 1, where <out| has no rows, and read 0 (NaN beside one)."""
    pi, n_sigma = model.pi_space, model.sigma_space.dim
    index_in, index_out = (pi.rank(2, np.sort([pair], axis=1))[0] * n_sigma for pair in (incoming, outgoing))
    reps, element, rep = model.orbits[0]
    local_in, local_out = np.searchsorted(model.sectors[0], [index_in, index_out])
    row = np.argmax(model.sector_permutations[0][element[local_in]] == local_out)
    k_in, k_out = np.searchsorted(reps, [rep[local_in], rep[row]])
    entries, _, irreps = model.isotypic[0]
    weights = []  # per irrep: <out| X |in> = the sum of weights * X's block from sector 0 to 0
    for rows, at, n0 in irreps:
        left = np.where(rows[:n0] // 24 == k_out, entries[k_out, element[row]][rows[:n0] % 24], 0.0)
        weights.append((left @ np.where(rows[:n0] // 24 == k_in, at[:n0], 0.0).T, n0))

    def bracket(blocks, parity: int) -> complex:  # odd: zero weights on the blocks from sector 0 to 1
        total = 0.0
        for (w, n0), rows in zip(weights, blocks[0]):
            block = rows[parity][:, :n0]
            total += np.vdot(np.zeros(block.shape) if parity else w, block)
        return complex(total)

    per_order = tuple(bracket(order, k % 2) for k, order in enumerate(series.final_orders))
    total = bracket(series.final, 0) + bracket(series.final, 1)
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
