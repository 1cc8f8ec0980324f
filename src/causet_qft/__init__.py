"""Tetrahedral-lattice spacetime toolkit.

Exact integer lattice arithmetic, the order-24 spatial symmetry group with
its unitary and spinor representations, causal-set enumeration with
machine-checked structure reports, discrete energy-momentum spectra, a
truncated bosonic Fock space with field operators, and a discrete-time
scattering engine.  The ``causet-qft`` command line exposes the verification
reports; see the README for a tour.
"""

__version__ = "0.1.0"
