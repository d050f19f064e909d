"""Truncated qubit-resonator Hilbert space and the dense operators acting on it.

Basis ordering is |g,0>, |e,0>, |g,1>, |e,1>, ... i.e. index = 2*n + q with
q = 0 for |g> and q = 1 for |e>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutoffError

QUBIT_G = 0
QUBIT_E = 1


@dataclass(frozen=True)
class HilbertSpace:
    """Qubit (x) Fock space truncated at photon number ``n_max``."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise InvalidCutoffError(
                f"n_max must be >= 1 to hold the Lambda-system levels, got {self.n_max}"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, qubit: int, n: int) -> int:
        if qubit not in (QUBIT_G, QUBIT_E):
            raise ValueError(f"qubit label must be 0 (g) or 1 (e), got {qubit}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"photon number {n} outside [0, {self.n_max}]")
        return 2 * n + qubit

    def labels(self):
        """List of (qubit, n) tuples in basis order."""
        return [(i % 2, i // 2) for i in range(self.dim)]


def build_space(n_max: int) -> HilbertSpace:
    """Construct the truncated space; raises InvalidCutoffError for n_max < 1."""
    return HilbertSpace(int(n_max))


@dataclass(frozen=True)
class ComplexOperator:
    """Dense complex matrix tagged with the space it acts on."""

    matrix: np.ndarray
    space: HilbertSpace

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"operator shape {m.shape} does not match space dim {self.space.dim}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def annihilation(space: HilbertSpace) -> np.ndarray:
    """Photon annihilation: a|q,n> = sqrt(n)|q,n-1>."""
    d = space.dim
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, space.n_max + 1):
        for q in (QUBIT_G, QUBIT_E):
            a[space.index(q, n - 1), space.index(q, n)] = np.sqrt(n)
    return a


def qubit_lowering(space: HilbertSpace) -> np.ndarray:
    """Qubit lowering: sigma_minus|e,n> = |g,n>."""
    d = space.dim
    sm = np.zeros((d, d), dtype=complex)
    for n in range(space.n_max + 1):
        sm[space.index(QUBIT_G, n), space.index(QUBIT_E, n)] = 1.0
    return sm


def qubit_number(space: HilbertSpace) -> np.ndarray:
    """sigma_plus sigma_minus, diagonal 0,1,0,1,..."""
    return np.diag(np.array([q for q, _ in space.labels()], dtype=complex))


def photon_number(space: HilbertSpace) -> np.ndarray:
    """a^dag a, diagonal 0,0,1,1,2,2,..."""
    return np.diag(np.array([n for _, n in space.labels()], dtype=complex))
