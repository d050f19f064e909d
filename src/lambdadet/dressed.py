"""Dressed states of the driven four-level block and their radiative rates.

In the frame rotating at omega_d the drive hybridizes each photon-number
doublet {|g,n>, |e,n>}. The lower doublet forms |1~>, |2~> and the n = 1
doublet forms |3~>, |4~>, labeled by adiabatic continuity from the bare
states (|1~> -> |g,0>, |2~> -> |e,0>, |3~> -> |e,1>, |4~> -> |g,1> as the
drive is switched off; the nesting condition fixes the ordering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MatchingPointError
from .hilbert import QUBIT_E, QUBIT_G, annihilation, build_space
from .model import Frame, hamiltonian_static
from .params import SystemParams

_ALLOWED_PAIRS = ((1, 4), (1, 3), (2, 4), (2, 3))


@dataclass(frozen=True)
class DressedLadder:
    """Quasi-energies and eigenvectors of the driven four-level block.

    Energies are in the frame (omega_d, omega_d). ``vectors[:, i]`` holds
    |i~> (i = 0..3 for |1~>..|4~>) over the bare basis
    (|g,0>, |e,0>, |g,1>, |e,1>).
    """

    energies: np.ndarray
    vectors: np.ndarray
    rabi: float
    omega_d: float

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float).copy()
        v = np.asarray(self.vectors, dtype=complex).copy()
        e.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "vectors", v)

    def energy(self, i: int) -> float:
        return float(self.energies[i - 1])

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[:, i - 1]


@dataclass(frozen=True)
class RamanRates:
    """Radiative decay rates of the |i~> -> |j~> transitions (rad/s)."""

    k31: float
    k32: float
    k41: float
    k42: float


def dressed_states(params: SystemParams, omega_d: float, rabi: float) -> DressedLadder:
    """Diagonalize the driven doublets; requires the nesting condition."""
    params.check_nesting(omega_d)
    space = build_space(1)
    h = hamiltonian_static(
        params, Frame(omega_d, omega_d), rabi, omega_d, space=space
    ).matrix.real

    energies = np.empty(4)
    vectors = np.zeros((4, 4))
    # doublet n: bare order (|g,n>, |e,n>); adiabatic partner of the lower
    # eigenvalue is |g,0> for n=0 and |e,1> for n=1 (nested level ordering)
    for n, (lo_label, hi_label) in ((0, (0, 1)), (1, (2, 3))):
        idx = [space.index(QUBIT_G, n), space.index(QUBIT_E, n)]
        block = h[np.ix_(idx, idx)]
        vals, vecs = np.linalg.eigh(block)
        energies[lo_label], energies[hi_label] = vals[0], vals[1]
        vlo, vhi = vecs[:, 0], vecs[:, 1]
        # gauge: dominant adiabatic component positive
        if n == 0:
            if vlo[0] < 0:
                vlo = -vlo
            if vhi[1] < 0:
                vhi = -vhi
        else:
            if vlo[1] < 0:
                vlo = -vlo
            if vhi[0] < 0:
                vhi = -vhi
        vectors[idx, lo_label] = vlo
        vectors[idx, hi_label] = vhi
    return DressedLadder(energies, vectors.astype(complex), rabi, omega_d)


def raman_rates(ladder: DressedLadder, params: SystemParams) -> RamanRates:
    """kappa_ij = kappa |<j~| a |i~>|^2 for i in {3,4}, j in {1,2}."""
    a = annihilation(build_space(1))
    rates = {}
    for i in (3, 4):
        for j in (1, 2):
            amp = ladder.vector(j).conj() @ (a @ ladder.vector(i))
            rates[(i, j)] = params.kappa * float(np.abs(amp) ** 2)
    return RamanRates(rates[(3, 1)], rates[(3, 2)], rates[(4, 1)], rates[(4, 2)])


def transition_frequency(ladder: DressedLadder, i: int, j: int) -> float:
    """Signal-photon frequency of the |i~> -> |j~> transition, in absolute
    rad/s.

    The allowed pairs cross the doublets once, so the transition adds one
    resonator photon and its lab frequency is (E_j - E_i) + omega_d.
    """
    if (i, j) not in _ALLOWED_PAIRS:
        raise ValueError(f"transition pair ({i}, {j}) not in {_ALLOWED_PAIRS}")
    return ladder.energy(j) - ladder.energy(i) + ladder.omega_d


def matching_amplitude(
    params: SystemParams,
    omega_d: float,
    *,
    rabi_max: float | None = None,
    scan_points: int = 64,
    rel_tol: float = 1e-6,
) -> float:
    """Drive amplitude Omega* where kappa_41 = kappa_42 (impedance matching).

    A coarse scan over (0, rabi_max] brackets the sign change of
    kappa_41 - kappa_42, then bisection refines until both the interval and
    the rate imbalance are below ``rel_tol`` (relative to Omega and kappa).
    """
    params.check_nesting(omega_d)
    if rabi_max is None:
        rabi_max = 10.0 * 2.0 * params.chi

    def imbalance(rabi: float) -> float:
        k = raman_rates(dressed_states(params, omega_d, rabi), params)
        return k.k41 - k.k42

    grid = np.linspace(rabi_max / scan_points, rabi_max, scan_points)
    values = np.array([imbalance(r) for r in grid])
    sign_changes = np.nonzero(np.diff(np.sign(values)) != 0)[0]
    if len(sign_changes) == 0:
        raise MatchingPointError(
            "kappa_41 - kappa_42 does not change sign on "
            f"(0, {rabi_max / (2 * np.pi) / 1e6:.1f} * 2pi MHz]",
            scan_rabi=grid,
            scan_diff=values,
        )
    k = sign_changes[0]
    lo, hi = grid[k], grid[k + 1]
    f_lo = values[k]
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        f_mid = imbalance(mid)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    rabi_star = 0.5 * (lo + hi)
    if abs(imbalance(rabi_star)) / params.kappa >= rel_tol:
        raise MatchingPointError(
            "bisection converged in Omega but the rate imbalance "
            f"{abs(imbalance(rabi_star)) / params.kappa:.2e} exceeds {rel_tol:.0e}",
            scan_rabi=grid,
            scan_diff=values,
        )
    return float(rabi_star)


def fit_drive_calibration(params: SystemParams, omega_d: float, anchor_dbm: float) -> float:
    """Calibration constant c with Omega = c * 10**(P_dBm/20).

    Anchored so that the impedance-matched amplitude of a drive at
    ``omega_d`` corresponds to ``anchor_dbm`` (the config's
    ``calibration_anchor`` at its ``omega_d``).
    """
    rabi_star = matching_amplitude(params, omega_d)
    return float(rabi_star / 10.0 ** (anchor_dbm / 20.0))
