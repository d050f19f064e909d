"""Rotating frames, the dispersive Hamiltonian, and the dissipator set.

The effective Hamiltonian reproduces the dispersive level structure
omega_{g,n} = n*omega_r and omega_{e,n} = omega_ge + n*(omega_r - 2*chi),
with a qubit drive of Rabi amplitude Omega at frequency omega_d:

    H = (omega_ge - f_q) s+s- + (omega_r - f_r) a'a - 2 chi s+s- a'a
        + (Omega/2) (s+ e^{-i(omega_d - f_q) t} + h.c.)

where (f_q, f_r) are the frame references for qubit excitation and photon
number. With f_q = omega_d the drive term is static.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonStaticFrameError
from .hilbert import (
    ComplexOperator,
    HilbertSpace,
    annihilation,
    photon_number,
    qubit_lowering,
    qubit_number,
)
from .params import SystemParams


@dataclass(frozen=True)
class Frame:
    """Rotating-frame references: qubit excitation and photon number (rad/s)."""

    qubit_ref: float
    resonator_ref: float


def hamiltonian_static(
    params: SystemParams,
    frame: Frame,
    rabi: float,
    omega_d: float,
    *,
    space: HilbertSpace,
) -> ComplexOperator:
    """Static Hamiltonian in the given frame.

    Raises NonStaticFrameError if rabi > 0 with frame.qubit_ref != omega_d,
    because the drive term would oscillate. The nesting condition is checked
    by the callers that need it: the schedule builders, the dressed ladder.
    """
    if rabi < 0:
        raise ValueError("rabi must be >= 0")
    if rabi > 0 and frame.qubit_ref != omega_d:
        raise NonStaticFrameError(
            "drive at omega_d oscillates in this frame (qubit_ref != omega_d); "
            "use dynamics.propagate for time-dependent evolution"
        )

    nq = qubit_number(space)
    nph = photon_number(space)
    h = (
        (params.omega_ge - frame.qubit_ref) * nq
        + (params.omega_r - frame.resonator_ref) * nph
        - 2.0 * params.chi * (nq @ nph)
    )
    if rabi > 0:
        sm = qubit_lowering(space)
        h = h + (rabi / 2.0) * (sm + sm.conj().T)
    return ComplexOperator(h, space)


def collapse_operators(params: SystemParams, space: HilbertSpace):
    """Dissipation channels as (operator, rate) pairs.

    Returns {(a, kappa), (sigma_minus, gamma)} plus (sigma_plus sigma_minus,
    2*gamma_phi) when pure dephasing is nonzero. Dissipation always uses the
    total kappa; the external/internal split on SystemParams is reserved for
    the input-output boundary relation.

    A nonzero init_excited_pop is treated as the qubit's equilibrium excited
    population and adds the detailed-balance excitation channel
    (sigma_plus, gamma * p / (1 - p)), keeping the initialization floor
    stationary instead of letting it decay away during a protocol.
    """
    sm = qubit_lowering(space)
    ops = [
        (ComplexOperator(annihilation(space), space), params.kappa),
        (ComplexOperator(sm, space), params.gamma),
    ]
    p_eq = params.init_excited_pop
    if p_eq > 0 and params.gamma > 0:
        ops.append(
            (ComplexOperator(sm.conj().T, space), params.gamma * p_eq / (1.0 - p_eq))
        )
    if params.gamma_phi > 0:
        ops.append((ComplexOperator(qubit_number(space), space), 2.0 * params.gamma_phi))
    return ops


def drive_noise_channels(params: SystemParams, space: HilbertSpace, rabi: float):
    """Incoherent channels fed by drive-line noise at drive amplitude rabi.

    Amplitude noise flips the qubit both ways at rate
    drive_noise_per_rabi2 * rabi**2 per direction; phase noise dephases it at
    rate drive_dephasing_per_rabi2 * rabi**2. Empty list when the constants
    or the drive amplitude are zero.
    """
    channels = []
    if rabi > 0:
        flip_rate = params.drive_noise_per_rabi2 * rabi * rabi
        if flip_rate > 0:
            sm = qubit_lowering(space)
            channels.append((ComplexOperator(sm.conj().T, space), flip_rate))
            channels.append((ComplexOperator(sm, space), flip_rate))
        deph_rate = params.drive_dephasing_per_rabi2 * rabi * rabi
        if deph_rate > 0:
            channels.append((ComplexOperator(qubit_number(space), space), deph_rate))
    return channels


def drive_quadratures(space: HilbertSpace):
    """Hermitian qubit-drive quadratures (X, Y) with X = s+ + s-, Y = -i(s+ - s-).

    A drive of amplitude Omega(t) at carrier detuning D from the qubit frame
    reference contributes (Omega/2) [cos(D t) X + sin(D t) Y].
    """
    sm = qubit_lowering(space)
    sp = sm.conj().T
    return sp + sm, -1j * (sp - sm)


def input_quadratures(space: HilbertSpace):
    """Hermitian resonator-input quadratures (P, Q).

    A real input envelope alpha(t) in sqrt(photons/s) at carrier detuning D
    from the resonator frame reference contributes
    sqrt(kappa_ext) * alpha(t) * [cos(D t) P + sin(D t) Q], i.e. the static
    form i sqrt(kappa_ext) (alpha a' - alpha* a) when D = 0.
    """
    a = annihilation(space)
    ad = a.conj().T
    return 1j * (ad - a), ad + a


def qubit_flip(space: HilbertSpace) -> np.ndarray:
    """Full qubit X operator used for instantaneous pi pulses."""
    sm = qubit_lowering(space)
    return sm + sm.conj().T
