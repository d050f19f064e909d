"""Reference computations made apart from lambdadet's own integrators and solvers.

Operators come from ``lambdadet.hilbert`` and ``lambdadet.model``. The pulse
shapes, the protocol timeline, the time stepping (scipy ``solve_ivp`` with
DOP853 on the matrix-form master equation) and the steady-state solve (the
null vector of a column-stacked Liouvillian, found by SVD) are written here
from the conventions the package documents, not taken from ``pulses``,
``dynamics`` or ``response``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from lambdadet.hilbert import annihilation, build_space, qubit_lowering, qubit_number
from lambdadet.model import (
    Frame,
    collapse_operators,
    drive_noise_channels,
    drive_quadratures,
    hamiltonian_static,
    input_quadratures,
)

SIGMA_PER_FWHM = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
TRUNCATION_SIGMAS = 4.0
DRIVE_SLOPE = 1.5  # drive plateau = 1.5 t_s + 50 ns covers the signal pulse
DRIVE_OFFSET = 50e-9


def master_equation_rhs(rho, h, channels):
    """-i[H, rho] + sum rate (L rho L' - {L'L, rho}/2) on the matrix form."""
    out = -1j * (h @ rho - rho @ h)
    for op, rate in channels:
        if rate:
            op_dag = op.conj().T
            out += rate * (op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op))
    return out


def integrate(rho0, h_of_t, channels_of_t, breakpoints, *, rtol=1e-11, atol=1e-13):
    """DOP853 between consecutive breakpoints, where the pulse shapes have kinks
    or jumps. Returns the density matrix at the last breakpoint."""
    d = rho0.shape[0]

    def rhs(t, y):
        rho = y.reshape(d, d)
        return master_equation_rhs(rho, h_of_t(t), channels_of_t(t)).reshape(-1)

    y = rho0.astype(complex).reshape(-1)
    for t_a, t_b in zip(breakpoints[:-1], breakpoints[1:]):
        if t_b <= t_a:
            continue
        sol = solve_ivp(rhs, (t_a, t_b), y, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    return y.reshape(d, d)


def excited_population(rho) -> float:
    """P(|e>): basis index 2 n + q puts the excited qubit at the odd indices."""
    return float(np.sum(np.real(np.diag(rho))[1::2]))


def _gaussian(t, amp, center, sigma):
    dt = t - center
    if abs(dt) > TRUNCATION_SIGMAS * sigma:
        return 0.0
    return amp * math.exp(-0.5 * (dt / sigma) ** 2)


def _flat_top(t, amp, center, plateau, sigma):
    edge = abs(t - center) - 0.5 * plateau
    if edge <= 0.0:
        return amp
    if edge > TRUNCATION_SIGMAS * sigma:
        return 0.0
    return amp * math.exp(-0.5 * (edge / sigma) ** 2)


def detection_timeline(t_s, t_rise, latch_delay):
    """(plateau, edge sigma, plateau centre, click time) of one detection run.

    The drive plateau of 1.5 t_s + 50 ns has half-Gaussian edges of FWHM
    2 t_rise truncated at 4 sigma, and its rising edge starts at t = 0. The
    readout marker sits t_rise after the plateau; the qubit is read
    latch_delay later.
    """
    plateau = DRIVE_SLOPE * t_s + DRIVE_OFFSET
    edge_sigma = 2.0 * t_rise * SIGMA_PER_FWHM
    center = TRUNCATION_SIGMAS * edge_sigma + 0.5 * plateau
    return plateau, edge_sigma, center, center + 0.5 * plateau + t_rise + latch_delay


def detection_click(params, *, rabi, omega_d, omega_s, t_s, nbar_s, t_rise,
                    latch_delay, n_max, eps_ge=0.0, eps_eg=0.0) -> float:
    """Click probability of one detection run: the flat-top drive of
    ``detection_timeline`` and a Gaussian signal pulse of FWHM t_s, truncated
    at 4 sigma and carrying nbar_s photons, centred on the plateau."""
    space = build_space(n_max)
    frame = Frame(omega_d, omega_s)
    h0 = hamiltonian_static(params, frame, 0.0, omega_d, space=space).matrix
    x_q, _ = drive_quadratures(space)
    p_in, _ = input_quadratures(space)
    root_kext = math.sqrt(params.kappa_ext)
    static = [(op.matrix, rate) for op, rate in collapse_operators(params, space)]
    sm = qubit_lowering(space)
    noise = [
        (sm.conj().T, params.drive_noise_per_rabi2),
        (sm, params.drive_noise_per_rabi2),
        (qubit_number(space), params.drive_dephasing_per_rabi2),
    ]

    plateau, edge_sigma, center, t_click = detection_timeline(t_s, t_rise, latch_delay)
    sig_sigma = t_s * SIGMA_PER_FWHM
    sig_amp = math.sqrt(
        nbar_s / (sig_sigma * math.sqrt(math.pi) * math.erf(TRUNCATION_SIGMAS))
    )

    def h_of_t(t):
        om = _flat_top(t, rabi, center, plateau, edge_sigma)
        al = _gaussian(t, sig_amp, center, sig_sigma)
        return h0 + 0.5 * om * x_q + root_kext * al * p_in

    def channels_of_t(t):
        om2 = _flat_top(t, rabi, center, plateau, edge_sigma) ** 2
        return static + [(op, c * om2) for op, c in noise]

    drive_half = 0.5 * plateau + TRUNCATION_SIGMAS * edge_sigma
    sig_half = TRUNCATION_SIGMAS * sig_sigma
    kinks = [
        center + s * w for s in (-1.0, 1.0) for w in (0.5 * plateau, drive_half, sig_half)
    ]
    breakpoints = sorted({0.0, t_click, *(k for k in kinks if 0.0 < k < t_click)})

    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    p0 = params.init_excited_pop
    rho0[0, 0], rho0[1, 1] = 1.0 - p0, p0  # |g,0>, |e,0>
    p_e = excited_population(integrate(rho0, h_of_t, channels_of_t, breakpoints))
    return (1.0 - eps_eg) * p_e + eps_ge * (1.0 - p_e)


def steady_state_svd(h, channels):
    """Unit-trace null vector of the column-stacked Liouvillian, by SVD.

    Column stacking: vec(A X B) = (B^T kron A) vec(X). Returns the density
    matrix and the ratio of the two smallest singular values, which must be
    small for the steady state to be unique.
    """
    d = h.shape[0]
    eye = np.eye(d)
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in channels:
        if rate:
            cdc = op.conj().T @ op
            sup += rate * (
                np.kron(op.conj(), op) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
            )
    _, sing, vh = np.linalg.svd(sup)
    rho = vh[-1].conj().reshape(d, d, order="F")
    rho = rho / np.trace(rho)
    return rho, float(sing[-1] / sing[-2])


def reflection(params, *, omega_d, rabi, omega_s, probe_amp, n_max):
    """CW reflection r = -1 + sqrt(kappa_ext) <a> / alpha_in from the SVD steady state."""
    space = build_space(n_max)
    frame = Frame(omega_d, omega_s)
    h = hamiltonian_static(params, frame, rabi, omega_d, space=space).matrix
    p_in, _ = input_quadratures(space)
    h = h + math.sqrt(params.kappa_ext) * probe_amp * p_in
    channels = [
        (op.matrix, rate)
        for op, rate in collapse_operators(params, space)
        + drive_noise_channels(params, space, rabi)
    ]
    rho, gap = steady_state_svd(h, channels)
    a_mean = complex(np.trace(annihilation(space) @ rho))
    return -1.0 + math.sqrt(params.kappa_ext) * a_mean / probe_amp, gap
