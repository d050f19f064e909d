"""Continuous-wave reflection spectroscopy of the driven system.

The two-tone configuration (qubit drive at omega_d, weak probe at omega_s)
is static in the frame (omega_d, omega_s), so the reflection coefficient
comes from a direct steady-state solve:

    r = -1 + sqrt(kappa_ext) <a>_ss / alpha_in

which reduces to the one-port result r = (kappa_ext - kappa_int) / kappa
for the bare cavity on resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dressed import dressed_states, matching_amplitude, transition_frequency
from .dynamics import steady_state_stack, superoperators
from .errors import DipResolutionError, SteadyStateError
from .params import SystemParams
from .sweep import fan_out, grid_argmin, increasing_grids, parabolic_refine

TWO_PI = 2.0 * math.pi
# the reduced Planck constant from the SI's exact h; equal to
# scipy.constants.hbar, without loading scipy at import
HBAR = 6.62607015e-34 / TWO_PI
PASSIVITY_TOL = 1e-6

# weak-probe default: photon flux small against the qubit return rate so the
# |2~> population stays in the linear-response regime
WEAK_PROBE_GAMMA_FRACTION = 1e-3

# P_diff: a branch's frequency half-span around its dressed transition, the
# paper's P_diff, and the calibration's drive-power window (dB half-span, points)
FREQ_HALFSPAN = TWO_PI * 10e6
PDIFF_TARGET_DB = 6.0
CALIBRATION_POWER_WINDOW = (8.0, 33)


def default_probe_amplitude(params: SystemParams) -> float:
    """Converged weak probe amplitude in sqrt(photons/s)."""
    rate = params.gamma if params.gamma > 0 else 1e-6 * params.kappa
    return math.sqrt(WEAK_PROBE_GAMMA_FRACTION * rate)


def signal_flux_of_dbm(p_dbm: float, omega_s: float) -> float:
    """Photon flux (photons/s) of a CW tone of given power at frequency omega_s."""
    watts = 10.0 ** ((p_dbm - 30.0) / 10.0)
    return watts / (HBAR * omega_s)


def reflection_row(params: SystemParams, omega_d: float, rabi: float, omega_s, probe_amp,
                   *, n_max: int):
    """Reflection coefficients at one drive amplitude, one per (omega_s, probe_amp).

    All points are assembled from the ``superoperators`` record and solved
    as one stack. Returns the r values, NaN where the solve failed, and the
    per-point SteadyStateError or None.
    """
    if min(probe_amp) <= 0:
        raise ValueError("probe_amp must be > 0")
    ops = superoperators(params, n_max)
    root_kext = math.sqrt(params.kappa_ext)
    sups = ops.cw_liouvillians(omega_d, rabi, omega_s, [root_kext * amp for amp in probe_amp])
    rhos, errors = steady_state_stack(sups)
    a_mean = rhos.reshape(len(rhos), -1) @ ops.a_row
    r = [-1.0 + root_kext * complex(a) / amp for a, amp in zip(a_mean, probe_amp)]
    return r, errors


def reflection_coefficient(
    params: SystemParams,
    omega_d: float,
    rabi: float,
    omega_s: float,
    probe_amp: float | None = None,
    *,
    n_max: int,
) -> complex:
    """Complex reflection coefficient of a weak CW probe at omega_s."""
    if probe_amp is None:
        probe_amp = default_probe_amplitude(params)
    (r,), (error,) = reflection_row(params, omega_d, rabi, [omega_s], [probe_amp], n_max=n_max)
    if error is not None:
        raise error
    return r


@dataclass
class ReflectionMap:
    """Reflection coefficient over a drive power x signal frequency grid."""

    p_d_dbm: np.ndarray
    omega_s: np.ndarray
    r: np.ndarray  # shape (len(p_d_dbm), len(omega_s))
    probe_amp: float
    flags: list


def _map_rows(params, omega_d, freqs, probe_amp, n_max, rabis):
    """Reflection rows of consecutive drive amplitudes, one stacked solve
    after another: per row the r values and per point its failure message."""
    out = []
    for rabi in rabis:
        r, errors = reflection_row(
            params, omega_d, rabi, freqs, [probe_amp] * len(freqs), n_max=n_max
        )
        out.append((r, [str(e) if e is not None else "" for e in errors]))
    return out


def dip_map(
    params: SystemParams,
    omega_d: float,
    power_grid_dbm,
    freq_grid,
    probe_amp: float | None = None,
    *,
    n_max: int,
    workers: int = 1,
) -> ReflectionMap:
    """|r| map over the (P_d, omega_s) grid, one stacked solve per power row;
    per-point failures are recorded, and |r| > 1 + PASSIVITY_TOL raises."""
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    if probe_amp is None:
        probe_amp = default_probe_amplitude(params)

    task = partial(_map_rows, params, omega_d, freq_grid, probe_amp, n_max)
    rabis = [params.rabi_of_dbm(p_dbm) for p_dbm in power_grid_dbm]
    rows, flags = fan_out(task, rabis, len(freq_grid), workers)
    r = np.array(rows, dtype=complex)
    worst = float(np.max(np.abs(r)))
    if worst > 1.0 + PASSIVITY_TOL:
        raise ValueError(f"passivity violated: max |r| = {worst}")
    return ReflectionMap(power_grid_dbm, freq_grid, r, probe_amp, flags)


@dataclass(frozen=True)
class MatchingPoint:
    p_d_dbm: float
    omega_s: float
    min_abs_r: float
    on_boundary: bool


def find_matching_point(rmap: ReflectionMap) -> MatchingPoint:
    """Grid argmin of |r| with local quadratic refinement of log|r| per axis."""
    mag = np.abs(rmap.r)
    log_mag = np.log(np.maximum(mag, 1e-300))
    (i, j), (p_ref, logr_p), (f_ref, logr_f) = grid_argmin(
        mag, rmap.p_d_dbm, rmap.omega_s, SteadyStateError, rmap.flags, curve=log_mag
    )
    on_boundary = i in (0, mag.shape[0] - 1) or j in (0, mag.shape[1] - 1)
    refined = min(math.exp(logr_p), math.exp(logr_f), float(mag[i, j]))
    return MatchingPoint(float(p_ref), float(f_ref), refined, on_boundary)


@dataclass(frozen=True)
class PdiffResult:
    """Impedance-matching dip powers of the two Raman branches."""

    p_dip3_dbm: float
    p_dip4_dbm: float
    p_diff_db: float
    omega_dip3: float
    omega_dip4: float
    min_abs_r3: float
    min_abs_r4: float


def _power_scan(params, omega_d, power_halfspan_db, power_points):
    """The part of ``pdiff_spectrum`` that does not depend on the signal
    power, as (omega_d, powers, ladders): the drive frequency, the
    drive-power grid around the matching amplitude, and the dressed ladder
    of each grid power."""
    params.check_nesting(omega_d)
    rabi_star = matching_amplitude(params, omega_d)
    anchor_dbm = 20.0 * math.log10(rabi_star / params.require_calibration())
    powers = np.linspace(
        anchor_dbm - power_halfspan_db, anchor_dbm + power_halfspan_db, power_points
    )
    # both branches scan the same powers: diagonalise each ladder once
    ladders = [dressed_states(params, omega_d, params.rabi_of_dbm(p)) for p in powers]
    return omega_d, powers, ladders


def _dip_separation(params, scan, signal_power_dbm, *, n_max, freq_points=21) -> PdiffResult:
    """P_diff at one signal power over a built power scan. At every power of
    the scan, each Raman branch scans ``freq_points`` frequencies within
    FREQ_HALFSPAN of its dressed transition |1~> -> |3~> or |4~>, both
    windows in one stacked solve. Each branch's |r| minimum is refined along
    frequency at every power, then along power. A failed point or a dip on
    the power-grid boundary raises, branch |3~> first."""
    omega_d, powers, ladders = scan
    signal_power_dbm = float(signal_power_dbm)
    rows = []
    for p_dbm, ladder in zip(powers, ladders):
        centers = (transition_frequency(ladder, 1, 3), transition_frequency(ladder, 1, 4))
        freqs = np.concatenate(
            [np.linspace(c - FREQ_HALFSPAN, c + FREQ_HALFSPAN, freq_points) for c in centers]
        )
        amps = [math.sqrt(signal_flux_of_dbm(signal_power_dbm, w)) for w in freqs]
        rabi = params.rabi_of_dbm(p_dbm)
        rows.append((freqs, *reflection_row(params, omega_d, rabi, freqs, amps, n_max=n_max)))
    dips = []
    for branch, upper in enumerate((3, 4)):
        part = slice(branch * freq_points, (branch + 1) * freq_points)
        best = np.empty(len(powers))
        best_freq = np.empty(len(powers))
        for i, (freqs, r, errors) in enumerate(rows):
            for error in errors[part]:
                if error is not None:
                    raise error
            mags = np.array([abs(value) for value in r[part]])
            jmin = int(np.argmin(mags))
            f_ref, log_min = parabolic_refine(
                freqs[part], np.log(np.maximum(mags, 1e-300)), jmin
            )
            best[i] = math.exp(log_min)
            best_freq[i] = f_ref
        imin = int(np.argmin(best))
        if imin in (0, len(powers) - 1):
            raise DipResolutionError(
                f"branch |{upper}~> dip sits on the power-grid boundary", scan=(powers, best)
            )
        p_ref, log_r = parabolic_refine(powers, np.log(best), imin)
        dips.append((float(p_ref), float(best_freq[imin]), math.exp(log_r)))
    (p3, f3, r3), (p4, f4, r4) = dips
    return PdiffResult(p3, p4, abs(p3 - p4), f3, f4, r3, r4)


def pdiff_spectrum(
    params: SystemParams,
    omega_d: float,
    signal_power_dbm: float,
    *,
    n_max: int,
    power_halfspan_db: float = 6.0,
    power_points: int = 25,
    freq_points: int = 21,
) -> PdiffResult:
    """Drive-power separation of the two impedance-matching dips.

    The probe is a CW tone of absolute power ``signal_power_dbm`` (at the
    chip). Each branch is minimized over a (P_d, omega_s) window centered on
    its dressed transition; P_diff is the dip separation along P_d in dB,
    which only involves drive-amplitude ratios and therefore does not depend
    on the dBm calibration constant. The config's ``pdiff_delta_drive`` and
    ``pdiff_signal_power`` hold the paper's drive detuning and signal
    power. Each branch scans ``freq_points`` frequencies within
    FREQ_HALFSPAN of its dressed transition (see ``_dip_separation``).
    """
    scan = _power_scan(params, omega_d, power_halfspan_db, power_points)
    return _dip_separation(params, scan, signal_power_dbm, n_max=n_max, freq_points=freq_points)


def calibration_params(params: SystemParams, gamma_calibration: float) -> SystemParams:
    """Parameter set of the CW input-power calibration.

    The calibration is characterized by the device constants plus the qubit
    decay rate and the external-coupling ratio only, so the time-gated
    protocol extras (initialization floor, drive-line noise) are zeroed.
    """
    return replace(
        params,
        gamma=gamma_calibration,
        init_excited_pop=0.0,
        drive_noise_per_rabi2=0.0,
        drive_dephasing_per_rabi2=0.0,
    )


@dataclass(frozen=True)
class SignalPowerCalibration:
    p_s_dbm: float
    p_diff_db: float
    residual_db: float
    flags: str = ""


class _Converged(Exception):
    """Ends the root search at the first power whose P_diff is within tol;
    its argument is that power's SignalPowerCalibration."""


def calibrate_signal_power(
    params: SystemParams,
    omega_d: float,
    tol_db: float = 0.05,
    bracket_dbm=(-150.0, -141.0),
    *,
    n_max: int,
) -> SignalPowerCalibration:
    """Signal power whose dip separation reproduces PDIFF_TARGET_DB.

    Brent's bracketed root finder (``scipy.optimize.brentq``) on the signal
    power in dBm; P_diff grows monotonically with signal power, so the
    bracket just needs to straddle the target. The search returns the first
    evaluated power with |P_diff - target| < tol_db. If the bracket narrows
    below 0.02 dB first, it returns the evaluated power with the smallest
    residual, flagged ``p_diff-unconverged:<residual>;``. The drive-power
    window is CALIBRATION_POWER_WINDOW, wider than ``pdiff_spectrum``'s so
    the dips stay interior across the whole bracket; its grid and dressed
    ladders do not depend on the signal power, so the search builds them
    once. The frequency window is ``pdiff_spectrum``'s default.
    """
    from scipy.optimize import brentq  # loaded here: only calibration needs it

    lo, hi = bracket_dbm
    if not lo < hi:
        raise DipResolutionError(f"P_diff bracket [{lo}, {hi}] dBm is empty: it needs lo < hi")
    scan = _power_scan(params, omega_d, *CALIBRATION_POWER_WINDOW)
    evaluated = {}

    def residual(p_s):
        # brentq evaluates the bracket ends again: those come from the cache
        if p_s not in evaluated:
            p_diff = _dip_separation(params, scan, p_s, n_max=n_max).p_diff_db
            if not math.isfinite(p_diff):
                raise DipResolutionError(f"P_diff at {p_s:.3f} dBm is not finite: {p_diff}")
            evaluated[p_s] = SignalPowerCalibration(p_s, p_diff, p_diff - PDIFF_TARGET_DB)
            if abs(p_diff - PDIFF_TARGET_DB) < tol_db:
                raise _Converged(evaluated[p_s])
        return evaluated[p_s].residual_db

    try:
        f_lo, f_hi = residual(lo), residual(hi)
        if f_lo > 0 or f_hi < 0:
            raise DipResolutionError(
                f"P_diff bracket does not straddle {PDIFF_TARGET_DB} dB: "
                f"[{f_lo + PDIFF_TARGET_DB:.2f}, {f_hi + PDIFF_TARGET_DB:.2f}] dB"
            )
        brentq(residual, lo, hi, xtol=0.02, disp=False)
    except _Converged as stop:
        return stop.args[0]
    best = min(evaluated.values(), key=lambda point: abs(point.residual_db))
    return replace(best, flags=f"p_diff-unconverged:{best.residual_db:.2e};")
