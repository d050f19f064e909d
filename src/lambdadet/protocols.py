"""Time-gated protocols: single-photon detection, fast reset, full cycle.

Detection builds the drive + signal schedule, propagates the Lindblad
dynamics, and reads the qubit projectively once the phase-locked readout has
latched: the click reflects P(|e>) at marker + latch_delay, with the drive
tail still acting so the adiabatic dressed component returns to the ground
state instead of counting as a click. The dark count is the identical run
with an empty signal pulse. Efficiency subtracts it:

    eta = (P_e - P_dark) / (1 - exp(-nbar_s))

with the coherent-pulse vacuum probability exp(-nbar_s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dressed import DELTA_DRIVE_DEFAULT
from .dynamics import (
    DensityState,
    IntegratorOptions,
    Trajectory,
    mixed_initial_state,
    propagate,
)
from .errors import IntegrationError, SteadyStateError
from .hilbert import build_space, qubit_number
from .params import SystemParams
from .pulses import (
    ROLE_READOUT_MARKER,
    T_RISE_DEFAULT,
    PulseSchedule,
    auto_drive_length,
    detection_schedule,
    reset_schedule,
    stage_duration,
)
from .sweep import fan_out, grid_argmin, increasing_grids

FOCK_CONVERGENCE_TOL = 1e-3
READOUT_BUDGET_DEFAULT = 140e-9  # t_delay2 + acquisition, rate bookkeeping only


@dataclass(frozen=True)
class ReadoutModel:
    """Dispersive-readout imperfections folded onto the simulated P(|e>).

    ``eps_ge``/``eps_eg`` are assignment errors; ``latch_delay`` is the time
    between the readout marker and the moment the reflected readout pulse
    has latched the oscillator phase (default: 60 ns readout pulse plus the
    40 ns pump delay). Relaxation during this window loses the click.
    """

    eps_ge: float = 0.0
    eps_eg: float = 0.0
    latch_delay: float = 100e-9

    def __post_init__(self):
        for eps in (self.eps_ge, self.eps_eg):
            if not 0.0 <= eps < 0.5:
                raise ValueError(f"assignment errors must lie in [0, 0.5), got {eps}")
        if self.latch_delay < 0:
            raise ValueError("latch_delay must be >= 0")

    def click_probability(self, p_e: float) -> float:
        return (1.0 - self.eps_eg) * p_e + self.eps_ge * (1.0 - p_e)


@dataclass(frozen=True)
class DetectionOutcome:
    p_e: float
    p_dark: float
    eta: float
    nbar_s: float
    t_s: float
    rabi: float
    omega_s: float
    p_d_dbm: float
    flags: str = ""

    def __post_init__(self):
        if not (-1e-9 <= self.p_e <= 1.0 + 1e-9):
            raise ValueError(f"P_e = {self.p_e} outside [0, 1]")


@dataclass(frozen=True)
class ResetOutcome:
    p_e_after_reset: float
    p_e_no_reset: float
    rabi_dr: float
    p_dr_dbm: float
    omega_rst: float
    nbar_rst: float
    reset_stage: float
    detect_stage: float
    readout_stage: float
    period: float
    rate: float
    flags: str = ""


@dataclass(frozen=True)
class CycleOutcome:
    eta_after_reset: float
    eta_fresh: float
    p_e_after_reset: float
    period: float
    rate: float
    flags: str = ""


@dataclass(frozen=True)
class DetectionSettings:
    """Operating point of the detection stage."""

    rabi: float
    omega_s: float
    t_s: float
    nbar_s: float
    omega_d: float
    t_rise: float = T_RISE_DEFAULT


@dataclass(frozen=True)
class ResetSettings:
    """Operating point of the reset stage."""

    rabi_dr: float
    omega_rst: float
    nbar_rst: float
    t_dr: float
    omega_d: float
    t_rise: float = T_RISE_DEFAULT


def _p_excited(state: DensityState) -> float:
    pops = np.real(np.diag(state.matrix))
    weights = np.real(np.diag(qubit_number(state.space)))
    return float(pops @ weights)


def _default_omega_d(params: SystemParams) -> float:
    return params.omega_ge - DELTA_DRIVE_DEFAULT


def _click_from_schedule(sched, params, readout, opts, space, rho0=None):
    """Propagate through the schedule and read the click at marker + latch.

    The drive tail keeps acting while the readout latches, so the adiabatic
    dressed component returns to |g> and only genuine excitation counts.
    """
    marker = sched.marker_times()[-1]
    t_click = marker + readout.latch_delay
    if rho0 is None:
        rho0 = mixed_initial_state(space, params.init_excited_pop, sched.frame)
    traj = propagate(rho0, sched, params, opts, until=t_click, extra_samples=(t_click,))
    return readout.click_probability(_p_excited(traj.pinned[t_click])), traj


def _run_detection_once(params, settings, readout, opts, n_max, rho0=None):
    space = build_space(n_max)
    sched = detection_schedule(
        params,
        rabi=settings.rabi,
        omega_d=settings.omega_d,
        omega_s=settings.omega_s,
        t_s=settings.t_s,
        nbar_s=settings.nbar_s,
        t_rise=settings.t_rise,
    )
    return _click_from_schedule(sched, params, readout, opts, space, rho0)


def _fock_flag(value_lo, value_hi, label):
    ref = max(abs(value_lo), 1e-9)
    if abs(value_hi - value_lo) / ref > FOCK_CONVERGENCE_TOL:
        return f"fock-unconverged:{label}:{abs(value_hi - value_lo) / ref:.2e};"
    return ""


def _detect(params, op_point, t_s, nbar_s, readout, omega_d, t_rise, opts, n_max, dark_click):
    """Detection outcome and the trajectory of its signal run."""
    rabi, omega_s = op_point
    if omega_d is None:
        omega_d = _default_omega_d(params)
    if rabi > 0:
        params.check_nesting(omega_d)
    settings = DetectionSettings(rabi, omega_s, t_s, nbar_s, omega_d, t_rise)

    flags = ""
    click, traj = _run_detection_once(params, settings, readout, opts, n_max)
    if opts.fock_convergence:
        click_hi, _ = _run_detection_once(params, settings, readout, opts, n_max + 1)
        flags += _fock_flag(click, click_hi, "p_e")

    if nbar_s > 0:
        if dark_click is None:
            dark_settings = replace(settings, nbar_s=0.0)
            dark_click, _ = _run_detection_once(params, dark_settings, readout, opts, n_max)
        eta = (click - dark_click) / (1.0 - math.exp(-nbar_s))
    else:
        dark_click = click
        eta = math.nan

    p_d_dbm = math.nan
    if params.drive_power_to_rabi and rabi > 0:
        p_d_dbm = params.dbm_of_rabi(rabi)
    return DetectionOutcome(
        p_e=click,
        p_dark=dark_click,
        eta=eta,
        nbar_s=nbar_s,
        t_s=t_s,
        rabi=rabi,
        omega_s=omega_s,
        p_d_dbm=p_d_dbm,
        flags=flags,
    ), traj


def detection_run(
    params: SystemParams,
    op_point: tuple[float, float],
    t_s: float,
    nbar_s: float,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    dark_click: float | None = None,
) -> DetectionOutcome:
    """Single detection protocol run at op_point = (rabi, omega_s).

    The dark count is computed by the identical run with nbar_s = 0 (or
    reused from ``dark_click`` when sweeping a map at fixed drive power).
    With nbar_s = 0 this returns P_e = P_dark exactly and eta = nan.
    """
    return _detect(
        params, op_point, t_s, nbar_s, readout, omega_d, t_rise, opts, n_max, dark_click
    )[0]


def detection_trace(
    params: SystemParams,
    op_point: tuple[float, float],
    t_s: float,
    nbar_s: float,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
) -> tuple[DetectionOutcome, Trajectory]:
    """The outcome of ``detection_run`` together with the sampled trajectory
    of its signal run (for --trace-out dumps)."""
    return _detect(params, op_point, t_s, nbar_s, readout, omega_d, t_rise, opts, n_max, None)


def dark_count(
    params: SystemParams,
    op_point: tuple[float, float],
    t_s: float,
    readout: ReadoutModel = ReadoutModel(),
    **kw,
) -> float:
    """Click probability with no signal pulse (nonadiabatic drive excitation
    plus imperfect initialization)."""
    return detection_run(params, op_point, t_s, 0.0, readout, **kw).p_dark


def _detection_task(params, readout, opts, n_max, task):
    """One detection point of a sweep: (settings, dark click or None)."""
    s, dark = task
    try:
        out = detection_run(
            params, (s.rabi, s.omega_s), s.t_s, s.nbar_s, readout, omega_d=s.omega_d,
            t_rise=s.t_rise, opts=opts, n_max=n_max, dark_click=dark,
        )
        return out, ""
    except (IntegrationError, SteadyStateError) as exc:
        return None, str(exc)


def _field_grid(outcomes, name, shape):
    """One outcome field over a grid; failed points are NaN."""
    values = [math.nan if out is None else getattr(out, name) for out in outcomes]
    return np.array(values, dtype=float).reshape(shape)


@dataclass
class EfficiencyMap:
    p_d_dbm: np.ndarray
    omega_s: np.ndarray
    eta: np.ndarray
    p_e: np.ndarray
    p_dark: np.ndarray
    band_above_half: tuple[float, float] | None
    argmax_p_d_dbm: float
    argmax_omega_s: float
    eta_max: float
    flags: list


def efficiency_map(
    params: SystemParams,
    power_grid_dbm,
    freq_grid,
    t_s: float,
    nbar_s: float,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> EfficiencyMap:
    """Detection efficiency over a (P_d, omega_s) grid.

    The dark run is shared per power (it does not involve the signal), and
    the eta > 0.5 band is the omega_s interval where the frequency cut at
    the best drive power stays above one half.
    """
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    if omega_d is None:
        omega_d = _default_omega_d(params)
    task = partial(_detection_task, params, readout, opts, n_max)

    rows = [
        DetectionSettings(params.rabi_of_dbm(p), freq_grid[0], t_s, 0.0, omega_d, t_rise)
        for p in power_grid_dbm
    ]
    dark_runs, flags = fan_out(task, [(s, None) for s in rows], workers=workers)
    darks = _field_grid(dark_runs, "p_dark", len(rows))
    points = [
        (replace(s, omega_s=omega_s, nbar_s=nbar_s), float(dark))
        for s, dark in zip(rows, darks)
        for omega_s in freq_grid
    ]
    runs, point_flags = fan_out(task, points, len(freq_grid), workers)
    flags += point_flags

    shape = (len(power_grid_dbm), len(freq_grid))
    eta = _field_grid(runs, "eta", shape)
    (i, j), (p_ref, _), (f_ref, _) = grid_argmin(
        -eta, power_grid_dbm, freq_grid, IntegrationError, flags
    )
    return EfficiencyMap(
        power_grid_dbm,
        freq_grid,
        eta,
        _field_grid(runs, "p_e", shape),
        _field_grid(runs, "p_dark", shape),
        _band_above(freq_grid, eta[i, :], 0.5),
        float(p_ref),
        float(f_ref),
        float(eta[i, j]),
        flags,
    )


def _band_above(x: np.ndarray, y: np.ndarray, level: float):
    """Interval where y > level, with linear interpolation at the crossings."""
    above = y > level
    if not np.any(above):
        return None
    idx = np.nonzero(above)[0]
    lo_i, hi_i = idx[0], idx[-1]
    lo = x[lo_i]
    if lo_i > 0 and np.isfinite(y[lo_i - 1]):
        frac = (level - y[lo_i - 1]) / (y[lo_i] - y[lo_i - 1])
        lo = x[lo_i - 1] + frac * (x[lo_i] - x[lo_i - 1])
    hi = x[hi_i]
    if hi_i < len(x) - 1 and np.isfinite(y[hi_i + 1]):
        frac = (level - y[hi_i + 1]) / (y[hi_i] - y[hi_i + 1])
        hi = x[hi_i + 1] - frac * (x[hi_i + 1] - x[hi_i])
    return (float(lo), float(hi))


def _detection_scan(params, readout, opts, n_max, points, workers):
    """Outcomes of a one-axis detection scan; a failed point raises."""
    task = partial(_detection_task, params, readout, opts, n_max)
    outcomes, flags = fan_out(task, points, workers=workers)
    if flags:
        i, _, message = flags[0]
        settings = points[i][0]
        raise IntegrationError(
            f"t_s = {settings.t_s * 1e9:.0f} ns, nbar_s = {settings.nbar_s} failed: {message}"
        )
    return outcomes


def efficiency_vs_length(
    params: SystemParams,
    op_point: tuple[float, float],
    t_s_values,
    nbar_s: float,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> list[DetectionOutcome]:
    """eta(t_s) with the drive length auto-adjusted per point."""
    if omega_d is None:
        omega_d = _default_omega_d(params)
    points = [
        (DetectionSettings(*op_point, t_s, nbar_s, omega_d, t_rise), None) for t_s in t_s_values
    ]
    return _detection_scan(params, readout, opts, n_max, points, workers)


def efficiency_vs_photon_number(
    params: SystemParams,
    op_point: tuple[float, float],
    t_s: float,
    nbar_values,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> list[DetectionOutcome]:
    """eta(nbar_s) at fixed pulse length; the dark run is shared."""
    if omega_d is None:
        omega_d = _default_omega_d(params)
    dark = detection_run(
        params, op_point, t_s, 0.0, readout, omega_d=omega_d, t_rise=t_rise,
        opts=opts, n_max=n_max,
    ).p_dark
    points = [
        (DetectionSettings(*op_point, t_s, nbar, omega_d, t_rise), dark) for nbar in nbar_values
    ]
    return _detection_scan(params, readout, opts, n_max, points, workers)


def reset_run(
    params: SystemParams,
    omega_rst: float,
    rabi_dr: float,
    nbar_rst: float,
    t_dr: float,
    with_initial_pi: bool = True,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    with_baseline: bool = True,
    detect_stage: float | None = None,
    readout_stage: float = READOUT_BUDGET_DEFAULT,
) -> ResetOutcome:
    """Reset protocol: optional instant pi pulse, then drive + reset tone.

    ``p_e_no_reset`` is the same run with the reset tone removed (pure T1
    decay under the drive), computed unless ``with_baseline`` is False.
    """
    if omega_d is None:
        omega_d = _default_omega_d(params)
    params.check_nesting(omega_d)

    def run(nbar, cutoff):
        space = build_space(cutoff)
        sched = reset_schedule(
            params,
            rabi_dr=rabi_dr,
            omega_d=omega_d,
            omega_rst=omega_rst,
            nbar_rst=nbar,
            t_dr=t_dr,
            t_rise=t_rise,
            with_initial_pi=with_initial_pi,
        )
        click, _ = _click_from_schedule(sched, params, readout, opts, space)
        return click

    flags = ""
    p_after = run(nbar_rst, n_max)
    if opts.fock_convergence:
        p_hi = run(nbar_rst, n_max + 1)
        flags += _fock_flag(p_after, p_hi, "p_e")
    p_no_reset = run(0.0, n_max) if with_baseline else math.nan

    reset_stage = stage_duration(t_dr, t_rise)
    if detect_stage is None:
        detect_stage = stage_duration(auto_drive_length(85e-9), t_rise)
    period = reset_stage + detect_stage + readout_stage
    p_dr_dbm = math.nan
    if params.drive_power_to_rabi and rabi_dr > 0:
        p_dr_dbm = params.dbm_of_rabi(rabi_dr)
    return ResetOutcome(
        p_e_after_reset=p_after,
        p_e_no_reset=p_no_reset,
        rabi_dr=rabi_dr,
        p_dr_dbm=p_dr_dbm,
        omega_rst=omega_rst,
        nbar_rst=nbar_rst,
        reset_stage=reset_stage,
        detect_stage=detect_stage,
        readout_stage=readout_stage,
        period=period,
        rate=1.0 / period,
        flags=flags,
    )


def _reset_task(params, readout, opts, n_max, s):
    """One reset point of a sweep, without the no-reset baseline."""
    try:
        out = reset_run(
            params, s.omega_rst, s.rabi_dr, s.nbar_rst, s.t_dr, True, readout,
            omega_d=s.omega_d, t_rise=s.t_rise, opts=opts, n_max=n_max, with_baseline=False,
        )
        return out, ""
    except (IntegrationError, SteadyStateError) as exc:
        return None, str(exc)


@dataclass
class ResetMap:
    p_dr_dbm: np.ndarray
    omega_rst: np.ndarray
    p_e: np.ndarray
    p_e_no_reset: np.ndarray
    argmin_p_dr_dbm: float
    argmin_omega_rst: float
    p_e_min: float
    flags: list


def reset_map(
    params: SystemParams,
    power_grid_dbm,
    freq_grid,
    nbar_rst: float,
    t_dr: float,
    readout: ReadoutModel = ReadoutModel(),
    *,
    omega_d: float | None = None,
    t_rise: float = T_RISE_DEFAULT,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> ResetMap:
    """P(|e>) after the reset over a (P_dr, omega_rst) grid, with argmin."""
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    if omega_d is None:
        omega_d = _default_omega_d(params)
    task = partial(_reset_task, params, readout, opts, n_max)

    rows = [
        ResetSettings(params.rabi_of_dbm(p), freq_grid[0], 0.0, t_dr, omega_d, t_rise)
        for p in power_grid_dbm
    ]
    base_runs, flags = fan_out(task, rows, workers=workers)
    points = [
        replace(s, omega_rst=omega_rst, nbar_rst=nbar_rst) for s in rows for omega_rst in freq_grid
    ]
    runs, point_flags = fan_out(task, points, len(freq_grid), workers)
    flags += point_flags

    p_e = _field_grid(runs, "p_e_after_reset", (len(power_grid_dbm), len(freq_grid)))
    (i, j), (p_ref, _), (f_ref, _) = grid_argmin(
        p_e, power_grid_dbm, freq_grid, IntegrationError, flags
    )
    return ResetMap(
        power_grid_dbm,
        freq_grid,
        p_e,
        _field_grid(base_runs, "p_e_after_reset", len(rows)),
        float(p_ref),
        float(f_ref),
        float(p_e[i, j]),
        flags,
    )


def full_cycle(
    params: SystemParams,
    detect: DetectionSettings,
    reset: ResetSettings | None,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    readout_stage: float = READOUT_BUDGET_DEFAULT,
) -> CycleOutcome:
    """Reset stage followed by detection on the post-reset state.

    The whole cycle runs as a single schedule in the detection frame; the
    reset tone enters as an explicitly oscillating term at its carrier
    detuning. The period uses the nominal stage bookkeeping (plateau plus
    one t_rise per edge, plus the readout budget). With
    ``opts.fock_convergence`` the cycle click is re-run at n_max + 1; the
    flags hold that check and those of the fresh detection run.
    """

    def cycle_click(nbar_s, cutoff):
        entries = []
        t0 = 0.0
        if reset is not None:
            r_sched = reset_schedule(
                params,
                rabi_dr=reset.rabi_dr,
                omega_d=reset.omega_d,
                omega_rst=reset.omega_rst,
                nbar_rst=reset.nbar_rst,
                t_dr=reset.t_dr,
                t_rise=reset.t_rise,
                with_initial_pi=True,
                resonator_ref=detect.omega_s,
            )
            entries.extend(e for e in r_sched.entries if e[0] != ROLE_READOUT_MARKER)
            t0 = r_sched.marker_times()[-1]
        d_sched = detection_schedule(
            params,
            rabi=detect.rabi,
            omega_d=detect.omega_d,
            omega_s=detect.omega_s,
            t_s=detect.t_s,
            nbar_s=nbar_s,
            t_rise=detect.t_rise,
            start=t0,
        )
        entries.extend(d_sched.entries)
        sched = PulseSchedule(tuple(entries), d_sched.frame, d_sched.duration)
        click, _ = _click_from_schedule(sched, params, readout, opts, build_space(cutoff))
        return click

    flags = ""
    click = cycle_click(detect.nbar_s, n_max)
    if opts.fock_convergence:
        flags += _fock_flag(click, cycle_click(detect.nbar_s, n_max + 1), "cycle_p_e")
    dark = cycle_click(0.0, n_max)
    eta_after = (click - dark) / (1.0 - math.exp(-detect.nbar_s))

    fresh = detection_run(
        params,
        (detect.rabi, detect.omega_s),
        detect.t_s,
        detect.nbar_s,
        readout,
        omega_d=detect.omega_d,
        t_rise=detect.t_rise,
        opts=opts,
        n_max=n_max,
    )

    detect_stage = stage_duration(auto_drive_length(detect.t_s), detect.t_rise)
    period = detect_stage + readout_stage
    if reset is not None:
        period += stage_duration(reset.t_dr, reset.t_rise)
    return CycleOutcome(
        eta_after_reset=eta_after,
        eta_fresh=fresh.eta,
        p_e_after_reset=dark,
        period=period,
        rate=1.0 / period,
        flags=flags + fresh.flags,
    )
