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

from .dynamics import (
    DensityState,
    IntegratorOptions,
    Trajectory,
    mixed_initial_state,
    propagate,
    propagate_batch,
)
from .errors import IntegrationError, SteadyStateError
from .hilbert import build_space, qubit_number
from .params import SystemParams
from .pulses import (
    ROLE_READOUT_MARKER,
    DetectionSettings,
    PulseSchedule,
    ResetSettings,
    detection_schedule,
    reset_schedule,
)
from .sweep import fan_out, grid_argmin, increasing_grids, parallel_map

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


def _p_excited(state: DensityState) -> float:
    pops = np.real(np.diag(state.matrix))
    weights = np.real(np.diag(qubit_number(state.space)))
    return float(pops @ weights)


def _click_time(sched, readout) -> float:
    """The readout has latched: the last marker plus the latch delay."""
    return sched.marker_times()[-1] + readout.latch_delay


def _click(sched, params, readout, opts, n_max, fock_label=None):
    """Propagate through the schedule and read the click at marker + latch.

    The drive tail keeps acting while the readout latches, so the adiabatic
    dressed component returns to |g> and only genuine excitation counts.
    With ``fock_label`` and ``opts.fock_convergence`` the click is read again
    at n_max + 1 on the same schedule; a relative change above
    FOCK_CONVERGENCE_TOL is flagged under that label. Returns the click, the
    flags and the trajectory at n_max.
    """
    t_click = _click_time(sched, readout)

    def read(cutoff):
        rho0 = mixed_initial_state(build_space(cutoff), params.init_excited_pop, sched.frame)
        traj = propagate(rho0, sched, params, opts, until=t_click, extra_samples=(t_click,))
        return readout.click_probability(_p_excited(traj.pinned[t_click])), traj

    click, traj = read(n_max)
    flags = ""
    if fock_label and opts.fock_convergence:
        change = abs(read(n_max + 1)[0] - click) / max(abs(click), 1e-9)
        if change > FOCK_CONVERGENCE_TOL:
            flags = f"fock-unconverged:{fock_label}:{change:.2e};"
    return click, flags, traj


def _click_row(scheds, params, readout, opts, n_max):
    """Clicks of schedules that share one timeline, propagated as one batch.

    Returns the clicks, NaN where a column failed, and per column the
    failure message or an empty string.
    """
    t_click = _click_time(scheds[0], readout)
    space = build_space(n_max)
    rho0s = [mixed_initial_state(space, params.init_excited_pop, s.frame) for s in scheds]
    try:
        results = propagate_batch(
            rho0s, scheds, params, opts, until=t_click, extra_samples=(t_click,)
        )
    except IntegrationError as exc:  # the shared timeline failed
        results = [exc] * len(scheds)
    clicks = [
        math.nan if isinstance(r, IntegrationError)
        else readout.click_probability(_p_excited(r.pinned[t_click]))
        for r in results
    ]
    return clicks, [str(r) if isinstance(r, IntegrationError) else "" for r in results]


def _outcome(params, settings, click, dark_click, flags=""):
    """Detection outcome of a click and the dark click of its drive; with
    nbar_s = 0 the run is the dark run itself."""
    s = settings
    if s.nbar_s > 0:
        eta = (click - dark_click) / (1.0 - math.exp(-s.nbar_s))
    else:
        dark_click = click
        eta = math.nan
    p_d_dbm = math.nan
    if params.drive_power_to_rabi and s.rabi > 0:
        p_d_dbm = params.dbm_of_rabi(s.rabi)
    return DetectionOutcome(
        p_e=click,
        p_dark=dark_click,
        eta=eta,
        nbar_s=s.nbar_s,
        t_s=s.t_s,
        rabi=s.rabi,
        omega_s=s.omega_s,
        p_d_dbm=p_d_dbm,
        flags=flags,
    )


def _detect(params, settings, readout, opts, n_max, dark_click):
    """Detection outcome and the trajectory of its signal run."""
    s = settings
    if s.rabi > 0:
        params.check_nesting(s.omega_d)
    click, flags, traj = _click(detection_schedule(params, s), params, readout, opts, n_max, "p_e")
    if s.nbar_s > 0 and dark_click is None:
        dark_sched = detection_schedule(params, replace(s, nbar_s=0.0))
        dark_click = _click(dark_sched, params, readout, opts, n_max)[0]
    return _outcome(params, s, click, dark_click, flags), traj


def detection_run(
    params: SystemParams,
    settings: DetectionSettings,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    dark_click: float | None = None,
) -> DetectionOutcome:
    """Single detection protocol run at one operating point.

    The dark count is computed by the identical run with nbar_s = 0 (or
    reused from ``dark_click`` when sweeping a map at fixed drive power).
    With nbar_s = 0 this returns P_e = P_dark exactly and eta = nan.
    """
    return _detect(params, settings, readout, opts, n_max, dark_click)[0]


def detection_trace(
    params: SystemParams,
    settings: DetectionSettings,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
) -> tuple[DetectionOutcome, Trajectory]:
    """The outcome of ``detection_run`` together with the sampled trajectory
    of its signal run (for --trace-out dumps)."""
    return _detect(params, settings, readout, opts, n_max, None)


def _detection_task(params, readout, opts, n_max, task):
    """One detection point of a scan: (settings, dark click or None)."""
    settings, dark = task
    try:
        out = detection_run(params, settings, readout, opts=opts, n_max=n_max, dark_click=dark)
        return out, ""
    except (IntegrationError, SteadyStateError) as exc:
        return None, str(exc)


def _detection_row(params, readout, opts, n_max, row):
    """One drive power of the efficiency map as one batch: the dark run,
    then the signal runs. Returns an outcome per column (None where it
    failed) and the failure messages."""
    if row[0].rabi > 0:
        params.check_nesting(row[0].omega_d)
    scheds = [detection_schedule(params, s) for s in row]
    clicks, messages = _click_row(scheds, params, readout, opts, n_max)
    outcomes = [
        None if message else _outcome(params, s, click, clicks[0])
        for s, click, message in zip(row, clicks, messages)
    ]
    return outcomes, messages


def _field_grid(rows, name):
    """One outcome field over the grid points of the rows; failed points
    are NaN."""
    return np.array(
        [[math.nan if out is None else getattr(out, name) for out in row[1:]] for row in rows],
        dtype=float,
    )


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
    base: DetectionSettings,
    power_grid_dbm,
    freq_grid,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> EfficiencyMap:
    """Detection efficiency over a (P_d, omega_s) grid around ``base``.

    Each drive power is one batch on one timeline: the dark run, shared by
    the row because it does not involve the signal, and one signal run per
    frequency. The eta > 0.5 band is the omega_s interval where the
    frequency cut at the best drive power stays above one half.
    """
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    rows = []
    for p in power_grid_dbm:
        dark = replace(base, rabi=params.rabi_of_dbm(p), omega_s=freq_grid[0], nbar_s=0.0)
        rows.append([dark] + [replace(dark, omega_s=f, nbar_s=base.nbar_s) for f in freq_grid])
    task = partial(_detection_row, params, readout, opts, n_max)
    runs, flags = fan_out(task, rows, len(freq_grid), workers, lead=1)

    eta = _field_grid(runs, "eta")
    (i, j), (p_ref, _), (f_ref, _) = grid_argmin(
        -eta, power_grid_dbm, freq_grid, IntegrationError, flags
    )
    return EfficiencyMap(
        power_grid_dbm,
        freq_grid,
        eta,
        _field_grid(runs, "p_e"),
        _field_grid(runs, "p_dark"),
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
    results = parallel_map(task, points, workers)
    for (settings, _), (_, message) in zip(points, results):
        if message:
            raise IntegrationError(
                f"t_s = {settings.t_s * 1e9:.0f} ns, nbar_s = {settings.nbar_s} failed: {message}"
            )
    return [out for out, _ in results]


def efficiency_vs_length(
    params: SystemParams,
    base: DetectionSettings,
    t_s_values,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> list[DetectionOutcome]:
    """eta(t_s) with the drive length auto-adjusted per point."""
    points = [(replace(base, t_s=t_s), None) for t_s in t_s_values]
    return _detection_scan(params, readout, opts, n_max, points, workers)


def efficiency_vs_photon_number(
    params: SystemParams,
    base: DetectionSettings,
    nbar_values,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> list[DetectionOutcome]:
    """eta(nbar_s) at fixed pulse length; the dark run is shared."""
    dark = detection_run(params, replace(base, nbar_s=0.0), readout, opts=opts, n_max=n_max)
    points = [(replace(base, nbar_s=nbar), dark.p_dark) for nbar in nbar_values]
    return _detection_scan(params, readout, opts, n_max, points, workers)


def reset_run(
    params: SystemParams,
    settings: ResetSettings,
    with_initial_pi: bool = True,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    with_baseline: bool = True,
    detect_stage: float,
    readout_stage: float = READOUT_BUDGET_DEFAULT,
) -> ResetOutcome:
    """Reset protocol: optional instant pi pulse, then drive + reset tone.

    ``p_e_no_reset`` is the same run with the reset tone removed (pure T1
    decay under the drive), computed unless ``with_baseline`` is False. The
    period adds ``detect_stage`` (the detection settings' ``stage``) and
    ``readout_stage`` to the reset stage.
    """
    s = settings
    params.check_nesting(s.omega_d)
    schedule = partial(reset_schedule, params, with_initial_pi=with_initial_pi)
    p_after, flags, _ = _click(schedule(s), params, readout, opts, n_max, "p_e")
    p_no_reset = math.nan
    if with_baseline:
        p_no_reset = _click(schedule(replace(s, nbar_rst=0.0)), params, readout, opts, n_max)[0]

    period = s.stage + detect_stage + readout_stage
    p_dr_dbm = math.nan
    if params.drive_power_to_rabi and s.rabi_dr > 0:
        p_dr_dbm = params.dbm_of_rabi(s.rabi_dr)
    return ResetOutcome(
        p_e_after_reset=p_after,
        p_e_no_reset=p_no_reset,
        rabi_dr=s.rabi_dr,
        p_dr_dbm=p_dr_dbm,
        omega_rst=s.omega_rst,
        nbar_rst=s.nbar_rst,
        reset_stage=s.stage,
        detect_stage=detect_stage,
        readout_stage=readout_stage,
        period=period,
        rate=1.0 / period,
        flags=flags,
    )


def _reset_row(params, readout, opts, n_max, row):
    """One drive power of the reset map as one batch: the no-reset baseline,
    then the reset tones, each after the initial pi pulse. Returns the
    clicks (NaN where a column failed) and the failure messages."""
    params.check_nesting(row[0].omega_d)
    scheds = [reset_schedule(params, s, with_initial_pi=True) for s in row]
    return _click_row(scheds, params, readout, opts, n_max)


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
    base: ResetSettings,
    power_grid_dbm,
    freq_grid,
    readout: ReadoutModel = ReadoutModel(),
    *,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int = 3,
    workers: int = 1,
) -> ResetMap:
    """P(|e>) after the reset over a (P_dr, omega_rst) grid around ``base``,
    with argmin. Each drive power is one batch on one timeline: the no-reset
    baseline and one reset run per frequency."""
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    rows = []
    for p in power_grid_dbm:
        rabi_dr = params.rabi_of_dbm(p)
        no_reset = replace(base, rabi_dr=rabi_dr, omega_rst=freq_grid[0], nbar_rst=0.0)
        rows.append(
            [no_reset] + [replace(no_reset, omega_rst=f, nbar_rst=base.nbar_rst) for f in freq_grid]
        )
    task = partial(_reset_row, params, readout, opts, n_max)
    clicks, flags = fan_out(task, rows, len(freq_grid), workers, lead=1)

    p_e = np.array([row[1:] for row in clicks], dtype=float)
    (i, j), (p_ref, _), (f_ref, _) = grid_argmin(
        p_e, power_grid_dbm, freq_grid, IntegrationError, flags
    )
    return ResetMap(
        power_grid_dbm,
        freq_grid,
        p_e,
        np.array([row[0] for row in clicks], dtype=float),
        float(p_ref),
        float(f_ref),
        float(p_e[i, j]),
        flags,
    )


def _cycle_schedule(params, detection, *, reset):
    """The reset stage (without its readout marker), then the detection
    stage, as one schedule in the detection frame."""
    entries = []
    t0 = 0.0
    if reset is not None:
        r_sched = reset_schedule(params, reset, resonator_ref=detection.omega_s)
        entries.extend(e for e in r_sched.entries if e[0] != ROLE_READOUT_MARKER)
        t0 = r_sched.marker_times()[-1]
    d_sched = detection_schedule(params, detection, start=t0)
    entries.extend(d_sched.entries)
    return PulseSchedule(tuple(entries), d_sched.frame, d_sched.duration)


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
    ``opts.fock_convergence`` the cycle click is re-read at n_max + 1; the
    flags hold that check and those of the fresh detection run.
    """

    sched = partial(_cycle_schedule, params, reset=reset)
    click, flags, _ = _click(sched(detect), params, readout, opts, n_max, "cycle_p_e")
    dark = _click(sched(replace(detect, nbar_s=0.0)), params, readout, opts, n_max)[0]
    eta_after = (click - dark) / (1.0 - math.exp(-detect.nbar_s))
    fresh = detection_run(params, detect, readout, opts=opts, n_max=n_max)

    period = detect.stage + readout_stage
    if reset is not None:
        period += reset.stage
    return CycleOutcome(
        eta_after_reset=eta_after,
        eta_fresh=fresh.eta,
        p_e_after_reset=dark,
        period=period,
        rate=1.0 / period,
        flags=flags + fresh.flags,
    )
