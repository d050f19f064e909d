"""Time-gated protocols: single-photon detection, fast reset, full cycle.

Detection builds the drive + signal schedule, propagates the Lindblad
dynamics until the phase-locked readout has latched, and reads the qubit
projectively there: the click reflects P(|e>) at marker + latch_delay,
with the drive tail still acting so the adiabatic dressed component returns
to the ground state instead of counting as a click. The dark count is the
identical run with an empty signal pulse. Efficiency subtracts it:

    eta = (P_e - P_dark) / (1 - exp(-nbar_s))

with the coherent-pulse vacuum probability exp(-nbar_s).

Every protocol has one shape: settings, a schedule builder, one ``_clicks``
batch, the outcome. The builders check the drive's nesting condition, so a
bad drive fails before anything propagates. Runs on one pulse timeline that
differ only in amplitudes and carriers are one ``propagate_batch``: a signal
run and its dark run, a reset run and its no-reset baseline, one pulse
length of an efficiency scan (its dark run and one signal run per nbar_s),
the dark runs of several drive powers, and each block of consecutive map
rows (``sweep.fan_out``). Batching leaves every click as it is alone.
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
    propagate,  # re-exported; the protocols themselves call propagate_batch
    propagate_batch,
)
from .errors import IntegrationError
from .hilbert import build_space, qubit_number
from .params import SystemParams
from .pulses import (
    DetectionSettings,
    PulseSchedule,
    ResetSettings,
    detection_schedule,
    reset_schedule,
)
from .sweep import fan_out, grid_argmin, increasing_grids, parallel_map

FOCK_CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class ReadoutModel:
    """Dispersive-readout imperfections folded onto the simulated P(|e>).

    ``eps_ge``/``eps_eg`` are assignment errors; ``latch_delay`` is the time
    between the readout marker and the moment the reflected readout pulse
    has latched the oscillator phase. Relaxation during this window loses
    the click. The fields have no defaults: the paper's readout (no
    assignment errors, the 60 ns readout pulse plus the 40 ns pump delay)
    lives in the config key table, as ``parse_config("").readout_model()``.
    """

    eps_ge: float
    eps_eg: float
    latch_delay: float

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


@dataclass(frozen=True)
class _Click:
    """One column of a click batch: the click (NaN where the run failed),
    the run's Trajectory at n_max or the IntegrationError it failed with,
    and its Fock-cutoff flag ("" when converged or unchecked)."""

    value: float
    run: Trajectory | IntegrationError
    flag: str = ""

    @property
    def failed(self) -> bool:
        return isinstance(self.run, IntegrationError)

    @property
    def message(self) -> str:
        """The failure message, else the flag: a map column's entry."""
        return str(self.run) if self.failed else self.flag


def _clicks(scheds, params, readout, opts, n_max, labels=(), first=()) -> list[_Click]:
    """Clicks of schedules that share one timeline, propagated as one batch.

    Each run stops at its last readout marker plus the latch delay, where
    it is read: its ``final`` state gives the click. The drive tail keeps
    acting while the readout latches, so the adiabatic dressed component
    returns to |g> and only genuine excitation counts.
    ``first`` gives per column a first stage, in its own frame, that ends
    where the column's schedule takes over: the runs start there, and each
    column's state at that time moves into its schedule's frame
    (``DensityState.in_frame``). A column that fails in the first stage
    fails. ``labels`` names the Fock check of the leading columns ("" for
    none). With ``opts.fock_convergence`` the labelled columns that
    succeeded are read again at n_max + 1 as one batch, through every
    stage: a relative change above FOCK_CONVERGENCE_TOL gives the flag
    ``fock-unconverged:<label>:<change>``, and a failure there fails the
    column.
    """
    t_click = scheds[0].marker_times[-1] + readout.latch_delay

    def read(columns, cutoff):
        space = build_space(cutoff)
        starts = [
            mixed_initial_state(space, params.init_excited_pop, (first or scheds)[b].frame)
            for b in columns
        ]
        if first:  # a column that fails here keeps its error
            staged = propagate_batch(starts, [first[b] for b in columns], params, opts)
            starts = [
                run if isinstance(run, IntegrationError) else run.final.in_frame(scheds[b].frame)
                for b, run in zip(columns, staged)
            ]
        runs = list(starts)
        live = [k for k, start in enumerate(starts) if not isinstance(start, IntegrationError)]
        if live:
            batch = [scheds[columns[k]] for k in live]
            finished = propagate_batch([starts[k] for k in live], batch, params, opts,
                                       until=t_click)
            for k, run in zip(live, finished):
                runs[k] = run
        return [
            _Click(math.nan, run) if isinstance(run, IntegrationError)
            else _Click(readout.click_probability(_p_excited(run.final)), run)
            for run in runs
        ]

    clicks = read(range(len(scheds)), n_max)
    checked = [b for b, label in enumerate(labels) if label and not clicks[b].failed]
    if opts.fock_convergence and checked:
        for b, finer in zip(checked, read(checked, n_max + 1)):
            if finer.failed:
                clicks[b] = finer
                continue
            change = abs(finer.value - clicks[b].value) / max(abs(clicks[b].value), 1e-9)
            if change > FOCK_CONVERGENCE_TOL:
                clicks[b] = replace(clicks[b], flag=f"fock-unconverged:{labels[b]}:{change:.2e}")
    return clicks


def _checked(clicks: list[_Click]) -> list[_Click]:
    """The clicks of a single-point batch; raises the first column's error."""
    for click in clicks:
        if click.failed:
            raise click.run
    return clicks


def _flags(clicks: list[_Click]) -> str:
    """The Fock flags of single-point clicks, each ended by ';'."""
    return "".join(f"{c.flag};" for c in clicks if c.flag)


def _outcome(params, settings, click, dark, flags=""):
    """Detection outcome of a click and the dark click of its drive; with
    nbar_s = 0 the run is the dark run itself."""
    s = settings
    if s.nbar_s > 0:
        eta = (click - dark) / (1.0 - math.exp(-s.nbar_s))
    else:
        dark = click
        eta = math.nan
    p_d_dbm = math.nan
    if params.drive_power_to_rabi and s.rabi > 0:
        p_d_dbm = params.dbm_of_rabi(s.rabi)
    return DetectionOutcome(
        p_e=click,
        p_dark=dark,
        eta=eta,
        nbar_s=s.nbar_s,
        t_s=s.t_s,
        rabi=s.rabi,
        omega_s=s.omega_s,
        p_d_dbm=p_d_dbm,
        flags=flags,
    )


def _detect(params, settings, readout, opts, n_max):
    """Detection outcome and the trajectory of its signal run; the signal
    run and its dark run are one batch."""
    s = settings
    runs = [s] if s.nbar_s == 0 else [s, replace(s, nbar_s=0.0)]
    scheds = [detection_schedule(params, r) for r in runs]
    clicks = _checked(_clicks(scheds, params, readout, opts, n_max, ("p_e",)))
    return _outcome(params, s, clicks[0].value, clicks[-1].value, _flags(clicks)), clicks[0].run


def detection_run(
    params: SystemParams,
    settings: DetectionSettings,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
) -> DetectionOutcome:
    """Single detection protocol run at one operating point.

    The dark count is the identical run with nbar_s = 0, batched with the
    signal run. With nbar_s = 0 this returns P_e = P_dark exactly and
    eta = nan. A drive outside the nesting condition raises
    LambdaModeError before anything propagates.
    """
    return _detect(params, settings, readout, opts, n_max)[0]


def detection_trace(
    params: SystemParams,
    settings: DetectionSettings,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
) -> tuple[DetectionOutcome, Trajectory]:
    """The outcome of ``detection_run`` together with the sampled trajectory
    of its signal run, which ends at the click (for --trace-out dumps)."""
    return _detect(params, settings, readout, opts, n_max)


def _click_rows(params, readout, opts, n_max, schedule, rows):
    """Consecutive drive powers of a map as one batch. A row is its own run
    (dark or no-reset), then its grid points, each built by ``schedule``.
    Returns per row the clicks (NaN where a column failed) and per column
    its failure message or Fock flag."""
    scheds = [schedule(params, s) for row in rows for s in row]
    labels = [label for row in rows for label in ("",) + ("p_e",) * (len(row) - 1)]
    clicks = iter(_clicks(scheds, params, readout, opts, n_max, labels))
    out = []
    for row in rows:
        row_clicks = [next(clicks) for _ in row]
        out.append(([c.value for c in row_clicks], [c.message for c in row_clicks]))
    return out


def _field_grid(outcomes, name):
    """One outcome field over the grid; failed points are NaN."""
    return np.array(
        [[math.nan if out is None else getattr(out, name) for out in row] for row in outcomes],
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
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
    workers: int = 1,
) -> EfficiencyMap:
    """Detection efficiency over a (P_d, omega_s) grid around ``base``.

    Each drive power is a row on one timeline: the dark run, shared by the
    row because it does not involve the signal, and one signal run per
    frequency. A block of consecutive rows propagates as one batch, and its
    clicks are those of each row alone. The eta > 0.5 band is the omega_s
    interval where the frequency cut at the best drive power stays above
    one half.
    """
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    rows = []
    for p in power_grid_dbm:
        dark = replace(base, rabi=params.rabi_of_dbm(p), omega_s=freq_grid[0], nbar_s=0.0)
        rows.append([dark] + [replace(dark, omega_s=f, nbar_s=base.nbar_s) for f in freq_grid])
    task = partial(_click_rows, params, readout, opts, n_max, detection_schedule)
    clicks, flags = fan_out(task, rows, len(freq_grid), workers, lead=1)
    # a successful click is finite: the sample log rejects non-finite states
    runs = [[None if math.isnan(c) else _outcome(params, s, c, row_clicks[0])
             for s, c in zip(row[1:], row_clicks[1:])] for row, row_clicks in zip(rows, clicks)]

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


def _scan_batch(params, readout, opts, n_max, nbar_values, base):
    """One pulse length of an efficiency scan as one batch: the dark run,
    shared by the points, then one signal run per nbar_s. A failed run
    raises, naming its t_s and nbar_s (0 for the dark run)."""
    runs = [replace(base, nbar_s=nbar) for nbar in (0.0, *nbar_values)]
    scheds = [detection_schedule(params, s) for s in runs]
    clicks = _clicks(scheds, params, readout, opts, n_max, ("",) + ("p_e",) * len(nbar_values))
    for s, click in zip(runs, clicks):
        if click.failed:
            raise IntegrationError(
                f"t_s = {s.t_s * 1e9:.0f} ns, nbar_s = {s.nbar_s} failed: {click.message}"
            )
    return [
        _outcome(params, s, c.value, clicks[0].value, _flags([c]))
        for s, c in zip(runs[1:], clicks[1:])
    ]


def efficiency_scan(
    params: SystemParams,
    base: DetectionSettings,
    t_s_values,
    nbar_values,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
    workers: int = 1,
) -> list[DetectionOutcome]:
    """eta over pulse lengths t_s and photon numbers nbar_s, with the drive
    length auto-adjusted per pulse length; the outcomes run over nbar_s
    within t_s. Each pulse length is one batch on its own timeline
    (``_scan_batch``), so pulse lengths are the unit of ``workers``. A
    failed run raises."""
    nbar_values = tuple(nbar_values)
    bases = [replace(base, t_s=t_s) for t_s in t_s_values]
    task = partial(_scan_batch, params, readout, opts, n_max, nbar_values)
    per_t_s = parallel_map(task, bases, workers, sizes=[len(nbar_values)] * len(bases))
    return [outcome for group in per_t_s for outcome in group]


def dark_counts(
    params: SystemParams,
    base: DetectionSettings,
    rabis,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
) -> list[DetectionOutcome]:
    """Dark runs (nbar_s = 0) of ``base`` at several drive amplitudes, as
    one batch: the amplitude does not change the timeline. A failed run
    raises its error."""
    runs = [replace(base, rabi=rabi, nbar_s=0.0) for rabi in rabis]
    scheds = [detection_schedule(params, s) for s in runs]
    clicks = _checked(_clicks(scheds, params, readout, opts, n_max, ("p_e",) * len(runs)))
    return [_outcome(params, s, c.value, None, _flags([c])) for s, c in zip(runs, clicks)]


def reset_run(
    params: SystemParams,
    settings: ResetSettings,
    with_initial_pi: bool = True,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
    detect_stage: float,
    readout_stage: float,
) -> ResetOutcome:
    """Reset protocol: optional instant pi pulse, then drive + reset tone.

    ``p_e_no_reset`` is the same run with the reset tone removed (pure T1
    decay under the drive); the two runs are one batch. A drive outside
    the nesting condition raises LambdaModeError, at any amplitude, before
    anything propagates. The period adds ``detect_stage`` (the detection
    settings' ``stage``) and ``readout_stage`` to the reset stage.
    """
    s = settings
    runs = [s, replace(s, nbar_rst=0.0)]
    scheds = [reset_schedule(params, r, with_initial_pi=with_initial_pi) for r in runs]
    clicks = _checked(_clicks(scheds, params, readout, opts, n_max, ("p_e",)))
    p_after, p_no_reset = (c.value for c in clicks)

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
        flags=_flags(clicks),
    )


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
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
    workers: int = 1,
) -> ResetMap:
    """P(|e>) after the reset over a (P_dr, omega_rst) grid around ``base``,
    with argmin. Each drive power is a row on one timeline: the no-reset
    baseline and one reset run per frequency. A block of consecutive rows
    propagates as one batch, and its clicks are those of each row alone."""
    power_grid_dbm, freq_grid = increasing_grids(power_grid_dbm, freq_grid)
    rows = []
    for p in power_grid_dbm:
        rabi_dr = params.rabi_of_dbm(p)
        no_reset = replace(base, rabi_dr=rabi_dr, omega_rst=freq_grid[0], nbar_rst=0.0)
        rows.append(
            [no_reset] + [replace(no_reset, omega_rst=f, nbar_rst=base.nbar_rst) for f in freq_grid]
        )
    task = partial(_click_rows, params, readout, opts, n_max, reset_schedule)
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


def _cycle_schedule(params, detection, reset):
    """The cycle as two stage schedules (first, second).

    The cycle is the reset stage up to its marker's time t0, then the
    detection stage from t0. Both schedules hold every tone, since pulse
    tails cross t0 (the reset drive and tone fall after it, the signal
    rises before it), and the cycle's events: the detection marker and the
    reset's pi pulse. The first is in the reset tone's frame, where the
    reset plateau is static, and ends at t0; the second, in the detection
    frame, runs from t0, and run from t = 0 on its own is the whole cycle
    in one frame, where the reset tone oscillates.
    """
    r_sched = reset_schedule(params, reset)
    t0 = r_sched.marker_times[-1]
    d_sched = detection_schedule(params, detection, start=t0)
    entries = r_sched.entries + d_sched.entries
    events = (d_sched.marker_times, r_sched.pi_times)
    return (
        PulseSchedule(entries, r_sched.frame, t0, *events),
        PulseSchedule(entries, d_sched.frame, d_sched.duration, *events),
    )


def full_cycle(
    params: SystemParams,
    detect: DetectionSettings,
    reset: ResetSettings,
    *,
    readout: ReadoutModel,
    opts: IntegratorOptions = IntegratorOptions(),
    n_max: int,
    readout_stage: float,
) -> CycleOutcome:
    """Reset stage followed by detection on the post-reset state.

    The cycle runs in two stages, each in its own frame (see
    ``_cycle_schedule``): up to the reset stage's readout marker in the
    reset tone's frame, where the reset plateau is static, then in the
    detection frame, where the signal is; at the marker the state changes
    frame exactly. The period uses the nominal stage bookkeeping (plateau
    plus one t_rise per edge, plus the readout budget). The cycle's signal and
    dark runs are one batch; the fresh detection, on its own timeline, is
    another. With nbar_s = 0 the signal run is the dark run: it runs once
    and eta_after_reset is NaN. With ``opts.fock_convergence`` the cycle
    click is re-read at n_max + 1; the flags hold that check and those of
    the fresh detection. A detection or reset drive outside the nesting
    condition raises LambdaModeError before anything propagates.
    """
    runs = [detect] if detect.nbar_s == 0 else [detect, replace(detect, nbar_s=0.0)]
    firsts, scheds = zip(*(_cycle_schedule(params, d, reset) for d in runs))
    clicks = _checked(_clicks(scheds, params, readout, opts, n_max, ("cycle_p_e",), firsts))
    cycle = _outcome(params, detect, clicks[0].value, clicks[-1].value)
    fresh = detection_run(params, detect, readout=readout, opts=opts, n_max=n_max)

    period = detect.stage + readout_stage + reset.stage
    return CycleOutcome(
        eta_after_reset=cycle.eta,
        eta_fresh=fresh.eta,
        p_e_after_reset=cycle.p_dark,
        period=period,
        rate=1.0 / period,
        flags=_flags(clicks) + fresh.flags,
    )
