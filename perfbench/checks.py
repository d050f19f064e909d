"""Output checks run after the timed rounds, against computations made apart
from the program (``reference``) and against properties the method or the
paper fixes. Nothing here compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np

import reference
from workloads import REFLECT_SHAPE

REFERENCE_TOL = 1e-6  # |program - DOP853 reference| on click probabilities and eta
ETA_PAPER = (0.66, 0.08)
P_DARK_PAPER = (0.014, 0.005)
P_DARK_POWER_DBM = -75.5
RESET_P_E_MAX = 0.03
NO_RESET_BASELINE = (0.49, 0.05)
CYCLE_PERIOD_PAPER = 757.5e-9
PDIFF_TARGET_DB = 6.0
PDIFF_TOL_DB = 0.05  # calibrate_signal_power's default tol_db
WEAK_PROBE_GAMMA_FRACTION = 1e-3  # the documented weak-probe flux, 1e-3 gamma


class Checks:
    def __init__(self):
        self.results = []

    def expect(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def near(self, name, value, target, tol):
        self.expect(name, abs(value - target) <= tol, f"{value:.9g} vs {target:.9g} +- {tol:.3g}")


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text  # the flags column


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _clean(params):
    return dataclasses.replace(
        params, init_excited_pop=0.0, drive_noise_per_rabi2=0.0, drive_dephasing_per_rabi2=0.0
    )


def _reference_detection(cfg, params, p_dbm, omega_s):
    """(P_e, P_dark, eta) of one detection run by the DOP853 reference."""
    readout = cfg.readout_model()
    kw = dict(
        rabi=params.rabi_of_dbm(p_dbm),
        omega_d=cfg.omega_d,
        omega_s=omega_s,
        t_s=cfg.get("t_s"),
        t_rise=cfg.get("t_rise"),
        latch_delay=readout.latch_delay,
        n_max=cfg.get("n_max"),
        eps_ge=readout.eps_ge,
        eps_eg=readout.eps_eg,
    )
    nbar = cfg.get("nbar_s")
    p_e = reference.detection_click(params, nbar_s=nbar, **kw)
    p_dark = reference.detection_click(params, nbar_s=0.0, **kw)
    return p_e, p_dark, (p_e - p_dark) / (1.0 - math.exp(-nbar))


def _compare_detection(checks, label, row, ref):
    for key, value in zip(("p_e", "p_dark", "eta"), ref):
        checks.near(f"{label} {key} matches the DOP853 reference", row[key], value, REFERENCE_TOL)


def closed_forms(checks, params):
    """The program's propagator on two problems with closed-form answers."""
    from lambdadet.dynamics import IntegratorOptions, mixed_initial_state, propagate
    from lambdadet.hilbert import build_space
    from lambdadet.model import Frame
    from lambdadet.pulses import KIND_RECT, ROLE_DRIVE, PulseEnvelope, PulseSchedule

    clean = _clean(params)
    space = build_space(1)
    frame = Frame(clean.omega_ge, clean.omega_r)
    traj = propagate(
        mixed_initial_state(space, 1.0, frame), PulseSchedule((), frame, 300e-9), clean,
        IntegratorOptions(),
    )
    err = float(np.max(np.abs(traj.p_excited - np.exp(-clean.gamma * traj.times))))
    checks.expect("free decay P_e = exp(-gamma t)", err < 1e-8, f"max error {err:.2e}")

    lossless = dataclasses.replace(clean, gamma=0.0)
    rabi, duration = 2 * math.pi * 20e6, 100e-9
    drive = PulseEnvelope(KIND_RECT, duration / 2, duration, 0.0, rabi, lossless.omega_ge)
    traj = propagate(
        mixed_initial_state(space, 0.0, frame),
        PulseSchedule(((ROLE_DRIVE, drive),), frame, duration), lossless, IntegratorOptions(),
    )
    err = float(np.max(np.abs(traj.p_excited - np.sin(rabi * traj.times / 2) ** 2)))
    checks.expect("resonant Rabi P_e = sin^2(Omega t / 2)", err < 1e-7, f"max error {err:.2e}")


def _period_by_hand(cfg):
    """Stage bookkeeping: each stage is its plateau plus one t_rise per edge;
    the detection plateau is 1.5 t_s + 50 ns; the readout adds its budget."""
    t_rise = cfg.get("t_rise")
    detect = reference.DRIVE_SLOPE * cfg.get("t_s") + reference.DRIVE_OFFSET + 2 * t_rise
    reset = cfg.get("t_dr") + 2 * t_rise
    return detect + reset + cfg.get("readout_budget")


def check_pulsed_maps(workload, cfg, params, out_dir):
    checks = Checks()
    det = read_rows(out_dir / "detect_map.csv")
    checks.expect("detect_map has every grid point", len(det) == workload.tasks[0].points)
    eta_max = max(r["eta"] for r in det)
    checks.near("eta_max within the paper's 0.66 +- 0.08", eta_max, *ETA_PAPER)
    dark = [r["p_dark"] for r in det if r["p_d_dbm"] == P_DARK_POWER_DBM]
    checks.expect("detect_map holds the -75.5 dBm row", len(dark) > 0)
    worst = max(dark, key=lambda v: abs(v - P_DARK_PAPER[0]))
    checks.near("P_dark at -75.5 dBm within 0.014 +- 0.005", worst, *P_DARK_PAPER)

    i, j = workload.choice["reference_point"]
    freqs = cfg.get("detect_freq_grid").values()
    p_dbm = cfg.get("detect_pd_grid").values()[i]
    ref = _reference_detection(cfg, params, p_dbm, freqs[j])
    _compare_detection(checks, f"detect_map point ({i}, {j})", det[i * len(freqs) + j], ref)

    rst = read_rows(out_dir / "reset_map.csv")
    checks.expect("reset_map has every grid point", len(rst) == workload.tasks[1].points)
    best = min(rst, key=lambda r: r["p_e"])
    checks.expect("reset_map min P_e <= 0.03", best["p_e"] <= RESET_P_E_MAX, f"{best['p_e']:.4g}")
    worst = max((r["p_e_no_reset"] for r in rst), key=lambda v: abs(v - NO_RESET_BASELINE[0]))
    checks.near("no-reset baseline within 0.49 +- 0.05", worst, *NO_RESET_BASELINE)
    closed_forms(checks, params)
    return checks


def check_single_cycle(workload, cfg, params, out_dir):
    checks = Checks()
    (det,) = read_rows(out_dir / "detect.csv")
    ref = _reference_detection(cfg, params, cfg.get("drive_power"), cfg.get("signal_freq"))
    _compare_detection(checks, "detect", det, ref)
    checks.near("detect eta within the paper's 0.66 +- 0.08", det["eta"], *ETA_PAPER)
    checks.near("detect P_dark within 0.014 +- 0.005", det["p_dark"], *P_DARK_PAPER)

    trace = read_rows(out_dir / "detect_trace.csv")
    times = np.array([r["t_s"] for r in trace])
    t_click = reference.detection_timeline(
        cfg.get("t_s"), cfg.get("t_rise"), cfg.get("readout_latch")
    )[-1]
    checks.expect("trace times increase", bool(np.all(np.diff(times) > 0)))
    checks.near("trace ends at the click time", times[-1], t_click, 1e-9 * t_click)
    checks.near("trace P_e at the click equals detect P_e", trace[-1]["p_e"], det["p_e"], 1e-12)
    worst = max(r["trace_error"] for r in trace)
    checks.expect("trace error <= 1e-6 at every sample", worst <= 1e-6, f"{worst:.2e}")
    checks.expect(
        "trace P_e within [0, 1]", all(-1e-9 <= r["p_e"] <= 1 + 1e-9 for r in trace)
    )

    period = _period_by_hand(cfg)
    checks.near("stage bookkeeping gives the paper's 757.5 ns", period, CYCLE_PERIOD_PAPER, 1e-15)
    (rst,) = read_rows(out_dir / "reset.csv")
    checks.expect("reset P_e <= 0.03", rst["p_e_after_reset"] <= RESET_P_E_MAX,
                  f"{rst['p_e_after_reset']:.4g}")
    checks.near("no-reset baseline within 0.49 +- 0.05", rst["p_e_no_reset"], *NO_RESET_BASELINE)
    (cyc,) = read_rows(out_dir / "cycle.csv")
    checks.near("eta after reset within 0.66 +- 0.08", cyc["eta_after_reset"], *ETA_PAPER)
    for label, row in (("reset", rst), ("cycle", cyc)):
        checks.near(f"{label} period equals the stage bookkeeping", row["period"], period, 1e-8 * period)
        checks.near(f"{label} rate = 1 / period", row["rate"] * period, 1.0, 1e-8)
    closed_forms(checks, params)
    return checks


def check_cw_spectroscopy(workload, cfg, params, out_dir):
    from lambdadet.response import calibration_params, pdiff_spectrum, reflection_coefficient

    checks = Checks()
    rows = read_rows(out_dir / "reflect_map.csv")
    n_p, n_f = REFLECT_SHAPE
    checks.expect("reflect_map has every grid point", len(rows) == n_p * n_f)
    worst = max(r["abs_r"] for r in rows)
    checks.expect("|r| <= 1 everywhere", worst <= 1.0 + 1e-6, f"max |r| = {worst:.9g}")

    i, j = workload.choice["reference_point"]
    p_dbm = cfg.get("reflect_pd_grid").values()[i]
    omega_s = cfg.get("reflect_freq_grid").values()[j]
    r_ref, gap = reference.reflection(
        params,
        omega_d=cfg.omega_d,
        rabi=params.rabi_of_dbm(p_dbm),
        omega_s=omega_s,
        probe_amp=math.sqrt(WEAK_PROBE_GAMMA_FRACTION * params.gamma),
        n_max=cfg.get("n_max"),
    )
    row = rows[i * n_f + j]
    checks.expect(f"point ({i}, {j}) has a unique steady state", gap < 1e-8, f"sigma ratio {gap:.1e}")
    checks.near(f"point ({i}, {j}) |r| matches the SVD null vector", row["abs_r"], abs(r_ref),
                1e-8 + 1e-6 * abs(r_ref))
    checks.near(f"point ({i}, {j}) arg r matches the SVD null vector", row["arg_r"],
                math.atan2(r_ref.imag, r_ref.real), 1e-6)

    clean = _clean(params)
    r_empty = reflection_coefficient(clean, cfg.omega_d, 0.0, clean.omega_r, n_max=cfg.get("n_max"))
    one_port = (clean.kappa_ext - clean.kappa_int) / clean.kappa
    checks.near("empty cavity r = (kappa_ext - kappa_int) / kappa", r_empty.real, one_port, 1e-6)
    checks.near("empty cavity r is real", r_empty.imag, 0.0, 1e-6)

    (cal,) = read_rows(out_dir / "calibrate.csv")
    checks.near("calibrate P_diff within tol_db of 6.0 dB", cal["p_diff_db"], PDIFF_TARGET_DB, PDIFF_TOL_DB)
    pdiff = pdiff_spectrum(
        calibration_params(params, cfg.get("gamma_calibration")),
        params.omega_ge - cfg.get("pdiff_delta_drive"),
        cal["p_s_dbm"],
        power_halfspan_db=8.0,  # the window calibrate_signal_power uses
        power_points=33,
        n_max=cfg.get("n_max"),
    )
    checks.near("pdiff_spectrum at the calibrated power within tol_db of 6.0 dB",
                pdiff.p_diff_db, PDIFF_TARGET_DB, PDIFF_TOL_DB)

    svg = ET.parse(out_dir / "reflect_map.svg").getroot()
    cells = [e for e in svg.iter() if e.tag.endswith("rect")]
    checks.expect("SVG holds one cell per grid point", len(cells) == 1 + n_p * n_f + 64,
                  f"{len(cells)} rects")
    return checks


CHECKS = {
    "pulsed_maps": check_pulsed_maps,
    "cw_spectroscopy": check_cw_spectroscopy,
    "single_cycle": check_single_cycle,
}
