"""Self-test of the benchmark harness: span arithmetic, patching, counters,
the reference integrator, workload generation and BENCHMARK.json. Runs in a
few seconds with the rest of the test suite."""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import reference
import tracer
import workloads
from lambdadet import dynamics, protocols
from lambdadet.config import parse_config
from lambdadet.dynamics import IntegratorOptions, mixed_initial_state
from lambdadet.hilbert import build_space, qubit_lowering
from lambdadet.model import Frame
from lambdadet.pulses import KIND_RECT, ROLE_DRIVE, PulseEnvelope, PulseSchedule

TWO_PI = 2.0 * math.pi


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 7.0, 0],
    ]
    stats = tracer.layer_stats(spans)
    assert stats["outer"]["self_s"] == 5.0
    assert stats["inner"]["self_s"] == 4.0 and stats["inner"]["calls"] == 2
    assert stats["leaf"]["self_s"] == 1.0


def _rabi_problem():
    params = dataclasses.replace(parse_config("").params, gamma=0.0, init_excited_pop=0.0,
                                 drive_dephasing_per_rabi2=0.0)
    space = build_space(1)
    frame = Frame(params.omega_ge, params.omega_r)
    rabi, duration = TWO_PI * 20e6, 20e-9
    drive = PulseEnvelope(KIND_RECT, duration / 2, duration, 0.0, rabi, params.omega_ge)
    sched = PulseSchedule(((ROLE_DRIVE, drive),), frame, duration)
    return params, space, frame, rabi, sched


def test_tracer_wraps_where_names_are_looked_up_and_restores():
    original = dynamics.propagate
    params, space, frame, _, sched = _rabi_problem()
    t = tracer.Tracer()
    t.install()
    try:
        assert protocols.propagate is dynamics.propagate is not original
        opts = IntegratorOptions(max_step=0.5e-9, sample_dt=3e-9)
        traj = dynamics.propagate(mixed_initial_state(space, 0.0, frame), sched, params, opts)
    finally:
        t.uninstall()
    assert protocols.propagate is dynamics.propagate is original
    names = [s[0] for s in t.spans]
    assert names == ["dynamics.propagate", "dynamics.liouvillian"]
    assert t.spans[1][3] == 0  # liouvillian's parent is the propagate span
    steps = t.counts["dynamics.rk4_steps"]
    assert steps >= round(20e-9 / 0.5e-9)
    # a single envelope at zero detuning is evaluated once per RHS evaluation
    assert t.counts["pulses.envelope_evals"] == t.counts["dynamics.rhs_evals"] == 4 * steps
    assert t.counts["dynamics.samples"] == len(traj.times)


def test_reference_integrator_closed_forms():
    _, space, _, rabi, _ = _rabi_problem()
    sm = qubit_lowering(space)
    times = np.linspace(0.0, 100e-9, 6)

    rho0 = np.zeros((space.dim, space.dim), complex)
    rho0[0, 0] = 1.0
    x_q = sm + sm.conj().T
    rho = reference.integrate(rho0, lambda t: 0.5 * rabi * x_q, lambda t: [], times)
    assert abs(reference.excited_population(rho) - math.sin(rabi * 100e-9 / 2) ** 2) < 1e-9

    gamma = TWO_PI * 1e6
    rho0 = np.zeros((space.dim, space.dim), complex)
    rho0[1, 1] = 1.0
    zero = np.zeros((space.dim, space.dim), complex)
    rho = reference.integrate(rho0, lambda t: zero, lambda t: [(sm, gamma)], times)
    assert abs(reference.excited_population(rho) - math.exp(-gamma * 100e-9)) < 1e-10


def test_workloads_are_seeded_and_hold_the_operating_points():
    for seed in range(12):
        pulsed = workloads.pulsed_maps(seed)
        assert pulsed == workloads.pulsed_maps(seed)
        assert -75.5 in pulsed.choice["detect_pd_dBm"]
        assert 10.268 in pulsed.choice["detect_freq_GHz"]
        assert -72.0 in pulsed.choice["reset_pd_dBm"]
        assert 10.162 in pulsed.choice["reset_freq_GHz"]
        cfg = parse_config(pulsed.config_text)
        assert len(cfg.get("detect_pd_grid").values()) == workloads.DETECT_WINDOW
        cw = workloads.cw_spectroscopy(seed)
        assert 47.0 <= cw.choice["delta_drive_MHz"] <= 51.0
        assert workloads.single_cycle(seed).operations == 3
    assert workloads.pulsed_maps(0).operations == 13
    assert workloads.cw_spectroscopy(0).operations == 19 * 21 + 2


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer = set(tracer.layer_metrics([], Counter(), 1))
    layer |= {"lambdadet.import_s", "config.parse_config.self_s",
              "dressed.fit_drive_calibration.self_s", "trace.untraced_wall_s",
              "trace.overhead_pct"}
    assert {m["name"] for m in bench["per_layer"]} == layer
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
