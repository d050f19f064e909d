"""The benchmark's workloads: the config a seed makes and the CLI tasks of one round.

The seed only picks operating points inside fixed ranges. Every choice leaves
the amount of work the same: fixed-step RK4 takes the same steps at any drive
power or frequency, and each steady-state solve is one dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# default lambdadet grids: (first node, step, node count, node of the paper's operating point)
DETECT_POWER = (-78.0, 0.5, 11, 5)  # dBm; -75.5 dBm
DETECT_FREQ = (10.248, 0.004, 11, 5)  # GHz; 10.268 GHz
RESET_POWER = (-74.5, 0.5, 10, 5)  # dBm; -72.0 dBm
RESET_FREQ = (10.150, 0.003, 9, 4)  # GHz; 10.162 GHz
DETECT_WINDOW = 3
RESET_WINDOW = 2
REFLECT_SHAPE = (19, 21)  # default reflect_pd_grid x reflect_freq_grid


@dataclass(frozen=True)
class Task:
    """One CLI task of a round: a ``cli.run_sweep`` task or ``render``.

    ``points`` > 0 marks a grid task: each grid point is one operation, and
    a NaN in ``point_column`` of its CSV marks the point as failed.
    """

    command: str
    output: str
    points: int = 0
    point_column: str = ""
    trace_out: bool = False
    render_args: tuple = ()  # (csv, x column, y column, z column)


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    tasks: tuple
    choice: dict  # what the seed selected

    @property
    def operations(self) -> int:
        return sum(t.points or 1 for t in self.tasks)


def _window(axis, size, offset):
    """``size`` consecutive nodes of a default grid axis, holding the
    operating-point node at position ``size - 1 - offset``."""
    first, step, count, op_node = axis
    lo = op_node - (size - 1 - offset)
    if not (0 <= lo and lo + size <= count):
        raise ValueError("window leaves the default grid")
    nodes = [round(first + step * k, 6) for k in range(lo, lo + size)]
    return f"{nodes[0]!r},{nodes[-1]!r},{size}", nodes


def pulsed_maps(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    det_p, det_p_nodes = _window(DETECT_POWER, DETECT_WINDOW, int(rng.integers(DETECT_WINDOW)))
    det_f, det_f_nodes = _window(DETECT_FREQ, DETECT_WINDOW, int(rng.integers(DETECT_WINDOW)))
    rst_p, rst_p_nodes = _window(RESET_POWER, RESET_WINDOW, int(rng.integers(RESET_WINDOW)))
    rst_f, rst_f_nodes = _window(RESET_FREQ, RESET_WINDOW, int(rng.integers(RESET_WINDOW)))
    text = (
        f"detect_pd_grid_dBm = {det_p}\n"
        f"detect_freq_grid_GHz = {det_f}\n"
        f"reset_pd_grid_dBm = {rst_p}\n"
        f"reset_freq_grid_GHz = {rst_f}\n"
    )
    check_point = (int(rng.integers(DETECT_WINDOW)), int(rng.integers(DETECT_WINDOW)))
    return Workload(
        "pulsed_maps",
        text,
        (
            Task("detect-map", "detect_map.csv", DETECT_WINDOW**2, "eta"),
            Task("reset-map", "reset_map.csv", RESET_WINDOW**2, "p_e"),
        ),
        {
            "detect_pd_dBm": det_p_nodes,
            "detect_freq_GHz": det_f_nodes,
            "reset_pd_dBm": rst_p_nodes,
            "reset_freq_GHz": rst_f_nodes,
            "reference_point": check_point,
        },
    )


def cw_spectroscopy(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    delta = round(float(rng.uniform(47.0, 51.0)), 3)
    check_point = tuple(int(rng.integers(n)) for n in REFLECT_SHAPE)
    return Workload(
        "cw_spectroscopy",
        f"delta_drive_MHz = {delta!r}\n",
        (
            Task("reflect-map", "reflect_map.csv", REFLECT_SHAPE[0] * REFLECT_SHAPE[1], "abs_r"),
            Task("calibrate", "calibrate.csv"),
            Task(
                "render",
                "reflect_map.svg",
                render_args=("reflect_map.csv", "P_d_dBm", "omega_s_GHz", "abs_r_dB"),
            ),
        ),
        {"delta_drive_MHz": delta, "reference_point": check_point},
    )


def single_cycle(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    drive = round(-75.5 + float(rng.uniform(-0.2, 0.2)), 3)
    signal = round(10.268 + float(rng.uniform(-0.001, 0.001)), 6)
    reset_power = round(-72.1 + float(rng.uniform(-0.2, 0.2)), 3)
    reset_freq = round(10.162 + float(rng.uniform(-0.001, 0.001)), 6)
    return Workload(
        "single_cycle",
        f"drive_power_dBm = {drive!r}\n"
        f"signal_freq_GHz = {signal!r}\n"
        f"reset_power_dBm = {reset_power!r}\n"
        f"reset_freq_GHz = {reset_freq!r}\n",
        (
            Task("detect", "detect.csv", trace_out=True),
            Task("reset", "reset.csv"),
            Task("cycle", "cycle.csv"),
        ),
        {
            "drive_power_dBm": drive,
            "signal_freq_GHz": signal,
            "reset_power_dBm": reset_power,
            "reset_freq_GHz": reset_freq,
        },
    )


WORKLOADS = {w.__name__: w for w in (pulsed_maps, cw_spectroscopy, single_cycle)}
