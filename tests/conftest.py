import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from lambdadet.config import parse_config
from lambdadet.dressed import fit_drive_calibration

# perfbench/reference.py, the matrix-form oracle outside the package, is a
# reference for tests too
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def cfg():
    return parse_config("")


@pytest.fixture(scope="session")
def params(cfg):
    """The config's device constants with the dBm calibration the CLI fits."""
    base = cfg.params
    return base.with_calibration(
        fit_drive_calibration(base, cfg.omega_d, cfg.get("calibration_anchor"))
    )


@pytest.fixture(scope="session")
def omega_d(cfg):
    return cfg.omega_d


@pytest.fixture(scope="session")
def pdiff_omega_d(cfg):
    """The drive of the P_diff calibration, as the CLI's ``calibrate`` runs
    it: 46 MHz below omega_ge."""
    return cfg.get("omega_ge") - cfg.get("pdiff_delta_drive")


@pytest.fixture(scope="session")
def clean_params(params):
    """Device without initialization floor or drive-line noise."""
    return dataclasses.replace(
        params,
        init_excited_pop=0.0,
        drive_noise_per_rabi2=0.0,
        drive_dephasing_per_rabi2=0.0,
    )


@pytest.fixture(scope="session")
def detect(params, cfg):
    """The paper's detection point, as the CLI runs it: -75.5 dBm, 85 ns,
    nbar_s = 0.1."""
    return cfg.detection_settings(params)


@pytest.fixture(scope="session")
def reset(params, cfg):
    """The paper's reset point, as the CLI runs it: -72.1 dBm, 43 photons
    over 380 ns."""
    return cfg.reset_settings(params)


@pytest.fixture(scope="session")
def readout_stage(cfg):
    """The readout budget of the repetition rate (140 ns)."""
    return cfg.get("readout_budget")


@pytest.fixture(scope="session")
def readout(cfg):
    """The config's readout model, as the CLI reads the click with it: no
    assignment errors, a 100 ns latch."""
    return cfg.readout_model()


@pytest.fixture(scope="session")
def n_max(cfg):
    """The config's Fock cutoff, as the CLI runs it."""
    return cfg.get("n_max")
