import dataclasses

import numpy as np
import pytest

from lambdadet.config import parse_config
from lambdadet.dressed import fit_drive_calibration
from lambdadet.pulses import DetectionSettings, ResetSettings

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def cfg():
    return parse_config("")


@pytest.fixture(scope="session")
def params(cfg):
    """Bundled device constants with the fitted dBm calibration."""
    base = cfg.params
    return base.with_calibration(fit_drive_calibration(base))


@pytest.fixture(scope="session")
def omega_d(cfg):
    return cfg.omega_d


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
    """The paper's detection point: -75.5 dBm, 85 ns, nbar_s = 0.1."""
    return DetectionSettings(
        rabi=params.rabi_of_dbm(-75.5),
        omega_s=cfg.get("signal_freq"),
        t_s=85e-9,
        nbar_s=0.1,
        omega_d=cfg.omega_d,
    )


@pytest.fixture(scope="session")
def reset(params, cfg):
    """The paper's reset point: -72.1 dBm, 43 photons over 380 ns."""
    return ResetSettings(
        rabi_dr=params.rabi_of_dbm(-72.1),
        omega_rst=cfg.get("reset_freq"),
        nbar_rst=43.0,
        t_dr=380e-9,
        omega_d=cfg.omega_d,
    )
