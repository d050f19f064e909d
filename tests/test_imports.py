"""What a fresh interpreter loads to import lambdadet and set up a run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lambdadet

SRC = str(Path(lambdadet.__file__).resolve().parent.parent)

SETUP = """
import json, sys
import lambdadet
cfg = lambdadet.parse_config("")
lambdadet.fit_drive_calibration(cfg.params, cfg.omega_d, cfg.get("calibration_anchor"))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_setup_loads_no_scipy():
    """Import, config parse and dBm fit load no scipy module: scipy.sparse
    loads at the first propagation and scipy.optimize in the signal-power
    calibration. A module-level scipy import anywhere in the package fails
    this test."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SETUP], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == []
