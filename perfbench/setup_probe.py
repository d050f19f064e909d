"""One timed set-up in a fresh interpreter: import lambdadet, parse a config,
fit the dBm calibration.

    python3 perfbench/setup_probe.py SRC_DIR < config.txt

Prints one JSON object with the three times in seconds and the fitted
calibration constant. A fresh interpreter pays the numpy and scipy imports
in full, as every CLI invocation does.
"""

import json
import sys
import time


def main():
    text = sys.stdin.read()
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    import lambdadet

    t1 = time.perf_counter()
    cfg = lambdadet.parse_config(text)
    t2 = time.perf_counter()
    constant = lambdadet.fit_drive_calibration(
        cfg.params, cfg.omega_d, cfg.get("calibration_anchor")
    )
    t3 = time.perf_counter()
    print(json.dumps({
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "fit_s": t3 - t2,
        "setup_s": t3 - t0,
        "drive_power_to_rabi": constant,
        "module": lambdadet.__file__,
    }))


if __name__ == "__main__":
    main()
