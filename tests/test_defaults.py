"""The config key table is the one home of the readout model and the Fock
cutoff: no library signature holds a copy of them, and a library run at the
table's values gives what the CLI gives."""

import dataclasses
import inspect

import pytest

from lambdadet import cli, protocols, response
from lambdadet.protocols import ReadoutModel, detection_run

TABLE_ARGUMENTS = ("n_max", "readout")


def _public_functions(module):
    return {
        name: fn for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


@pytest.mark.parametrize(
    "module, takers",
    [
        (protocols, {"detection_run", "detection_trace", "efficiency_map", "efficiency_scan",
                     "dark_counts", "reset_run", "reset_map", "full_cycle"}),
        (response, {"reflection_row", "reflection_coefficient", "dip_map", "pdiff_spectrum",
                    "calibrate_signal_power"}),
    ],
)
def test_no_public_function_defaults_a_table_argument(module, takers):
    """``takers`` take the cutoff, and none of them, nor any other public
    function of the module, gives it or the readout model a default."""
    functions = _public_functions(module)
    assert takers <= {name for name, fn in functions.items()
                      if "n_max" in inspect.signature(fn).parameters}
    copies = [
        f"{name}({p.name}={p.default!r})"
        for name, fn in functions.items()
        for p in inspect.signature(fn).parameters.values()
        if p.name in TABLE_ARGUMENTS and p.default is not p.empty
    ]
    assert copies == []


def test_readout_model_has_no_field_defaults():
    assert [
        f.name for f in dataclasses.fields(ReadoutModel)
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ] == []


def test_library_detection_run_gives_the_cli_outcome(
    params, detect, readout, n_max, cfg, tmp_path, monkeypatch
):
    """``detection_run`` at the conftest fixtures gives, bit for bit, the
    outcome of the CLI's ``detect`` task on the default config."""
    outcomes = []

    def recorded(*args, **kwargs):
        outcomes.append(detection_run(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(cli, "detection_run", recorded)
    assert cli.run_sweep(cfg, "detect", out_dir=tmp_path) == 0
    assert outcomes == [detection_run(params, detect, readout=readout, n_max=n_max)]
