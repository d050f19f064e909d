import dataclasses

import numpy as np
import pytest

from lambdadet.config import GridSpec, parse_config, serialize_config
from lambdadet.dynamics import IntegratorOptions
from lambdadet.errors import ConfigError

TWO_PI = 2.0 * np.pi


def test_empty_file_gives_device_defaults():
    cfg = parse_config("")
    p = cfg.params
    assert p.omega_ge == pytest.approx(TWO_PI * 5.508e9)
    assert p.omega_r == pytest.approx(TWO_PI * 10.256e9)
    assert p.chi == pytest.approx(TWO_PI * 34.5e6)
    assert p.kappa_ext_ratio == 0.964
    assert p.init_excited_pop == 0.008
    assert cfg.get("delta_drive") == pytest.approx(TWO_PI * 49e6)
    assert cfg.get("t_s") == pytest.approx(85e-9)
    assert cfg.get("nbar_rst") == 43.0


def test_integrator_defaults_have_one_source():
    """An empty config runs at ``IntegratorOptions()``, to the last bit of
    ``max_step``."""
    assert parse_config("").integrator_options() == IntegratorOptions()


def test_saved_default_config_runs_at_the_default_step():
    """A serialized default config reads back as the defaults, every key to
    the last bit: it is the only file form of the key table. It writes
    ``max_step_ns = 0.25``, and 0.25 x 1e-9 is 1e-9 scaled by a power of
    two, so it is exactly the default 0.25e-9 (0.1 x 1e-9 was one ulp above
    0.1e-9)."""
    defaults = parse_config("")
    saved = parse_config(serialize_config(defaults))
    assert saved.integrator_options() == IntegratorOptions()
    assert [k for k, v in defaults.values.items() if saved.get(k) != v] == []


def test_integrator_options_hold_only_the_rk4_controls():
    names = [f.name for f in dataclasses.fields(IntegratorOptions)]
    assert names == ["max_step", "sample_dt", "fock_convergence"]
    assert IntegratorOptions().method == "fixed_rk4"
    with pytest.raises(TypeError):
        IntegratorOptions(method="adaptive_rk45")


@pytest.mark.parametrize("name", ["max_step", "sample_dt"])
def test_integrator_steps_must_be_positive_numbers(name):
    for bad in (0.0, -1e-10, float("nan")):
        with pytest.raises(ValueError, match=name):
            IntegratorOptions(**{name: bad})


def test_time_key_round_trip():
    cfg = parse_config("t_s_ns = 85\n")
    assert cfg.get("t_s") == pytest.approx(85e-9)


def test_si_stem_key():
    cfg = parse_config("t_s = 8.5e-8\nomega_ge = 3.4606e10\n")
    assert cfg.get("t_s") == pytest.approx(85e-9)
    assert cfg.get("omega_ge") == pytest.approx(3.4606e10)


def test_range_error_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("# comment\nkappa_ext_ratio = 1.2\n")
    assert "line 2" in str(err.value)
    assert "kappa_ext_ratio" in str(err.value)


def test_unknown_key_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("flux_capacitance = 1\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text", ["t_s_ns = 85\nt_s_ns = 90\n",
                                  "omega_ge_GHz = 5.5\nomega_ge = 1e10\n"])
def test_key_set_twice_names_both_lines(text):
    """A second setting of a key, under the same spelling or another, is an
    error on its line that names the first."""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    canonical = text.split(" ", 1)[0]
    assert str(err.value) == f"line 2: {canonical} is already set on line 1"


def test_unit_suffix_mismatch_hint():
    with pytest.raises(ConfigError) as err:
        parse_config("t_s_GHz = 85\n")
    assert "unit-suffix mismatch" in str(err.value)


def test_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("just words\n")
    with pytest.raises(ConfigError):
        parse_config("t_s_ns = banana\n")


def test_grid_parsing():
    cfg = parse_config("detect_pd_grid_dBm = -78,-73,6\n")
    grid = cfg.get("detect_pd_grid")
    assert grid == GridSpec(-78.0, -73.0, 6)
    assert len(grid.values()) == 6
    with pytest.raises(ConfigError):
        parse_config("detect_pd_grid_dBm = -78,-73,1\n")
    with pytest.raises(ConfigError):
        parse_config("detect_pd_grid_dBm = -78,-73\n")


def test_non_increasing_grid_names_its_line():
    for raw in ("detect_pd_grid_dBm = -73,-78,3", "reflect_pd_grid_dBm = -72,-72,2"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# comment\n{raw}\n")
        assert "line 2" in str(err.value)
        assert "strictly increasing" in str(err.value)


@pytest.mark.parametrize("raw, key", [("ts_list_ns =", "ts_list_ns"),
                                      ("nbar_list = ,", "nbar_list")])
def test_empty_list_names_its_key_and_line(raw, key):
    """A list key needs at least one value: an empty scan has no best point
    and no rows."""
    with pytest.raises(ConfigError) as err:
        parse_config(f"# comment\n{raw}\n")
    assert "line 2" in str(err.value)
    assert key in str(err.value)


def test_log_grid():
    cfg = parse_config("nbar_list = 0.1,1,10\n")
    assert cfg.get("nbar_list") == (0.1, 1.0, 10.0)
    grid = parse_config("dressed_pd_grid_dBm = 1,100,3,log\n").get("dressed_pd_grid")
    assert np.allclose(grid.values(), [1.0, 10.0, 100.0])


def test_serialize_idempotent():
    text = "t_s_ns = 55\nnbar_s = 0.3\nworkers = 2\n"
    once = serialize_config(parse_config(text))
    twice = serialize_config(parse_config(once))
    assert once == twice
    assert "t_s_ns = 55" in once
    assert parse_config(once).get("t_s") == pytest.approx(55e-9)


def test_invariants():
    with pytest.raises(ConfigError):
        parse_config("workers = 0\n")
    with pytest.raises(ConfigError):
        parse_config("n_max = 0\n")
    with pytest.raises(ConfigError):
        parse_config("readout_eps_ge = 0.5\n")
