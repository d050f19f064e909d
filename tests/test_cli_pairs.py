"""tools/cli_pairs.py: a real pair run of the fast `dressed` task, and the
tool's bookkeeping on stand-in runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def cli_pairs():
    sys.path.insert(0, str(TOOLS))  # cli_pairs imports bench_pairs' helpers
    try:
        spec = importlib.util.spec_from_file_location("cli_pairs", TOOLS / "cli_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def test_dressed_pairs(cli_pairs, tmp_path):
    """Both sides are this checkout: every pair writes the same dressed.csv."""
    out = tmp_path / "cli.json"
    assert cli_pairs.main(["--parent", str(TOOLS.parent), "--change", str(TOOLS.parent),
                           "--pairs", "2", "--out", str(out), "dressed"]) == 0
    task = json.loads(out.read_text())["tasks"]["dressed"]
    assert [e["first"] for e in task["pairs"]] == ["parent", "change"]
    for entry in task["pairs"]:
        assert entry["outputs"] == ["dressed.csv"] and entry["outputs_identical"]
        for side in ("parent", "change"):
            assert entry[side]["wall_s"] > 0 and entry[side]["cpu_s"] > 0
            assert entry[side]["peak_rss_mb"] > 0
    assert task["outputs_identical_in_pairs"] == "2/2"
    assert set(task["summary"]) == {"wall_s", "cpu_s", "peak_rss_mb"}
    assert task["summary"]["wall_s"]["bound"] == 0.25
    assert task["summary"]["peak_rss_mb"]["bound"] == 0.1


def test_a_failed_run_stops_the_pairs(cli_pairs, tmp_path):
    checkouts = {"parent": TOOLS.parent, "change": TOOLS.parent}
    with pytest.raises(SystemExit) as exc:
        cli_pairs.pairs(checkouts, "no-such-task", 2, tmp_path)
    message = str(exc.value)
    assert message.startswith("'no-such-task' pair 0, parent: exit code 2\n")
    assert "invalid choice" in message


def test_fewer_than_two_pairs_are_rejected_before_any_run(cli_pairs, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("no CLI run was expected")

    monkeypatch.setattr(cli_pairs, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        cli_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--pairs", "1",
                        "--out", str(tmp_path / "cli.json"), "dressed"])
    assert exc.value.code == 2
    assert not (tmp_path / "cli.json").exists()


def test_pairs_compare_outputs(cli_pairs, monkeypatch, tmp_path):
    """A pair is identical only if both runs wrote the same files with the
    same bytes."""
    def fake_run(checkout, task, out_dir, where):
        # the change writes a different b.csv in pair 1
        out_dir.mkdir(parents=True)
        (out_dir / "a.csv").write_text("1\n")
        moved = checkout.name == "change" and out_dir.name.startswith("1-")
        (out_dir / "b.csv").write_text("3\n" if moved else "2\n")
        return {"wall_s": 1.0, "cpu_s": 1.0}

    monkeypatch.setattr(cli_pairs, "run", fake_run)
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    entries = cli_pairs.pairs(checkouts, "detect", 3, tmp_path / "runs")
    assert [e["outputs_identical"] for e in entries] == [True, False, True]
    assert entries[0]["outputs"] == ["a.csv", "b.csv"]


def test_differing_csvs_record_their_largest_changes(cli_pairs, monkeypatch, tmp_path):
    """Where a pair's outputs differ, each CSV that differs records the
    largest absolute and relative change over its numeric cells; text cells
    are skipped, a CSV of another shape records None, and the task keeps
    the largest over its pairs."""
    def fake_run(checkout, task, out_dir, where):
        # the change moves c.csv by more in pair 1 and reshapes d.csv in pair 2
        out_dir.mkdir(parents=True)
        pair = int(out_dir.name.split("-")[0])
        change = checkout.name == "change"
        (out_dir / "a.csv").write_text("x,flags\n1,\n")
        (out_dir / "c.csv").write_text(
            "x,y,flags\n" + ("2.0,-4.0,a;\n" if not change else
                             ("2.5,-4.0,b;\n", "2.0,-5.0,b;\n", "2.0,-4.0,a;\n")[pair]))
        (out_dir / "d.csv").write_text("x\n1\n" + ("2\n" if change and pair == 2 else ""))
        return {"wall_s": 1.0, "cpu_s": 1.0}

    monkeypatch.setattr(cli_pairs, "run", fake_run)
    checkouts = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    entries = cli_pairs.pairs(checkouts, "detect", 3, tmp_path / "runs")
    assert [e["csv_changes"] for e in entries] == [
        {"c.csv": {"max_abs_change": 0.5, "max_rel_change": 0.2}},
        {"c.csv": {"max_abs_change": 1.0, "max_rel_change": 0.2}},
        {"d.csv": None},
    ]
    assert cli_pairs.largest_csv_changes(entries) == {
        "c.csv": {"max_abs_change": 1.0, "max_rel_change": 0.2}, "d.csv": None,
    }
    assert cli_pairs.csv_changes(b"x\n0\nnan\n", b"x\n1e-3\nnan\n") == {
        "max_abs_change": 1e-3, "max_rel_change": 1.0,
    }
