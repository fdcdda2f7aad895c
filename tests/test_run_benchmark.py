"""Smoke tests for ``scripts/run_benchmark.py``, the variant comparison script."""
import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALL = ["--epochs", "1", "--per-class", "5", "--k-max", "10", "--also-code-length", "0"]


def test_one_seed_writes_one_row_per_variant(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert load_script().main(["--seeds", "1", *SMALL, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["variant"], r["code_length"]) for r in rows] == [
        ("0", v, "16") for v in ("shrewd", "sim_only", "cls_only", "shred")
    ]
    assert f"wrote 4 rows to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_seeds_below_one_is_a_usage_error(tmp_path, capsys, seeds):
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--seeds", seeds, *SMALL, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f"error: --seeds must be >= 1, got {seeds}")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--per-class", "0", "per_class must be an integer in [1, "),
    ("--dim", "0", "dim must be an integer in [1, "),
    ("--k-max", "0", "k_max must be an integer in [1, "),
    ("--epochs", "-1", "epochs must be an integer >= 0, got -1"),
    ("--code-length", "0", "code_length must be an integer >= 1, got 0"),
    ("--noise", "nan", "noise must be a finite real number >= 0, got nan"),
])
def test_value_the_library_rejects_is_a_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "f.csv"
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--seeds", "1", *SMALL, flag, value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {message}" in err.splitlines()[-1]
    assert not out.exists()


def no_runs(args):
    raise AssertionError("a training run was started")


def test_out_in_a_missing_directory_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "compare_variants", no_runs)
    out = tmp_path / "missing" / "f.csv"
    with pytest.raises(SystemExit) as exc:
        script.main(["--seeds", "1", *SMALL, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: --out's directory does not exist: {out.parent}")
    assert not out.parent.exists()


def test_a_failed_write_is_one_error_line_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    script = load_script()
    monkeypatch.setattr(script, "compare_variants", lambda args: [{"seed": 0, "variant": "shrewd"}])
    out = tmp_path / "f.csv"
    out.mkdir()  # a directory where the file should go: the rename over it fails
    assert script.main(["--seeds", "1", *SMALL, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert str(out) in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"] and not any(out.iterdir())
