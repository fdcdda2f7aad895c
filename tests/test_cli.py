import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semhash
import semhash._threads as threads_mod
import semhash.cli as cli_mod
import semhash.metrics as metrics_mod
from conftest import overflowing_encoder
from semhash.cli import main
from semhash.data import FEATURES_MAGIC, FEATURES_VERSION, read_features, write_features
from semhash.errors import DivergedLoss
from semhash.files import file_header
from semhash.hashing import _index_entry, binarize, build_index, load_index, save_index
from semhash.hierarchy import parse_taxonomy
from semhash.model import ClassifierParams, EncoderParams, save_checkpoint
from semhash.trainer import TrainConfig, format_config, parse_config

TAX_TEXT = "\n".join(
    ["root animal", "root object"]
    + [f"animal {n}" for n in ("cat", "dog", "fox", "owl")]
    + [f"object {n}" for n in ("car", "bus", "cup", "pen")]
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "tax.txt").write_text(TAX_TEXT + "\n")
    cfg = TrainConfig(
        code_length=8, hidden_sizes=(16,), batch_size=8, epochs=2,
        learning_rate=1e-3, seed=3,
    )
    (tmp_path / "train.cfg").write_text(format_config(cfg))
    return tmp_path


def gen_data(d, prefix="data", seed="11"):
    return main([
        "gen-data", "--taxonomy", str(d / "tax.txt"), "--per-class", "6",
        "--dim", "12", "--seed", seed, "--out", str(d / prefix),
    ])


def run_pipeline(d, prefix="run"):
    assert gen_data(d) == 0
    assert main([
        "train", "--config", str(d / "train.cfg"),
        "--features", str(d / "data.features"), "--labels", str(d / "data.labels"),
        "--taxonomy", str(d / "tax.txt"), "--out", str(d / prefix),
    ]) == 0
    assert main([
        "encode", "--checkpoint", str(d / f"{prefix}.checkpoint"),
        "--features", str(d / "data.features"), "--labels", str(d / "data.labels"),
        "--taxonomy", str(d / "tax.txt"), "--out", str(d / prefix),
    ]) == 0
    assert main([
        "eval", "--index", str(d / f"{prefix}.index"), "--taxonomy", str(d / "tax.txt"),
        "--k-max", "10", "--out", str(d / prefix),
    ]) == 0


class TestGenData:
    def test_creates_three_files(self, workdir):
        assert gen_data(workdir) == 0
        for suffix in (".features", ".labels", ".gen-data.manifest.json"):
            assert (workdir / f"data{suffix}").exists()

    def test_same_seed_byte_identical(self, workdir):
        gen_data(workdir, "a")
        gen_data(workdir, "b")
        assert (workdir / "a.features").read_bytes() == (workdir / "b.features").read_bytes()
        assert (workdir / "a.labels").read_bytes() == (workdir / "b.labels").read_bytes()

    def test_missing_taxonomy_exits_1_with_path(self, workdir, capsys):
        rc = main([
            "gen-data", "--taxonomy", str(workdir / "absent.txt"), "--per-class", "2",
            "--dim", "4", "--seed", "0", "--out", str(workdir / "x"),
        ])
        assert rc == 1
        assert "absent.txt" in capsys.readouterr().err

    def test_missing_flag_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--taxonomy", str(workdir / "tax.txt")])
        assert exc.value.code == 2

    def test_manifest_digests_inputs(self, workdir):
        gen_data(workdir)
        manifest = json.loads((workdir / "data.gen-data.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert str(workdir / "tax.txt") in manifest["inputs"]
        assert len(list(manifest["inputs"].values())[0]) == 64


class TestTrain:
    def test_smoke_run_with_monotone_steps(self, workdir):
        gen_data(workdir)
        rc = main([
            "train", "--config", str(workdir / "train.cfg"),
            "--features", str(workdir / "data.features"),
            "--labels", str(workdir / "data.labels"),
            "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m"),
        ])
        assert rc == 0
        lines = (workdir / "m.log.csv").read_text().splitlines()
        assert lines[0] == "step,sim,kl,cls,total"
        steps = [int(row.split(",")[0]) for row in lines[1:]]
        assert steps == list(range(1, len(steps) + 1))

    def test_rerun_same_seed_identical_checkpoint(self, workdir):
        gen_data(workdir)
        for name in ("m1", "m2"):
            main([
                "train", "--config", str(workdir / "train.cfg"),
                "--features", str(workdir / "data.features"),
                "--labels", str(workdir / "data.labels"),
                "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / name),
            ])
        assert (workdir / "m1.checkpoint").read_bytes() == (workdir / "m2.checkpoint").read_bytes()

    def test_diverged_loss_exits_3(self, workdir, monkeypatch, capsys):
        gen_data(workdir)

        def boom(*args, **kwargs):
            raise DivergedLoss("step 1: synthetic blowup")

        monkeypatch.setattr(cli_mod, "train", boom)
        rc = main([
            "train", "--config", str(workdir / "train.cfg"),
            "--features", str(workdir / "data.features"),
            "--labels", str(workdir / "data.labels"),
            "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m"),
        ])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err


    @pytest.mark.parametrize("hidden", ["16", "16,8"])
    def test_overflow_exits_3_with_one_error_line(self, tmp_path, capsys, hidden):
        # the README run at learning_rate 1e300, with warnings as errors as under
        # PYTHONWARNINGS=error: one error line, exit 3 and no checkpoint
        (tmp_path / "tax.txt").write_text(
            "root animal\nroot object\nanimal cat\nanimal dog\nobject car\nobject cup\n"
        )
        (tmp_path / "train.cfg").write_text(
            f"code_length = 8\nhidden_sizes = {hidden}\nbatch_size = 8\nepochs = 2\n"
            "learning_rate = 1e300\n"
        )
        assert main([
            "gen-data", "--taxonomy", str(tmp_path / "tax.txt"), "--per-class", "50",
            "--dim", "32", "--seed", "7", "--out", str(tmp_path / "data"),
        ]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "train", "--config", str(tmp_path / "train.cfg"),
                "--features", str(tmp_path / "data.features"),
                "--labels", str(tmp_path / "data.labels"),
                "--taxonomy", str(tmp_path / "tax.txt"), "--out", str(tmp_path / "run"),
            ])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1 and err.startswith("error: training diverged: step ")
        assert not (tmp_path / "run.checkpoint").exists()

class TestPipeline:
    def test_end_to_end_artifacts_present(self, workdir):
        run_pipeline(workdir)
        for suffix in ("checkpoint", "log.csv", "embeddings", "index",
                       "report.json", "hp_curve.csv"):
            assert (workdir / f"run.{suffix}").exists()
        report = json.loads((workdir / "run.report.json").read_text())
        assert 0.0 <= report["map"] <= 1.0
        assert report["ranking"] == "hamming"

    def test_query_returns_self_first_at_zero(self, workdir, capsys):
        run_pipeline(workdir)
        from semhash.hashing import hamming, load_index

        # ties at distance 0 break by ascending id, so query the smallest id
        # within its duplicate-code group
        idx = load_index(workdir / "run.index")
        codes = idx.codes()
        code5 = codes[int(np.flatnonzero(idx.ids == 5)[0])]
        dup_group = [int(i) for i, c in zip(idx.ids, codes) if hamming(c, code5) == 0]
        qid = min(dup_group)
        capsys.readouterr()
        rc = main(["query", "--index", str(workdir / "run.index"),
                   "--query-id", str(qid), "--k", "3"])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert first == [str(qid), "0"]

    def test_query_unknown_id_exits_1(self, workdir, capsys):
        run_pipeline(workdir)
        rc = main(["query", "--index", str(workdir / "run.index"), "--query-id", "999"])
        assert rc == 1
        assert "999" in capsys.readouterr().err

    def test_index_command_rebuilds_same_index(self, workdir):
        run_pipeline(workdir)
        rc = main([
            "index", "--embeddings", str(workdir / "run.embeddings"),
            "--labels", str(workdir / "data.labels"),
            "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "re"),
        ])
        assert rc == 0
        assert (workdir / "re.index").read_bytes() == (workdir / "run.index").read_bytes()

    def test_eval_no_binarize_uses_manhattan(self, workdir):
        run_pipeline(workdir)
        rc = main([
            "eval", "--index", str(workdir / "run.index"), "--taxonomy", str(workdir / "tax.txt"),
            "--k-max", "10", "--out", str(workdir / "cont"),
            "--no-binarize", "--embeddings", str(workdir / "run.embeddings"),
        ])
        assert rc == 0
        report = json.loads((workdir / "cont.report.json").read_text())
        assert report["ranking"] == "manhattan"

    def test_no_binarize_requires_embeddings(self, workdir, capsys):
        run_pipeline(workdir)
        rc = main([
            "eval", "--index", str(workdir / "run.index"), "--taxonomy", str(workdir / "tax.txt"),
            "--k-max", "5", "--out", str(workdir / "c2"), "--no-binarize",
        ])
        assert rc == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_embeddings_require_no_binarize(self, workdir, capsys):
        # a Hamming eval would not read the embeddings it was given
        run_pipeline(workdir)
        rc = main([
            "eval", "--index", str(workdir / "run.index"), "--taxonomy", str(workdir / "tax.txt"),
            "--k-max", "5", "--out", str(workdir / "c3"),
            "--embeddings", str(workdir / "run.embeddings"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: --embeddings requires --no-binarize\n"
        assert not list(workdir.glob("c3*"))

    def test_full_pipeline_idempotent(self, tmp_path):
        results = []
        for name in ("p1", "p2"):
            d = tmp_path / name
            d.mkdir()
            (d / "tax.txt").write_text(TAX_TEXT + "\n")
            cfg = TrainConfig(code_length=8, hidden_sizes=(16,), batch_size=8,
                              epochs=2, learning_rate=1e-3, seed=3)
            (d / "train.cfg").write_text(format_config(cfg))
            run_pipeline(d)
            results.append({
                suffix: (d / f"run.{suffix}").read_bytes()
                for suffix in ("checkpoint", "log.csv", "index", "embeddings",
                               "report.json", "hp_curve.csv")
            })
        assert results[0] == results[1]


def test_index_at_encode_threshold_reproduces_encode_index(workdir):
    # every embedding is 0.5 - 1e-10 in float64 and exactly 0.5 once saved as
    # float32; both commands threshold the saved value, so every bit is set
    assert gen_data(workdir) == 0
    bias = np.full(4, np.log((0.5 - 1e-10) / (0.5 + 1e-10)))
    save_checkpoint(
        workdir / "half.checkpoint",
        EncoderParams(layers=[(np.zeros((4, 12)), bias)], code_length=4),
        ClassifierParams(weights=np.zeros((8, 4)), biases=np.zeros(8)),
    )
    data = ["--labels", str(workdir / "data.labels"), "--taxonomy", str(workdir / "tax.txt")]
    assert main(["encode", "--checkpoint", str(workdir / "half.checkpoint"),
                 "--features", str(workdir / "data.features"), *data,
                 "--out", str(workdir / "half")]) == 0
    assert main(["index", "--embeddings", str(workdir / "half.embeddings"), *data,
                 "--out", str(workdir / "re"), "--threshold", "0.5"]) == 0
    assert (workdir / "re.index").read_bytes() == (workdir / "half.index").read_bytes()
    assert load_index(workdir / "half.index").words.tolist() == [[15]] * 48


@pytest.mark.parametrize("command", ["query", "eval"])
@pytest.mark.parametrize("mutation", ["duplicate id", "padding bit"])
def test_bad_index_entry_is_one_error_line_naming_the_file(workdir, capsys, command, mutation):
    run_pipeline(workdir)
    path = workdir / "run.index"
    raw = bytearray(path.read_bytes())
    entries = np.frombuffer(raw, dtype=_index_entry(8), offset=16)  # K = 8: one word each
    if mutation == "duplicate id":
        entries["id"][1] = entries["id"][0]
    else:
        entries["words"][0, 0] |= np.uint64(1 << 63)
    path.write_bytes(raw)
    capsys.readouterr()
    if command == "query":
        rc = main(["query", "--index", str(path), "--query-id", "2"])
    else:
        rc = main(["eval", "--index", str(path), "--taxonomy", str(workdir / "tax.txt"),
                   "--k-max", "5", "--out", str(workdir / "bad")])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1 and captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    assert not any(workdir.glob("bad.*"))


def test_gen_data_out_of_memory_is_one_error_line(workdir):
    # the child lowers only its own address-space limit to 2 GiB, so the
    # 149 GiB feature matrix fails to allocate before any page is touched
    pytest.importorskip("resource")
    (workdir / "two.txt").write_text("root a\nroot b\n")
    code = ("import resource, sys; from semhash.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "sys.exit(main(sys.argv[1:]))")
    src = Path(semhash.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", code, "gen-data", "--taxonomy", str(workdir / "two.txt"),
         "--per-class", "1000000", "--dim", "10000", "--seed", "1", "--out", str(workdir / "g")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    lines = out.stderr.splitlines()
    assert out.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error:") and "allocate" in lines[0]
    assert not any(workdir.glob("g.*"))


def test_eval_out_of_memory_on_the_worker_thread_is_one_error_line(workdir, capsys, monkeypatch):
    run_pipeline(workdir)
    capsys.readouterr()
    real = metrics_mod.hamming_to_all

    def short_of_memory(index, words):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 1.00 GiB")
        return real(index, words)

    monkeypatch.setattr(threads_mod, "WORKERS", 2)
    monkeypatch.setattr(metrics_mod, "_BLOCK_BYTES", 1)  # one-query blocks
    monkeypatch.setattr(metrics_mod, "hamming_to_all", short_of_memory)
    threads_before = threading.active_count()
    rc = main([
        "eval", "--index", str(workdir / "run.index"), "--taxonomy", str(workdir / "tax.txt"),
        "--k-max", "10", "--out", str(workdir / "oom"),
    ])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: Unable to allocate 1.00 GiB"]
    assert threading.active_count() == threads_before
    assert not any(workdir.glob("oom.*"))


def test_eval_rejects_index_with_duplicate_ids(workdir, capsys):
    # ids [0, 0, 1] with labels cat, cat, car; K=1, one code word per entry
    entries = [(0, 3, 0), (0, 3, 0), (1, 7, 1)]
    raw = b"SHRI" + struct.pack("<III", 1, 1, len(entries))
    raw += b"".join(struct.pack("<QIQ", *entry) for entry in entries)
    (workdir / "dup.index").write_bytes(raw)
    rc = main([
        "eval", "--index", str(workdir / "dup.index"), "--taxonomy", str(workdir / "tax.txt"),
        "--k-max", "1", "--out", str(workdir / "dup"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert "duplicate sample id 0" in err[0]
    assert not (workdir / "dup.report.json").exists()


def test_query_rejects_index_id_not_below_2_to_the_63(workdir, capsys):
    # one entry with id 2**64 - 1, which a signed id would read as -1
    raw = b"SHRI" + struct.pack("<III", 1, 1, 1) + struct.pack("<QIQ", 2**64 - 1, 3, 1)
    (workdir / "big.index").write_bytes(raw)
    rc = main(["query", "--index", str(workdir / "big.index"), "--query-id", "-1"])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert "big.index" in err[0]
    assert captured.out == ""


def one_error_line_naming(captured, path) -> bool:
    err = captured.err.splitlines()
    return captured.out == "" and len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


@pytest.mark.parametrize("widths, n_classes", [
    ((12, 0, 8), 8),  # a zero-width hidden layer
    ((12, 16, 8), 0),  # no classes
    ((12, 16, 0), 8),  # K = 0
])
def test_encode_rejects_a_zero_width_checkpoint(workdir, capsys, widths, n_classes):
    # zero weights written by hand: u32 out-dim, weights and biases per layer, then the head
    in_dim, *outs = widths
    raw = file_header(b"SHRW", 1, in_dim, outs[-1], n_classes, len(outs))
    for fan_in, out in zip(widths, outs):
        raw += struct.pack("<I", out) + bytes(8 * (out * fan_in + out))
    checkpoint = workdir / "zero.checkpoint"
    checkpoint.write_bytes(raw + bytes(8 * (n_classes * outs[-1] + n_classes)))
    assert gen_data(workdir) == 0
    capsys.readouterr()
    rc = main(["encode", "--checkpoint", str(checkpoint), "--features", str(workdir / "data.features"),
               "--labels", str(workdir / "data.labels"), "--taxonomy", str(workdir / "tax.txt"),
               "--out", str(workdir / "enc")])
    assert rc == 1 and one_error_line_naming(capsys.readouterr(), checkpoint)
    assert not any(workdir.glob("enc.*"))


def overflowing_checkpoint(path, out_weights):
    """A valid checkpoint for 12-dim features whose forward pass overflows."""
    encoder = overflowing_encoder(12, out_weights)
    save_checkpoint(path, encoder, ClassifierParams(np.zeros((2, len(out_weights))), np.zeros(2)))


def encode_with_warnings_as_errors(d, checkpoint):
    # as under PYTHONWARNINGS=error, which the README pipeline in CI sets
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["encode", "--checkpoint", str(checkpoint),
                     "--features", str(d / "data.features"), "--labels", str(d / "data.labels"),
                     "--taxonomy", str(d / "tax.txt"), "--out", str(d / "enc")])


def test_encode_saturates_an_overflowing_forward_pass_without_warnings(workdir, capsys):
    assert gen_data(workdir) == 0
    overflowing_checkpoint(workdir / "huge.checkpoint", [[1.0, 1.0], [-1.0, -1.0]])
    capsys.readouterr()
    assert encode_with_warnings_as_errors(workdir, workdir / "huge.checkpoint") == 0
    assert capsys.readouterr().err == ""
    assert np.all(load_index(workdir / "enc.index").words == 0b01)  # bit 0 set, bit 1 clear


def test_encode_forward_pass_that_makes_nan_is_one_error_line(workdir, capsys):
    assert gen_data(workdir) == 0
    overflowing_checkpoint(workdir / "nan.checkpoint", [[1.0, -1.0]])  # inf - inf
    capsys.readouterr()
    assert encode_with_warnings_as_errors(workdir, workdir / "nan.checkpoint") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not any(workdir.glob("enc.*"))


def test_train_rejects_zero_width_features(workdir, capsys):
    features = workdir / "flat.features"
    features.write_bytes(file_header(FEATURES_MAGIC, FEATURES_VERSION, 40, 0))  # 40 x 0, no payload
    (workdir / "flat.labels").write_text("cat\n" * 20 + "car\n" * 20)
    rc = main(["train", "--config", str(workdir / "train.cfg"), "--features", str(features),
               "--labels", str(workdir / "flat.labels"), "--taxonomy", str(workdir / "tax.txt"),
               "--out", str(workdir / "m")])
    assert rc == 1 and one_error_line_naming(capsys.readouterr(), features)
    assert not any(workdir.glob("m.*"))


def test_train_on_features_with_a_nan_is_one_error_line(workdir, capsys):
    assert gen_data(workdir) == 0
    features = read_features(workdir / "data.features")
    features[3, 1] = np.nan
    write_features(workdir / "data.features", features)
    capsys.readouterr()
    rc = main(["train", "--config", str(workdir / "train.cfg"),
               "--features", str(workdir / "data.features"), "--labels", str(workdir / "data.labels"),
               "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: features contain non-finite values\n"
    assert not any(workdir.glob("m.*"))


@pytest.mark.parametrize("key, value", [
    ("code_length", "1.5"),
    ("learning_rate", "nan"),
    ("lambda1", "inf"),
    ("seed", None),  # None repeats the key's line
])
def test_train_bad_config_value_is_one_error_line(workdir, capsys, key, value):
    gen_data(workdir)
    lines = (workdir / "train.cfg").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
    if value is None:
        lines.append(lines[at])
        bad_line = len(lines)
    else:
        lines[at] = f"{key} = {value}"
        bad_line = at + 1
    (workdir / "train.cfg").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main([
        "train", "--config", str(workdir / "train.cfg"),
        "--features", str(workdir / "data.features"), "--labels", str(workdir / "data.labels"),
        "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"line {bad_line}:" in err[0]
    assert not (workdir / "m.checkpoint").exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "seed", "-1"),
    ("train", "seed", str(2**128)),
    ("train", "hidden_sizes", "-3"),
    ("train", "hidden_sizes", "0"),
    ("gen-data", "--seed", "-1"),
])
def test_bad_seed_or_hidden_size_is_one_error_line(workdir, capsys, command, key, value):
    gen_data(workdir)
    if command == "gen-data":
        argv = [
            "gen-data", "--taxonomy", str(workdir / "tax.txt"), "--per-class", "6",
            "--dim", "12", "--seed", value, "--out", str(workdir / "m"),
        ]
    else:
        argv = [
            "train", "--config", str(workdir / "train.cfg"),
            "--features", str(workdir / "data.features"),
            "--labels", str(workdir / "data.labels"),
            "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m"),
        ]
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in (workdir / "train.cfg").read_text().splitlines()
        ]
        (workdir / "train.cfg").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert key.lstrip("-").replace("_", " ") in err[0]
    assert not any(workdir.glob("m.*"))


def test_readme_commands_parse():
    # a documented command line that the parser refuses is a doc that outlived a flag
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = "\n".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in lines.splitlines() if line.startswith("semhash ")]
    assert {argv[0] for argv in commands} >= {"gen-data", "train", "encode", "query", "eval"}
    for argv in commands:
        assert cli_mod.build_parser().parse_args(argv).command == argv[0]


def test_train_settings_come_from_the_config_file_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--features", "--labels", "--taxonomy", "--out"}
    argv = ["train", "--config", "c", "--features", "f", "--labels", "l", "--taxonomy", "t",
            "--out", "o"]
    for flag, value in (("--seed", "1"), ("--epochs", "1"), ("--variant", "shred")):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_module_entry_point_prints_no_runtime_warning():
    src = Path(semhash.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-W", "default", "-m", "semhash.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == f"semhash {semhash.__version__}"
    assert "RuntimeWarning" not in out.stderr


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_no_binarize_rejects_non_finite_embeddings(workdir, capsys, bad):
    t = parse_taxonomy(TAX_TEXT)
    labels = t.leaves()
    values = np.linspace(0.0, 1.0, 4 * len(labels)).reshape(len(labels), 4)
    save_index(workdir / "e.index", build_index(binarize(values), range(len(labels)), labels))
    values[2, 1] = float(bad)
    write_features(workdir / "e.embeddings", values)
    rc = main([
        "eval", "--index", str(workdir / "e.index"), "--taxonomy", str(workdir / "tax.txt"),
        "--k-max", "3", "--out", str(workdir / "e"),
        "--no-binarize", "--embeddings", str(workdir / "e.embeddings"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (workdir / "e.report.json").exists()


@pytest.mark.parametrize("name", ["train.cfg", "tax.txt", "data.labels"])
def test_non_utf8_text_input_is_one_error_line(workdir, capsys, name):
    gen_data(workdir)
    path = workdir / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    rc = main([
        "train", "--config", str(workdir / "train.cfg"),
        "--features", str(workdir / "data.features"), "--labels", str(workdir / "data.labels"),
        "--taxonomy", str(workdir / "tax.txt"), "--out", str(workdir / "m"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [f"error: {path}: not UTF-8 text"]
    assert not any(workdir.glob("m.*"))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "tax.txt").write_text(TAX_TEXT + "\n")
    cfg = TrainConfig(code_length=8, hidden_sizes=(4,), batch_size=8, epochs=1, seed=3)
    (d / "train.cfg").write_text(format_config(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        run_pipeline(d)
    return d


# each input file and a command that reads it; "{}" stands for the damaged
# copy, and every other argument with a dot names a file in the fuzz directory
FUZZ_COMMANDS = {
    "tax.txt": ["eval", "--index", "run.index", "--taxonomy", "{}", "--k-max", "5"],
    "data.labels": ["encode", "--checkpoint", "run.checkpoint", "--features", "data.features",
                    "--labels", "{}", "--taxonomy", "tax.txt"],
    "data.features": ["encode", "--checkpoint", "run.checkpoint", "--features", "{}",
                      "--labels", "data.labels", "--taxonomy", "tax.txt"],
    "run.checkpoint": ["encode", "--checkpoint", "{}", "--features", "data.features",
                       "--labels", "data.labels", "--taxonomy", "tax.txt"],
    "run.index": ["eval", "--index", "{}", "--taxonomy", "tax.txt", "--k-max", "5"],
    "run.embeddings": ["eval", "--index", "run.index", "--taxonomy", "tax.txt", "--k-max", "5",
                       "--no-binarize", "--embeddings", "{}"],
}


@given(
    name=st.sampled_from(sorted(FUZZ_COMMANDS)),
    cut=st.none() | st.floats(0.0, 1.0),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_damaged_input_files_end_in_one_error_line(fuzz_dir, name, cut, flips):
    data = bytearray((fuzz_dir / name).read_bytes())
    for at, mask in flips:
        data[int(at * (len(data) - 1))] ^= mask
    if cut is not None:
        del data[int(cut * len(data)):]
    damaged = fuzz_dir / f"damaged.{name}"
    damaged.write_bytes(bytes(data))
    argv = [
        str(damaged) if arg == "{}" else str(fuzz_dir / arg) if "." in arg else arg
        for arg in FUZZ_COMMANDS[name]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv + ["--out", str(fuzz_dir / "out")])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


def strict_json(text):
    """Parse JSON, refusing the NaN/Infinity extensions Python's json allows."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_eval_report_without_same_class_items_is_strict_json(workdir):
    # three leaves, one item each: no query has a same-class item, so map is undefined
    t = parse_taxonomy(TAX_TEXT)
    labels = [t.node_id(name) for name in ("cat", "dog", "car")]
    values = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    save_index(workdir / "s.index", build_index(binarize(values), [0, 1, 2], labels))
    rc = main([
        "eval", "--index", str(workdir / "s.index"), "--taxonomy", str(workdir / "tax.txt"),
        "--k-max", "2", "--out", str(workdir / "s"), "--per-query",
    ])
    assert rc == 0
    report = strict_json((workdir / "s.report.json").read_text())
    assert report["map"] is None
    assert report["map_skipped_queries"] == 3
    assert [q["ap"] for q in report["per_query"]] == [None, None, None]
    strict_json((workdir / "s.eval.manifest.json").read_text())


def test_commands_sharing_a_prefix_keep_each_manifest(workdir):
    # train and encode write to one --out prefix; each keeps its own provenance
    run_pipeline(workdir)
    manifests = {p.name: json.loads(p.read_text()) for p in workdir.glob("run.*manifest.json")}
    assert {name: m["command"] for name, m in manifests.items()} == {
        "run.train.manifest.json": "train",
        "run.encode.manifest.json": "encode",
        "run.eval.manifest.json": "eval",
    }
    train_manifest = manifests["run.train.manifest.json"]
    assert train_manifest["seed"] == 3
    config = train_manifest["config"]  # the config snapshot, with JSON's list for a tuple
    assert TrainConfig(**{**config, "hidden_sizes": tuple(config["hidden_sizes"])}) == (
        parse_config((workdir / "train.cfg").read_text())
    )
    assert str(workdir / "train.cfg") in train_manifest["inputs"]


# each command line that writes a manifest, without its --out, and the suffixes of the
# files it writes, in its manifest's order; every argument with a dot names a file
MANIFEST_CASES = {
    "gen-data": (["gen-data", "--taxonomy", "tax.txt", "--per-class", "2", "--dim", "3",
                  "--seed", "1"], ["features", "labels"]),
    "train": (["train", "--config", "train.cfg", "--features", "data.features",
               "--labels", "data.labels", "--taxonomy", "tax.txt"], ["checkpoint", "log.csv"]),
    "encode": (["encode", "--checkpoint", "run.checkpoint", "--features", "data.features",
                "--labels", "data.labels", "--taxonomy", "tax.txt"], ["embeddings", "index"]),
    "index": (["index", "--embeddings", "run.embeddings", "--labels", "data.labels",
               "--taxonomy", "tax.txt"], ["index"]),
    "eval": (["eval", "--index", "run.index", "--taxonomy", "tax.txt", "--k-max", "5"],
             ["report.json", "hp_curve.csv"]),
    "eval --no-binarize": (["eval", "--index", "run.index", "--taxonomy", "tax.txt",
                            "--k-max", "5", "--no-binarize", "--embeddings", "run.embeddings"],
                           ["report.json", "hp_curve.csv"]),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_records_exactly_the_files_of_its_command_line(workdir, case, capsys):
    run_pipeline(workdir)
    argv, suffixes = MANIFEST_CASES[case]
    inputs = [str(workdir / arg) for arg in argv if "." in arg]
    before = set(workdir.iterdir())
    assert main([str(workdir / arg) if "." in arg else arg for arg in argv]
                + ["--out", str(workdir / "o")]) == 0
    manifest_path = workdir / f"o.{argv[0]}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == argv[0]
    # the input files of the command line, each with its digest (write_json sorts keys)
    assert sorted(manifest["inputs"]) == sorted(inputs)
    for path, digest in manifest["inputs"].items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    outputs = [str(workdir / f"o.{suffix}") for suffix in suffixes]
    assert manifest["outputs"] == outputs
    assert set(workdir.iterdir()) - before == {Path(p) for p in outputs} | {manifest_path}


def test_query_writes_no_file(workdir, capsys):
    run_pipeline(workdir)
    before = set(workdir.iterdir())
    assert main(["query", "--index", str(workdir / "run.index"), "--query-id", "0"]) == 0
    assert set(workdir.iterdir()) == before


def test_pipeline_json_artifacts_are_strict_json(workdir):
    run_pipeline(workdir)
    for path in [*workdir.glob("*.manifest.json"), workdir / "run.report.json"]:
        strict_json(path.read_text())


class HalfThenFail:
    """A file opened by ``write_atomic`` that writes half its data, then raises."""

    def __init__(self, path, mode, exc):
        self.fh = open(path, mode)
        self.exc = exc

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        self.fh.flush()
        raise self.exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.fixture
def failing_writes(monkeypatch):
    """Make every artifact write stop midway with ``exc``."""
    import semhash.files as files_mod

    def install(exc):
        monkeypatch.setattr(
            files_mod, "open", lambda path, mode: HalfThenFail(path, mode, exc), raising=False
        )
    return install


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()])
@pytest.mark.parametrize("name", [
    "run.checkpoint", "run.log.csv", "run.embeddings", "data.labels", "run.index",
    "run.encode.manifest.json",
])
def test_interrupted_write_keeps_the_previous_file(workdir, failing_writes, exc, name):
    run_pipeline(workdir)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    failing_writes(exc)
    t = parse_taxonomy(TAX_TEXT)
    writers = {
        "run.checkpoint": lambda p: semhash.model.save_checkpoint(
            p, *semhash.model.load_checkpoint(workdir / "run.checkpoint")),
        "run.log.csv": lambda p: semhash.files.write_atomic(p, "step\n"),
        "run.embeddings": lambda p: write_features(p, np.zeros((2, 3))),
        "data.labels": lambda p: semhash.data.write_labels(p, t.leaves(), t),
        "run.index": lambda p: save_index(p, semhash.hashing.load_index(workdir / "run.index")),
        "run.encode.manifest.json": lambda p: semhash.files.write_atomic(p, b"{}"),
    }
    with pytest.raises(type(exc)):
        writers[name](workdir / name)
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_interrupted_eval_leaves_previous_report_and_no_temp_file(workdir, failing_writes, capsys):
    run_pipeline(workdir)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    failing_writes(OSError(28, "No space left on device"))
    capsys.readouterr()
    rc = main([
        "eval", "--index", str(workdir / "run.index"), "--taxonomy", str(workdir / "tax.txt"),
        "--k-max", "10", "--out", str(workdir / "run"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: [Errno 28] No space left on device: '{workdir / 'run.report.json'}'"]
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


@pytest.mark.parametrize("out", ["", ".", "/"])
def test_out_prefix_without_a_name_is_one_error_line(workdir, capsys, out):
    rc = main([
        "gen-data", "--taxonomy", str(workdir / "tax.txt"), "--per-class", "6",
        "--dim", "12", "--seed", "1", "--out", out,
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: --out {out!r} does not name a file prefix"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_is_one_error_line(workdir, capsys, threshold):
    run_pipeline(workdir)
    capsys.readouterr()
    rc = main([
        "index", "--embeddings", str(workdir / "run.embeddings"),
        "--labels", str(workdir / "data.labels"), "--taxonomy", str(workdir / "tax.txt"),
        "--out", str(workdir / "t"), f"--threshold={threshold}",
    ])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: threshold must be finite")
    assert not any(workdir.glob("t.*"))


@pytest.mark.parametrize("flag", ["--noise", "--diffusion"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_data_non_finite_spread_is_one_error_line(workdir, capsys, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "gen-data", "--taxonomy", str(workdir / "tax.txt"), "--per-class", "2",
            "--dim", "3", "--seed", "1", "--out", str(workdir / "g"), flag, value,
        ])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [f"error: {flag[2:]} must be finite, got {value}"]
    assert "RuntimeWarning" not in err and not caught
    assert not any(workdir.glob("g.*"))


@pytest.mark.parametrize("flag, value", [
    ("--diffusion", "1e308"), ("--noise", "1e300"), ("--noise", "1e39"),
])
def test_gen_data_overflowing_spread_is_one_error_line(workdir, capsys, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "gen-data", "--taxonomy", str(workdir / "tax.txt"), "--per-class", "2",
            "--dim", "3", "--seed", "1", "--out", str(workdir / "g"), flag, value,
        ])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag[2:]} ")
    assert "overflows" in lines[0] and "non-finite" not in lines[0]
    assert "RuntimeWarning" not in err and not caught
    assert not any(workdir.glob("g.*"))


@pytest.mark.parametrize("per_class, dim, name", [
    ("4611686018427387904", "1", "per_class"), ("2", "4611686018427387904", "dim"),
])
def test_gen_data_unallocatable_size_is_one_error_line(workdir, capsys, per_class, dim, name):
    # rejected from the sizes alone, before any array is allocated
    rc = main([
        "gen-data", "--taxonomy", str(workdir / "tax.txt"), "--per-class", per_class,
        "--dim", dim, "--seed", "1", "--out", str(workdir / "g"),
    ])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} ")
    assert not any(workdir.glob("g.*"))


def test_each_command_line_gets_its_own_defaults(workdir, capsys):
    # the parser is built once per process; an option given on one command
    # line must not carry over to the next
    run_pipeline(workdir)
    index = str(workdir / "run.index")
    capsys.readouterr()
    assert main(["query", "--index", index, "--query-id", "0", "--k", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["query", "--index", index, "--query-id", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert cli_mod.build_parser() is cli_mod.build_parser()


# a valid command line for every command, relative to a copy of the fuzz
# directory; mutations replace, drop, repeat, insert or swap its tokens
ARGV_BASES = [
    ["gen-data", "--taxonomy", "tax.txt", "--per-class", "2", "--dim", "3", "--seed", "1",
     "--out", "o", "--diffusion", "1.0", "--noise", "0.5"],
    ["train", "--config", "train.cfg", "--features", "data.features", "--labels",
     "data.labels", "--taxonomy", "tax.txt", "--out", "o"],
    ["encode", "--checkpoint", "run.checkpoint", "--features", "data.features",
     "--labels", "data.labels", "--taxonomy", "tax.txt", "--out", "o", "--threshold", "0.5"],
    ["index", "--embeddings", "run.embeddings", "--labels", "data.labels",
     "--taxonomy", "tax.txt", "--out", "o", "--threshold", "0.5"],
    ["query", "--index", "run.index", "--query-id", "3", "--k", "4"],
    ["eval", "--index", "run.index", "--taxonomy", "tax.txt", "--k-max", "5", "--out", "o",
     "--per-query"],
    ["eval", "--index", "run.index", "--taxonomy", "tax.txt", "--k-max", "5", "--out", "o",
     "--no-binarize", "--embeddings", "run.embeddings"],
]
ARGV_TOKENS = [
    "", "-1", "0", "1", "2", "99", "1.5", "nan", "inf", "1e999", "x", "-", "--", ".", "/",
    "missing.file", "tax.txt", "train.cfg", "data.features", "data.labels", "run.checkpoint",
    "run.embeddings", "run.index", "shred", "shrewd", "--out", "--seed", "--k-max", "-h",
    "--no-binarize", "--per-query", "eval", "train",
]
ARGV_EDIT = st.tuples(
    st.sampled_from(["value"] * 5 + ["replace", "drop", "repeat", "insert", "swap"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from(ARGV_TOKENS),
)


def mutate_argv(argv, edits):
    argv = list(argv)
    for op, at, other, token in edits:
        if not argv:
            argv = [token]
            continue
        i, j = int(at * len(argv)), int(other * len(argv))
        values = [k for k in range(1, len(argv))
                  if argv[k - 1].startswith("--") and not argv[k].startswith("--")]
        if op == "value" and values:  # most edits keep the command line's shape
            argv[values[int(at * len(values))]] = token
        elif op in ("replace", "value"):
            argv[i] = token
        elif op == "drop":
            del argv[i]
        elif op == "repeat":
            argv.insert(i, argv[i])
        elif op == "insert":
            argv.insert(i, token)
        else:
            argv[i], argv[j] = argv[j], argv[i]
    return argv


@given(base=st.sampled_from(ARGV_BASES), edits=st.lists(ARGV_EDIT, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_mutated_command_lines_exit_cleanly(fuzz_dir, tmp_path_factory, base, edits):
    argv = mutate_argv(base, edits)
    run_dir = tmp_path_factory.mktemp("argv")
    for name in ("tax.txt", "train.cfg", "data.features", "data.labels", "run.checkpoint",
                 "run.embeddings", "run.index"):
        (run_dir / name).write_bytes((fuzz_dir / name).read_bytes())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(run_dir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            rc = exc.code
            assert rc in (0, 2)
    assert rc in (0, 1, 2, 3), argv
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (rc in (1, 3)), (argv, err.getvalue())
