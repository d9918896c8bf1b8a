import argparse
import json
import os
import re
import subprocess
import sys
import wave
import zipfile
from pathlib import Path

import numpy as np
import pytest

from tokenweave import cli
from tokenweave.cli import CONDITIONING_ROUTES, build_parser, main
from tokenweave.conditioning import AudioBuffer, save_wav, sonify_classes
from tokenweave.model import (CONDITIONING_MODES, ModelConfig, init_params, load_checkpoint,
                              write_atomically)
from tokenweave.oracle import exactness_report, make_joint
from tokenweave.patterns import PatternKind, build_pattern

from helpers import SRC, bench_step_table_process, pattern_to_json


def run_cli(args, tmp_path, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["TOKENWEAVE_OUT"] = str(tmp_path / "default_out")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "tokenweave", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_bench_reproduces_step_count_table():
    returncode, stdout, _ = bench_step_table_process()  # criterion 1's process
    assert returncode == 0
    table = json.loads(stdout)
    assert table["parallel"]["nominal"] == 1500
    assert table["delay"]["nominal"] == 1500
    assert table["partial_delay"]["nominal"] == 1500
    assert table["partial_flatten"]["nominal"] == 3000
    assert table["coarse_first"]["nominal"] == 3000
    assert table["flatten"]["nominal"] == 6000
    assert table["delay"]["exact"] == 1503


def test_show_delay_layout(capsys):
    assert main(["patterns", "show", "--kind", "delay", "--T", "3", "--K", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[1:] == ["1", "2", "3", "."]
    assert out[2].split()[1:] == [".", "1", "2", "3"]


def test_validate_broken_pattern_exits_3(tmp_path, capsys):
    doc = {"kind": None, "T": 2, "K": 2, "steps": [[], [[1, 1], [1, 2]], [[2, 1]]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["patterns", "validate", "--json", str(path)]) == 3
    assert "not a partition of the grid: 1 coordinate(s) missing" in capsys.readouterr().err


def test_validate_good_pattern_exits_0(tmp_path, capsys):
    from helpers import pattern_to_json
    from tokenweave.patterns import PatternKind, build_pattern

    path = tmp_path / "ok.json"
    path.write_text(pattern_to_json(build_pattern(PatternKind.DELAY, 3, 2)))
    assert main(["patterns", "validate", "--json", str(path)]) == 0


def test_validate_missing_file_exits_4(tmp_path):
    assert main(["patterns", "validate", "--json", str(tmp_path / "nope.json")]) == 4


def test_validate_without_json_prints_the_usage(capsys):
    assert main(["patterns", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tokenweave patterns") and "[--json JSON]" in err
    assert "validate needs --json" in err


def test_usage_error_exits_2(tmp_path):
    proc = run_cli(["patterns", "bench", "--T", "not_a_number"], tmp_path)
    assert proc.returncode == 2


def test_exactness_diagonal_csv_and_rerun_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["exactness", "--family", "diagonal", "--T", "1", "--K", "2", "--M", "2",
            "--patterns", "parallel,delay,flatten", "--seed", "3"]
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0
    csv_a = (out_a / "exactness.csv").read_bytes()
    csv_b = (out_b / "exactness.csv").read_bytes()
    assert csv_a == csv_b
    text = csv_a.decode()
    assert "parallel,1,1,0.5" in text
    assert "flatten,2,2,0" in text
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["command"] == "exactness"
    assert "exactness.csv" in manifest["artifacts"]
    assert manifest["tool_version"]


def test_exactness_manifest_carries_the_csv_tvs(tmp_path, capsys):
    out = tmp_path / "tv"
    assert main(["exactness", "--family", "markov_residual", "--T", "2", "--K", "2", "--M", "2",
                 "--patterns", "parallel,delay,flatten,coarse_first", "--out", str(out)]) == 0
    tv = json.loads((out / "manifest.json").read_text())["tv"]
    rows = [line.split(",") for line in (out / "exactness.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    # the CSV writes a TV below 1e-12 as 0
    floored = {kind: f"{v if v >= 1e-12 else 0.0:.12g}" for kind, v in tv.items()}
    assert floored == {row[0]: row[-1] for row in rows}
    assert tv["parallel"] > 0.0


def test_exactness_csv_writes_rounding_noise_as_zero(tmp_path, capsys):
    # every pattern is exact on a product joint; the raw TVs hold rounding noise
    out = tmp_path / "noise"
    kinds = [k.value for k in PatternKind]
    assert main(["exactness", "--family", "product", "--T", "3", "--K", "2", "--M", "3",
                 "--patterns", ",".join(kinds), "--out", str(out)]) == 0
    csv = (out / "exactness.csv").read_text()
    assert csv in capsys.readouterr().out
    assert [line.split(",")[-1] for line in csv.splitlines()[1:]] == ["0"] * len(kinds)
    raw = exactness_report(make_joint("product", 3, 2, 3, seed=0),
                           [build_pattern(k, 3, 2) for k in kinds])
    tv = json.loads((out / "manifest.json").read_text())["tv"]
    assert tv == {row.kind: row.tv for row in raw}
    assert any(v > 0.0 for v in tv.values())


def test_exactness_product_all_exact(tmp_path, capsys):
    out = tmp_path / "prod"
    assert main(["exactness", "--family", "product", "--T", "2", "--K", "2", "--M", "2",
                 "--patterns", "parallel,delay,partial_delay,flatten,partial_flatten,coarse_first",
                 "--out", str(out)]) == 0
    for line in (out / "exactness.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[-1]) <= 1e-12


def test_exactness_guard_exits_4(tmp_path):
    assert main(["exactness", "--family", "product", "--T", "4", "--K", "4", "--M", "4",
                 "--out", str(tmp_path / "g")]) == 4


def test_exactness_unknown_pattern_exits_3(tmp_path):
    assert main(["exactness", "--patterns", "zigzag", "--out", str(tmp_path / "z")]) == 3


def test_exactness_stereo_kind_with_odd_k_exits_3(tmp_path, capsys):
    assert main(["exactness", "--patterns", "delay,stereo_delay", "--K", "3",
                 "--out", str(tmp_path / "s")]) == 3
    assert "stereo kinds need an even K, got 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", "--steps", "80", "--timesteps", "8", "--sequences", "2",
                 "--vocab", "8", "--dim", "32", "--log-every", "20", "--out", str(out)])
    assert code == 0
    return out


def test_train_writes_checkpoint_log_manifest(trained):
    assert (trained / "checkpoint.npz").exists()
    log = (trained / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,lr,loss,accuracy,grad_norm,cond_dropped"
    assert len(log) > 2
    for row in log[1:]:
        _, _, _, _, grad_norm, dropped = row.split(",")
        assert float(grad_norm) > 0.0 and dropped in ("0", "1")
    manifest = json.loads((trained / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"checkpoint.npz", "train_log.csv"}
    assert manifest["config"]["steps"] == 80


def test_train_step_times_stay_out_of_the_hashed_artifacts(tmp_path, capsys):
    args = ["train", "--steps", "6", "--timesteps", "4", "--sequences", "2", "--vocab", "4",
            "--dim", "16", "--log-every", "2", "--seed", "5"]
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main([*args, "--out", str(out)]) == 0
    a, b = (json.loads((out / "manifest.json").read_text()) for out in runs)
    assert (runs[0] / "train_log.csv").read_bytes() == (runs[1] / "train_log.csv").read_bytes()
    assert a["artifacts"] == b["artifacts"]
    for manifest in (a, b):
        timings = manifest["timings"]
        assert 0.0 < timings["step_ms_p50"] <= timings["step_ms_max"]
        assert timings["step_ms_max"] <= 1e3 * timings["wall_seconds"]
    assert "step_ms" not in (runs[0] / "train_log.csv").read_text()


def test_manifests_time_the_codec_fit_and_the_joint(tmp_path, capsys):
    train_out, exact_out = tmp_path / "train", tmp_path / "exactness"
    assert main([*TRAIN_SMALL, "--out", str(train_out)]) == 0
    assert main(["exactness", "--family", "markov_residual", "--T", "2", "--K", "2", "--M", "2",
                 "--out", str(exact_out)]) == 0
    for out, key in ((train_out, "corpus_s"), (exact_out, "joint_s")):
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 <= manifest["timings"][key] <= manifest["timings"]["wall_seconds"]


def test_exactness_manifest_times_the_report(tmp_path, capsys):
    out = tmp_path / "exactness"
    assert main(["exactness", "--family", "markov_residual", "--T", "2", "--K", "2", "--M", "2",
                 "--patterns", "parallel,delay,flatten", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert 0.0 <= timings["report_s"] <= timings["wall_seconds"]
    assert set(manifest["tv"]) == {"parallel", "delay", "flatten"}


@pytest.mark.parametrize("family,support", [("diagonal", 4), ("product", 16)])
def test_exactness_manifest_records_the_support(tmp_path, capsys, family, support):
    # the grids with P > 0, beside the report time they decide the path of
    out = tmp_path / "exactness"
    assert main(["exactness", "--family", family, "--T", "2", "--K", "2", "--M", "2",
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["timings"]["support"] == support


def test_train_with_an_unusable_out_exits_4_before_the_corpus_fit(tmp_path, monkeypatch, capsys):
    import tokenweave.cli as cli_mod

    calls = []
    for name in ("make_corpus", "train_step"):
        monkeypatch.setattr(cli_mod, name, lambda *a, _name=name, **k: calls.append(_name))
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main([*TRAIN_SMALL, "--out", str(blocker / "run")]) == 4
    assert "cannot make run directory" in capsys.readouterr().err
    assert calls == []
    assert blocker.is_file() and sorted(tmp_path.iterdir()) == [blocker]


def test_every_run_file_goes_through_write_atomically(tmp_path, monkeypatch, capsys):
    # a file written in place can be left torn beside a manifest that vouches for it
    written = []

    def recording(path, write):
        written.append(Path(path))
        write_atomically(path, write)

    monkeypatch.setattr("tokenweave.model.write_atomically", recording)
    monkeypatch.setattr(cli, "write_atomically", recording)
    tone = tmp_path / "tone.wav"
    save_wav(tone, AudioBuffer(samples=np.sin(np.arange(20000) / 5.0), sample_rate=8000))
    ckpt = str(tmp_path / "train" / "checkpoint.npz")
    runs = {
        "exactness": ["exactness"],
        "train": TRAIN_SMALL,
        "generate": ["generate", "--checkpoint", ckpt],
        "generate-wav": ["generate", "--checkpoint", ckpt, "--wav"],
        "memorize": ["memorize", "--checkpoint", ckpt, "--prompt-lens", "1", "--gen-len", "2"],
        "chroma": ["chroma", "--wav", str(tone)],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        recorded = {p.name for p in written if p.parent == out}
        on_disk = {p.name for p in out.iterdir()}
        assert recorded == on_disk == {*manifest["artifacts"], "manifest.json"}, name


def test_a_failed_wav_write_leaves_the_earlier_run_whole(trained, tmp_path, monkeypatch, capsys):
    out = tmp_path / "g"
    argv = ["generate", "--checkpoint", str(trained / "checkpoint.npz"), "--wav", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def torn(fh, audio):
        fh.write(b"RIFF\0\0")
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "save_wav", torn)
    capsys.readouterr()
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    # the same names (so no temporary file is left) and the same bytes: the rerun's
    # grid.csv is the first run's, and its torn WAV never replaced the whole one
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_loss_decreases(trained):
    rows = [line.split(",") for line in (trained / "train_log.csv").read_text().splitlines()[1:]]
    losses = [float(r[2]) for r in rows]
    assert losses[-1] < losses[0]


def test_generate_deterministic_across_runs(trained, tmp_path):
    out_a, out_b = tmp_path / "ga", tmp_path / "gb"
    base = ["generate", "--checkpoint", str(trained / "checkpoint.npz"), "--seed", "7"]
    assert main([*base, "--out", str(out_a)]) == 0
    assert main([*base, "--out", str(out_b)]) == 0
    assert (out_a / "grid.csv").read_bytes() == (out_b / "grid.csv").read_bytes()
    grid = np.loadtxt(out_a / "grid.csv", delimiter=",", dtype=int)
    assert grid.min() >= 1 and grid.max() <= 8


def test_generate_different_seed_differs(trained, tmp_path):
    # high temperature so even an overfit model spreads probability mass
    out_a, out_b = tmp_path / "s7", tmp_path / "s8"
    base = ["generate", "--checkpoint", str(trained / "checkpoint.npz"), "--temperature", "4.0"]
    assert main([*base, "--seed", "7", "--out", str(out_a)]) == 0
    assert main([*base, "--seed", "8", "--out", str(out_b)]) == 0
    assert (out_a / "grid.csv").read_bytes() != (out_b / "grid.csv").read_bytes()


def test_generate_wav_sonification(trained, tmp_path):
    out = tmp_path / "wav"
    assert main(["generate", "--checkpoint", str(trained / "checkpoint.npz"), "--seed", "1",
                 "--wav", "--out", str(out)]) == 0
    assert (out / "generated.wav").stat().st_size > 1000


@pytest.mark.parametrize("conditioning,mode", [("text", None), ("chroma", "prefix"),
                                               ("none", "none")])
def test_generate_text_needs_a_cross_attention_checkpoint(tmp_path, capsys, conditioning, mode):
    # a prefix model would take the text embedding as its melody
    model = tmp_path / "model"
    assert main([*TRAIN_SMALL, "--conditioning", conditioning, "--out", str(model)]) == 0
    out = tmp_path / "g"
    argv = ["generate", "--checkpoint", str(model / "checkpoint.npz"), "--text", "warm piano",
            "--out", str(out)]
    if mode is None:
        assert main(argv) == 0 and (out / "grid.csv").exists()
        return
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert repr(mode) in err and "Traceback" not in err
    assert not out.exists()


# what a child may map: the Python and numpy baseline peaks near 110 MB
CHILD_ADDRESS_SPACE = 2 << 30
# calls main on each argv of the JSON list on stdin and prints one JSON line
# [exit code, stderr] per argv; warnings are errors, as in this suite
CAPPED_MAIN = f"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE}))
from tokenweave.cli import main
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # escaped main: record its traceback, run the rest
            traceback.print_exc()
            code = None
    print(json.dumps([code, err.getvalue()]), flush=True)
"""


def run_capped(argvs):
    """(exit code, stderr) of main on each argv, run in one child that caps
    its own address space: an allocation fails there and cannot take this
    machine's memory."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", CAPPED_MAIN],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def test_out_of_memory_exits_4(monkeypatch, tmp_path, capsys):
    # the backstop for an allocation that no size check foresees
    def fit(*args, **kwargs):
        raise MemoryError("Unable to allocate 519. MiB for an array")

    monkeypatch.setattr(cli, "make_corpus", fit)
    out = tmp_path / "o"
    assert main([*TRAIN_SMALL, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err
    assert not out.exists()


def test_train_refuses_parameters_over_the_budget_before_the_codec_fit(monkeypatch, tmp_path,
                                                                        capsys):
    def fit(*args, **kwargs):
        raise AssertionError("the codec fit ran before the parameter budget was checked")

    monkeypatch.setattr(cli, "make_corpus", fit)
    monkeypatch.setattr("tokenweave.model.MAX_ENTRIES", 1000)
    out = tmp_path / "o"
    assert main([*TRAIN_SMALL, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert re.search(r"parameters would hold \d+ entries \(budget 1000\)", err), err
    assert not out.exists()


def test_generate_missing_checkpoint_exits_4(tmp_path):
    assert main(["generate", "--checkpoint", str(tmp_path / "none.npz"),
                 "--out", str(tmp_path / "o")]) == 4


def test_checkpoint_missing_param_exits_3(trained, tmp_path, capsys):
    with np.load(trained / "checkpoint.npz") as data:
        arrays = {k: data[k] for k in data.files if k != "p:embed.k3"}
    bad = tmp_path / "missing.npz"
    np.savez(bad, **arrays)
    assert main(["generate", "--checkpoint", str(bad), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "embed.k3" in err and "Traceback" not in err


def test_old_layout_checkpoint_loads_and_samples_alike(trained, tmp_path):
    # the layout train wrote when it kept AdamW moments, an EMA copy, the
    # optimizer step and the FFN width in every checkpoint
    new, old = trained / "checkpoint.npz", tmp_path / "old.npz"
    with np.load(new) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["__header__"]))
    for name in [k[2:] for k in arrays if k.startswith("p:")]:
        p = arrays[f"p:{name}"]
        arrays.update({f"m:{name}": 0.1 * p, f"v:{name}": p * p, f"x:ema/{name}": p + 1.0})
    header.update(opt_step=17, config={**header["config"], "ffn_mult": 4})
    np.savez(old, **{**arrays, "__header__": np.array(json.dumps(header, sort_keys=True))})
    with zipfile.ZipFile(old, "a") as zf:  # moment and EMA members that do not parse go unread
        zf.writestr("m:broken.npy", b"\x93NUMPY\x01\x00garbage")
        zf.writestr("x:ema/broken.npy", b"\x93NUMPY\x01\x00garbage")

    a, b = load_checkpoint(new), load_checkpoint(old)
    assert a.params.config == b.params.config
    assert all(np.array_equal(arr, b.params.arrays[n]) for n, arr in a.params.arrays.items())
    assert np.array_equal(a.extra["grids"], b.extra["grids"])
    assert a.meta == b.meta
    for ckpt in (new, old):
        out = tmp_path / ckpt.stem
        assert main(["generate", "--checkpoint", str(ckpt), "--temperature", "0", "--seed", "7",
                     "--out", str(out / "gen")]) == 0
        assert main(["memorize", "--checkpoint", str(ckpt), "--prompt-lens", "1,2,4",
                     "--gen-len", "4", "--out", str(out / "mem")]) == 0
    for name in ("gen/grid.csv", "mem/memorization.csv"):
        assert (tmp_path / "checkpoint" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_checkpoint_not_npz_exits_3(tmp_path, capsys):
    bad = tmp_path / "notes.npz"
    bad.write_text("not a checkpoint\n")
    assert main(["generate", "--checkpoint", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_memorize_report(trained, tmp_path):
    out = tmp_path / "mem"
    assert main(["memorize", "--checkpoint", str(trained / "checkpoint.npz"),
                 "--prompt-lens", "1,2,4", "--gen-len", "4", "--out", str(out)]) == 0
    lines = (out / "memorization.csv").read_text().splitlines()
    assert lines[0] == "prompt_len,exact_match,partial_match,n_examples"
    assert len(lines) == 4
    for line in lines[1:]:
        _, exact, partial, n = line.split(",")
        assert float(partial) >= float(exact)
        assert n == "2"
    # an empty prompt and an empty continuation compare nothing: 1.0 by convention
    assert main(["memorize", "--checkpoint", str(trained / "checkpoint.npz"),
                 "--prompt-lens", "0", "--gen-len", "0", "--out", str(tmp_path / "empty")]) == 0
    lines = (tmp_path / "empty" / "memorization.csv").read_text().splitlines()
    assert lines[1:] == ["0,1.000000,1.000000,2"]


def test_chroma_on_440hz_wav(tmp_path):
    rate = 32000
    t = np.arange(2 * rate) / rate
    wav_path = tmp_path / "a440.wav"
    save_wav(wav_path, AudioBuffer(samples=0.5 * np.sin(2 * np.pi * 440.0 * t), sample_rate=rate))
    out = tmp_path / "ch"
    assert main(["chroma", "--wav", str(wav_path), "--out", str(out)]) == 0
    classes = json.loads((out / "chroma.json").read_text())
    assert len(classes) == 12
    assert all(c == 9 for c in classes)


def test_chroma_missing_wav_exits_4(tmp_path):
    assert main(["chroma", "--wav", str(tmp_path / "no.wav"), "--out", str(tmp_path / "o")]) == 4


def test_chroma_malformed_wav_exits_3(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFFgarbage that is not wav data")
    assert main(["chroma", "--wav", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[patterns]\nT = 12\nK = 2\n")
    assert main(["patterns", "bench", "--config", str(cfg), "--as-json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["parallel"]["nominal"] == 12
    # explicit flag beats the config file
    assert main(["patterns", "bench", "--config", str(cfg), "--T", "9", "--as-json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["parallel"]["nominal"] == 9


def test_config_file_supplies_required_arguments(trained, tmp_path, capsys):
    wav = tmp_path / "tone.wav"
    save_wav(wav, AudioBuffer(samples=np.sin(np.arange(20000) / 5.0), sample_rate=8000))
    (tmp_path / "chroma.ini").write_text(f"[chroma]\nwav = {wav}\n")
    out = tmp_path / "ch"
    assert main(["chroma", "--config", str(tmp_path / "chroma.ini"), "--out", str(out)]) == 0
    assert (out / "chroma.json").exists()
    (tmp_path / "generate.ini").write_text(
        f"[generate]\ncheckpoint = {trained / 'checkpoint.npz'}\ntimesteps = 4\n")
    out = tmp_path / "gen"
    assert main(["generate", "--config", str(tmp_path / "generate.ini"), "--out", str(out)]) == 0
    assert (out / "grid.csv").exists()
    (tmp_path / "patterns.ini").write_text("[patterns]\naction = show\nT = 3\nK = 2\n")
    capsys.readouterr()
    assert main(["patterns", "--config", str(tmp_path / "patterns.ini")]) == 0
    assert capsys.readouterr().out.splitlines()[2].split()[1:] == [".", "1", "2", "3"]
    # a flag or positional on the command line still wins
    assert main(["patterns", "bench", "--config", str(tmp_path / "patterns.ini"),
                 "--as-json"]) == 0
    assert json.loads(capsys.readouterr().out)["parallel"]["nominal"] == 3
    # values are read literally: a % is text, not interpolation syntax
    (tmp_path / "text.ini").write_text("[generate]\ntext = 100% calm\n")
    parser, by_name = build_parser()
    cli._apply_ini_defaults(by_name["generate"], "generate", str(tmp_path / "text.ini"))
    assert parser.parse_args(["generate", "--checkpoint", "c.npz"]).text == "100% calm"


def test_config_without_a_value_is_the_subcommands_usage_error(capsys):
    assert main(["patterns", "bench", "--config"]) == 2
    err = capsys.readouterr().err
    assert "tokenweave patterns: error: argument --config: expected one argument" in err


def test_config_file_unknown_key_exits_3(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[patterns]\nturbo = yes\n")
    assert main(["patterns", "bench", "--config", str(cfg)]) == 3


@pytest.mark.parametrize(
    "key,value", [("pattern", "bogus"), ("steps", "abc"), ("share-first-frame", "maybe")]
)
def test_config_file_bad_value_exits_3(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[train]\n{key} = {value}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,flag,message",
    [
        pytest.param("train", flag, flag, id=flag)
        for flag in ("--steps", "--sequences", "--timesteps", "--log-every")
    ]
    + [pytest.param("generate", "--timesteps", "T must be >= 1", id="generate--timesteps")],
)
def test_train_zero_count_exits_3(trained, tmp_path, capsys, command, flag, message):
    source = ["--checkpoint", str(trained / "checkpoint.npz")] if command == "generate" else []
    assert main([command, *source, flag, "0", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("conditioning", ["text", "chroma", "none"])
def test_train_cfg_drop_out_of_range_exits_3(tmp_path, capsys, conditioning):
    assert main(["train", "--conditioning", conditioning, "--cfg-drop", "1.5", "--steps", "2",
                 "--timesteps", "4", "--sequences", "2", "--vocab", "8", "--dim", "16",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "[0, 1]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(["chroma", "--wav", "{wav}", "--hop", "0"], "hop=0", id="chroma-hop-0"),
        pytest.param(["chroma", "--wav", "{wav}", "--hop", "-1"], "hop=-1", id="chroma-hop-neg"),
        pytest.param(["chroma", "--wav", "{wav}", "--window", "0"], "window=0", id="chroma-window-0"),
        pytest.param(["chroma", "--wav", "{wav}", "--window", "-4"], "window=-4",
                     id="chroma-window-neg"),
        pytest.param(["memorize", "--checkpoint", "{ckpt}", "--prompt-lens", "a"], "'a'",
                     id="memorize-prompt-lens"),
        pytest.param(["patterns", "validate", "--json", "{latin1}"], "pattern.json is not UTF-8",
                     id="validate-not-utf8"),
        pytest.param(["generate", "--checkpoint", "{ckpt}", "--temperature", "nan"],
                     "temperature", id="generate-temperature-nan"),
        pytest.param(["generate", "--checkpoint", "{ckpt}", "--guidance", "nan"],
                     "guidance_scale", id="generate-guidance-nan"),
        pytest.param(["generate", "--checkpoint", "{ckpt}", "--guidance", "inf"],
                     "guidance_scale must be finite, got inf", id="generate-guidance-inf"),
    ],
)
def test_malformed_input_exits_3(trained, tmp_path, capsys, argv, message):
    wav = tmp_path / "tone.wav"
    save_wav(wav, AudioBuffer(samples=np.sin(np.arange(20000) / 5.0), sample_rate=8000))
    latin1 = tmp_path / "pattern.json"
    latin1.write_bytes('{"kind": "délai"}'.encode("latin-1"))
    paths = {"{wav}": wav, "{ckpt}": trained / "checkpoint.npz", "{latin1}": latin1}
    argv = [str(paths.get(a, a)) for a in argv]
    if argv[0] != "patterns":  # every command but patterns writes to --out
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_generate_tiny_temperature_draws_the_argmax(trained, tmp_path, capsys):
    # the sampler subtracts the max logit before dividing by the temperature,
    # so a subnormal temperature gives the argmax instead of an overflow
    argv = ["generate", "--checkpoint", str(trained / "checkpoint.npz"), "--seed", "7",
            "--temperature", "1e-320", "--out", str(tmp_path / "g")]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_env_var_default_output(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TOKENWEAVE_OUT", str(tmp_path / "envout"))
    assert main(["exactness", "--family", "product", "--T", "1", "--K", "2", "--M", "2",
                 "--patterns", "flatten"]) == 0
    assert (tmp_path / "envout" / "exactness" / "exactness.csv").exists()


def test_flatten_self_check_invariant_exit_5(tmp_path, monkeypatch):
    from tokenweave import cli as cli_mod
    from tokenweave.oracle import ExactnessRow

    # 1e-10 is far below any broken decomposition's TV, yet above the 1e-12
    # every exact pattern is held to
    for tv in (0.1, 1e-10):
        def poisoned(joint, patterns):
            return [ExactnessRow(kind="flatten", steps_exact=4, steps_nominal=4, tv=tv)]

        monkeypatch.setattr(cli_mod, "exactness_report", poisoned)
        out = tmp_path / str(tv)
        code = cli_mod.main(["exactness", "--family", "product", "--T", "1", "--K", "2",
                             "--M", "2", "--patterns", "flatten", "--out", str(out)])
        assert code == 5, tv
        # the check runs before any write, so no complete-looking run is left
        assert not (out / "exactness.csv").exists()
        assert not (out / "manifest.json").exists()


def test_family_choices_are_the_oracle_families():
    from tokenweave.oracle import JOINT_FAMILIES

    family = next(a for a in build_parser()[1]["exactness"]._actions if a.dest == "family")
    assert tuple(family.choices) == JOINT_FAMILIES


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "tokenweave" in capsys.readouterr().out


def test_train_with_flatten_pattern(tmp_path):
    out = tmp_path / "flat"
    assert main(["train", "--steps", "10", "--timesteps", "6", "--sequences", "2",
                 "--vocab", "8", "--dim", "32", "--pattern", "flatten",
                 "--out", str(out)]) == 0
    assert (out / "checkpoint.npz").exists()


def test_memorize_feeds_stored_conditions(tmp_path):
    out = tmp_path / "cond_train"
    assert main(["train", "--steps", "60", "--timesteps", "8", "--sequences", "2",
                 "--vocab", "8", "--dim", "32", "--conditioning", "chroma",
                 "--out", str(out)]) == 0
    import numpy as np
    from tokenweave.model import load_checkpoint

    ckpt = load_checkpoint(out / "checkpoint.npz")
    assert "cond/0" in ckpt.extra and "cond/1" in ckpt.extra
    assert ckpt.extra["cond/0"].shape[1] == ckpt.params.config.D
    mem_out = tmp_path / "cond_mem"
    assert main(["memorize", "--checkpoint", str(out / "checkpoint.npz"),
                 "--prompt-lens", "1,4", "--gen-len", "4", "--out", str(mem_out)]) == 0
    lines = (mem_out / "memorization.csv").read_text().splitlines()
    assert len(lines) == 3
    # a malformed stored condition exits 3, even where no token is compared
    with np.load(out / "checkpoint.npz") as data:
        arrays = {k: data[k] for k in data.files}
    D = ckpt.params.config.D
    for name, bad in (("text", np.full((2, D), "0.5")), ("nan", np.full((2, D), np.nan)),
                      ("rank1", np.ones(D)), ("wide", np.ones((2, D + 1)))):
        path = tmp_path / f"cond-{name}.npz"
        np.savez(path, **{**arrays, "x:cond/1": bad})
        bad_out = tmp_path / f"mem-{name}"
        assert main(["memorize", "--checkpoint", str(path), "--prompt-lens", "1",
                     "--gen-len", "0", "--out", str(bad_out)]) == 3
        assert not bad_out.exists()


# ---------------------------------------------------------------- malformed input


def _bad_ini_values():
    """(command, flag dest, value) for every typed flag of every subcommand,
    with a value of the wrong type."""
    for command, sub in build_parser()[1].items():
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "config"):
                continue
            if isinstance(action, (argparse._StoreTrueAction, argparse.BooleanOptionalAction)):
                yield command, action.dest, "maybe"
            elif action.type is not None:
                yield command, action.dest, "abc"
            elif action.choices is not None:
                yield command, action.dest, "bogus"
            # a free-form string flag has no wrong-typed value


BAD_INI = list(_bad_ini_values())
TRAIN_SMALL = ["train", "--steps", "2", "--timesteps", "4", "--sequences", "2", "--vocab", "8",
               "--dim", "16"]
SIZE_FLAGS = {
    "train": ["--sequences", "--timesteps", "--codebooks", "--vocab", "--d-latent", "--dim",
              "--layers", "--heads", "--steps", "--log-every"],
    "generate": ["--timesteps", "--top-k"],
    "memorize": ["--gen-len"],
    "chroma": ["--window", "--hop"],
    "patterns": ["--T", "--K"],
    "exactness": ["--T", "--K", "--M"],
}
SOURCE = {
    "train": TRAIN_SMALL[1:],
    "generate": ["--checkpoint", "{ckpt}"],
    "memorize": ["--checkpoint", "{ckpt}", "--prompt-lens", "1"],
    "chroma": ["--wav", "{tone.wav}"],
    "patterns": ["show"],
    "exactness": [],
}
BAD_CHECKPOINTS = [
    "truncated", "corrupt", "flipped", "not-json", "version", "config-mismatch", "config-bad",
    "config-unknown-key", "config-ffn-mult", "meta-list", "meta-pattern", "meta-timesteps",
    "config-fractional",
]
HUGE_CHECKPOINTS = ["config-K-huge", "config-L-huge"]
# sizes far past any grid or model: each must be refused before a table of that
# size is laid out, so these rows run in a child that caps its address space
HUGE_SIZES = {
    "generate-timesteps": ["generate", "--checkpoint", "{ckpt}", "--timesteps", "100000000"],
    "memorize-gen-len": ["memorize", "--checkpoint", "{ckpt}", "--gen-len", "100000000"],
    "memorize-prompt-lens": ["memorize", "--checkpoint", "{ckpt}", "--prompt-lens", "100000000"],
}
# train runs whose attention scores (heads x rows^2 per example, a chroma
# example's T prefix rows counted), codec-fit distances (sequences x timesteps x
# vocab) or parameters pass the budget: refused before the codec fit, which would
# not finish at these sizes, and before any parameter array exists
HUGE_TRAIN = {
    "train-dim-huge": ["train", "--dim", "4000000", "--heads", "1", "--steps", "1"],
    "train-codebooks-huge": ["train", "--codebooks", "100000", "--steps", "1"],
    "train-timesteps-huge": ["train", "--timesteps", "3000000", "--steps", "1", "--sequences", "1"],
    "train-chroma-prefix-huge": ["train", "--conditioning", "chroma", "--timesteps", "6000",
                                 "--sequences", "1", "--steps", "1"],
    "train-fit-huge": ["train", "--sequences", "20000", "--vocab", "1024", "--steps", "1"],
}
# a clip whose frame stack (frames x window) passes the budget at --hop 1
HUGE_CHROMA = {"chroma-frames-huge": ["chroma", "--wav", "{long-tone.wav}", "--hop", "1"]}
CAPPED = {*HUGE_SIZES, *HUGE_TRAIN, *HUGE_CHROMA,
          *(f"{command}-{name}" for command in ("generate", "memorize") for name in HUGE_CHECKPOINTS)}
# (argv, exit code); "{name}" stands for a file the bad_inputs fixture writes
MALFORMED = (
    [
        pytest.param([command, "--config", f"{{{command}-{dest}.ini}}"], 3,
                     id=f"ini-{command}-{dest}")
        for command, dest, _ in BAD_INI
    ]
    + [
        pytest.param([command, "--checkpoint", f"{{{name}.npz}}"], 3, id=f"{command}-{name}")
        for command in ("generate", "memorize")
        for name in BAD_CHECKPOINTS
    ]
    + [
        pytest.param(["chroma", "--wav", f"{{{name}.wav}}"], code, id=f"wav-{name}")
        for name, code in (("empty", 3), ("cut-header", 3), ("cut-frame", 0), ("8-bit", 3),
                           ("fmt-size", 3), ("3-channel", 3))
    ]
    + [
        pytest.param([command, *SOURCE[command], flag, value], 0 if ok else 3,
                     id=f"size-{command}{flag}={value}")
        for command, flags in SIZE_FLAGS.items()
        for flag in flags
        for value in ("0", "-1")
        # zero continuation steps score 1 by convention
        for ok in [(command, flag, value) == ("memorize", "--gen-len", "0")]
    ]
    + [
        pytest.param([*TRAIN_SMALL, *flags], 3, id="hyper" + "".join(flags[:-1]) + "=" + flags[-1])
        for flags in (
            ["--clip", "-1"], ["--clip", "nan"], ["--lr", "-1"], ["--lr", "nan"],
            ["--weight-decay", "-3"], ["--warmup", "-5"], ["--beta1", "1.0"], ["--beta2", "-0.1"],
            ["--lr", "inf"], ["--weight-decay", "inf"],
        )
    ]
    # EMA weights are gone: the flag is a usage error, the INI key a validation error
    + [pytest.param([*TRAIN_SMALL, "--ema"], 2, id="train--ema")]
    + [pytest.param([*TRAIN_SMALL, "--config", "{train-ema.ini}"], 3, id="ini-train-ema")]
    # argparse reads --config, so an abbreviation is a usage error, not a run on the defaults
    + [pytest.param(["exactness", "--conf", "{exactness-T.ini}"], 2, id="exactness--conf")]
    + [
        pytest.param([*argv, "--seed", "-1"], 2, id=f"{argv[0]}--seed=-1")
        for argv in (["exactness", "--family", "markov_residual"], TRAIN_SMALL,
                     ["generate", "--checkpoint", "{ckpt}"])
    ]
    + [pytest.param([*TRAIN_SMALL, "--config", "{train-seed-negative.ini}"], 3,
                    id="ini-train-seed-negative")]
    + [pytest.param(["memorize", "--checkpoint", "{ckpt}", "--prompt-lens", ","], 3,
                    id="memorize--prompt-lens=,")]
    # INI values are read literally, so a % is no interpolation syntax
    + [
        pytest.param(["exactness", "--config", f"{{exactness-{name}.ini}}"], 3,
                     id=f"ini-exactness-{name}")
        for name in ("percent", "interpolation")
    ]
    # grids of K - 1 codebooks, refused even where no token is compared
    + [pytest.param(["memorize", "--checkpoint", "{grids-narrow.npz}", "--prompt-lens", "1",
                     "--gen-len", "0"], 3, id="memorize-grids-narrow-gen-len=0")]
    # a grid token the int64 cast would change (truncate, or make up for NaN), and
    # checkpoint members that hold text where numbers belong
    + [
        pytest.param(["memorize", "--checkpoint", f"{{{name}.npz}}", "--prompt-lens", "1",
                      "--gen-len", "4"], 3, id=f"memorize-{name}")
        for name in ("grids-fractional", "grids-nan", "grids-text", "grids-rank0",
                     "grids-missing", "cond-text", "param-text", "meta-conditioned",
                     "cond-partial", "mode-conditioned")
    ]
    + [
        pytest.param(["generate", "--checkpoint", f"{{{name}.npz}}", *flags], 3,
                     id=f"generate-{name}")
        for name, flags in (("codebooks-text", ["--wav"]), ("codebooks-empty", ["--wav"]),
                            ("codebooks-zero-width", ["--wav"]), ("codebooks-missing", ["--wav"]),
                            ("param-text", []))
    ]
    # sizes whose full parameter schema would not fit in memory; run in a capped child
    + [
        pytest.param([command, "--checkpoint", f"{{{name}.npz}}"], 3, id=f"{command}-{name}")
        for command in ("generate", "memorize")
        for name in HUGE_CHECKPOINTS
    ]
    + [pytest.param(argv, 3, id=name) for name, argv in HUGE_SIZES.items()]
    + [pytest.param(argv, 4, id=name) for name, argv in {**HUGE_TRAIN, **HUGE_CHROMA}.items()]
    # JSON nested 1,000 deep, where json's decoder runs out of recursion depth
    + [pytest.param(["patterns", "validate", "--json", "{deep.json}"], 3, id="validate-deep")]
    + [
        pytest.param([command, "--checkpoint", "{header-deep.npz}"], 3,
                     id=f"{command}-header-deep")
        for command in ("generate", "memorize")
    ]
    # np.load reads a plain .npy as one array, not as an archive
    + [pytest.param(["generate", "--checkpoint", "{plain.npy}"], 3, id="generate-plain-npy")]
    # T as a fraction or a string, and an empty step after the last
    + [
        pytest.param(["patterns", "validate", "--json", f"{{{name}.json}}"], 3,
                     id=f"validate-{name}")
        for name in ("T-fractional", "T-text", "trailing-empty")
    ]
    + [pytest.param(["patterns", "validate"], 2, id="validate-no-json")]
    + [pytest.param([*TRAIN_SMALL, "--config", "{not-utf8.ini}"], 3, id="ini-not-utf8")]
    + [pytest.param(["exactness", "--patterns", ","], 3, id="exactness--patterns=,")]
    # a repeated kind would compute its law twice and write two rows under one name
    + [pytest.param(["exactness", "--patterns", "flatten,delay,flatten"], 3,
                    id="exactness--patterns=repeat")]
    # a path that cannot be opened as a file is a resource error, whichever flag names it
    + [
        pytest.param(argv, 4, id=f"dir-{argv[0]}{argv[-2]}")
        for argv in (
            ["patterns", "validate", "--json", "{dir}"],
            ["chroma", "--wav", "{dir}"],
            [*TRAIN_SMALL, "--config", "{dir}"],
            ["generate", "--checkpoint", "{dir}"],
            ["memorize", "--checkpoint", "{dir}"],
        )
    ]
)


@pytest.fixture(scope="module")
def bad_inputs(trained, tmp_path_factory):
    """Every malformed file MALFORMED names, plus a good checkpoint and WAV."""
    root = tmp_path_factory.mktemp("bad_inputs")
    files = {"{ckpt}": trained / "checkpoint.npz", "{dir}": root / "a-directory"}
    (root / "a-directory").mkdir()

    def put(name, data: bytes):
        files[f"{{{name}}}"] = root / name
        (root / name).write_bytes(data)

    for command, dest, value in BAD_INI:
        put(f"{command}-{dest}.ini", f"[{command}]\n{dest} = {value}\n".encode())
    put("not-utf8.ini", "[train]\n# déjà\n".encode("latin-1"))
    put("train-ema.ini", b"[train]\nema = yes\n")
    put("train-seed-negative.ini", b"[train]\nseed = -1\n")
    put("exactness-percent.ini", b"[exactness]\nT = 5%\n")
    put("exactness-interpolation.ini", b"[exactness]\nfamily = %(missing)s\n")

    good = (trained / "checkpoint.npz").read_bytes()
    put("truncated.npz", good[: len(good) // 2])
    put("corrupt.npz", np.random.default_rng(0).bytes(len(good)))
    mid = len(good) // 2
    flipped = bytes(b ^ 0xFF for b in good[mid : mid + 64])
    put("flipped.npz", good[:mid] + flipped + good[mid + 64 :])
    with np.load(trained / "checkpoint.npz") as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(str(arrays["__header__"]))

    def craft(name, text):
        files[f"{{{name}.npz}}"] = root / f"{name}.npz"
        np.savez(root / f"{name}.npz", **{**arrays, "__header__": np.array(text)})

    craft("not-json", "{not json")
    craft("header-deep", "[" * 1000 + "]" * 1000)
    put("deep.json", b"[" * 1000 + b"]" * 1000)
    nan_grids = arrays["x:grids"].astype(np.float64)
    nan_grids[0, 0, 0] = np.nan
    for name, member, value in (
        ("grids-fractional", "x:grids", arrays["x:grids"] + 0.5),
        ("grids-nan", "x:grids", nan_grids),
        ("grids-text", "x:grids", arrays["x:grids"].astype(str)),
        ("codebooks-text", "x:codebooks", arrays["x:codebooks"].astype(str)),
        ("codebooks-empty", "x:codebooks", arrays["x:codebooks"][:0]),
        ("codebooks-zero-width", "x:codebooks", arrays["x:codebooks"][:, :, :0]),
        ("grids-rank0", "x:grids", np.array(3)),
        ("grids-narrow", "x:grids", arrays["x:grids"][:, :, :-1]),
        # a condition for sequence 0 only: a conditioned run saves one for every sequence
        ("cond-partial", "x:cond/0", np.zeros((2, header["config"]["D"]))),
        ("cond-text", "x:cond/0", np.full((2, header["config"]["D"]), "0.5")),
        ("param-text", "p:head.k0.b", arrays["p:head.k0.b"].astype(str)),
    ):
        files[f"{{{name}.npz}}"] = root / f"{name}.npz"
        np.savez(root / f"{name}.npz", **{**arrays, member: value})
    for name, member in (("grids-missing", "x:grids"), ("codebooks-missing", "x:codebooks")):
        files[f"{{{name}.npz}}"] = root / f"{name}.npz"
        np.savez(root / f"{name}.npz", **{k: v for k, v in arrays.items() if k != member})
    files["{plain.npy}"] = root / "plain.npy"
    np.save(root / "plain.npy", arrays["x:grids"])
    for name, changes in (
        ("version", {"version": 99}),
        ("config-mismatch", {"config": {**header["config"], "D": 2 * header["config"]["D"]}}),
        ("config-bad", {"config": {**header["config"], "H": 0}}),
        ("config-unknown-key", {"config": {**header["config"], "turbo": 1}}),
        ("config-ffn-mult", {"config": {**header["config"], "ffn_mult": 8}}),
        ("meta-list", {"meta": ["delay"]}),
        ("meta-pattern", {"meta": {**header["meta"], "pattern": "bogus"}}),
        ("meta-timesteps", {"meta": {**header["meta"], "timesteps": "abc"}}),
        ("config-fractional", {"config": {**header["config"], "K": 4.5}}),
        ("meta-conditioned", {"meta": {**header["meta"], "conditioning": "text"}}),
        # a prefix model has the same parameter set as an unconditioned one
        ("mode-conditioned", {"config": {**header["config"], "conditioning_mode": "prefix"}}),
        ("config-K-huge", {"config": {**header["config"], "K": 10**9}}),
        ("config-L-huge", {"config": {**header["config"], "L": 10**9}}),
    ):
        craft(name, json.dumps({**header, **changes}))
    # a full cross-attention parameter set under "both", a mode name no model has
    cross = init_params(ModelConfig(**{**header["config"], "conditioning_mode": "cross_attention"}),
                        seed=0)
    both = {**header, "config": {**header["config"], "conditioning_mode": "both"}}
    files["{mode-both.npz}"] = root / "mode-both.npz"
    params = {f"p:{n}": a for n, a in cross.arrays.items()}
    np.savez(root / "mode-both.npz",
             **{**arrays, **params, "__header__": np.array(json.dumps(both))})

    tone = root / "tone.wav"
    save_wav(tone, AudioBuffer(samples=np.sin(np.arange(20000) / 5.0), sample_rate=8000))
    files["{tone.wav}"] = tone
    files["{long-tone.wav}"] = root / "long-tone.wav"
    save_wav(files["{long-tone.wav}"],
             AudioBuffer(samples=np.sin(np.arange(40000) / 5.0), sample_rate=8000))
    put("empty.wav", b"")
    put("cut-header.wav", tone.read_bytes()[:30])
    put("cut-frame.wav", tone.read_bytes()[:-1])
    put("fmt-size.wav", tone.read_bytes()[:16] + b"\xff" + tone.read_bytes()[17:])
    for name, T, tail in (("T-fractional", 2.5, []), ("T-text", "2", []),
                          ("trailing-empty", 2, [[]])):
        steps = [[], [[1, 1]], [[2, 1]], *tail]
        put(f"{name}.json", json.dumps({"kind": None, "T": T, "K": 1, "steps": steps}).encode())
    for name, channels, width in (("8-bit", 1, 1), ("3-channel", 3, 2)):
        files[f"{{{name}.wav}}"] = root / f"{name}.wav"
        with wave.open(str(root / f"{name}.wav"), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(8000)
            wf.writeframes(bytes(range(256)) * 80 * channels * width)
    return files


def _resolve(argv, files, out):
    """argv with each "{name}" replaced by its file, and --out for a command
    that writes a run directory."""
    argv = [str(files.get(a, a)) for a in argv]
    return argv if argv[0] == "patterns" else [*argv, "--out", str(out)]


@pytest.fixture(scope="module")
def capped_runs(bad_inputs, tmp_path_factory):
    """(exit code, stderr, run directory) of each CAPPED row of MALFORMED, all
    run in one child that caps its address space."""
    root = tmp_path_factory.mktemp("capped")
    rows = [(row.id, row.values[0], root / row.id / "o") for row in MALFORMED
            if row.id in CAPPED]
    results = run_capped([_resolve(argv, bad_inputs, out) for _, argv, out in rows])
    return {name: (*result, out) for (name, _, out), result in zip(rows, results)}


@pytest.mark.parametrize("argv,code", MALFORMED)
def test_malformed_input_never_ends_in_a_traceback(bad_inputs, tmp_path, capsys, request,
                                                   argv, code):
    # warnings are errors under this suite's settings, so a warning counts too
    name = request.node.callspec.id
    if name in CAPPED:
        got, err, out = request.getfixturevalue("capped_runs")[name]
    else:
        out = tmp_path / "o"
        got, err = main(_resolve(argv, bad_inputs, out)), capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    if code:  # a run that fails its checks makes no run directory
        assert not out.exists()


def test_chroma_refuses_a_frame_stack_over_the_budget(capped_runs):
    # 23,617 frames of 16,384 samples: 2.9 GiB of float64 before the FFT
    code, err, _ = capped_runs["chroma-frames-huge"]
    assert code == 4 and "would hold 386940928 entries (budget 268435456)" in err, err


def test_train_counts_chroma_prefix_rows_in_the_score_budget(capped_runs):
    # 6,003 delay steps alone pass (4 x 6003^2 < 2^28); with the 6,000 prefix
    # rows a grad pass would ask for a (1, 4, 12003, 12003) score array
    code, err, _ = capped_runs["train-chroma-prefix-huge"]
    assert code == 4 and "would hold 576288036 entries (budget 268435456)" in err, err
    assert "out of memory" not in err


def test_train_refuses_a_codec_fit_over_the_distance_budget(capped_runs):
    # 20,000 sequences of 24 frames against 1,024 centroids: the fit's k-means
    # would lay out a (480000, 1024) distance array, 3.66 GiB
    code, err, _ = capped_runs["train-fit-huge"]
    assert code == 4 and "would hold 491520000 entries (budget 268435456)" in err, err
    assert "out of memory" not in err


def test_checkpoint_in_mode_both_exits_3_naming_the_modes(bad_inputs, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(_resolve(["generate", "--checkpoint", "{mode-both.npz}"], bad_inputs, out)) == 3
    err = capsys.readouterr().err
    assert f"conditioning_mode must be one of {CONDITIONING_MODES}" in err
    assert "unreadable" not in err
    assert "Traceback" not in err and not out.exists()


def test_zero_width_cascade_exits_3_naming_the_width(bad_inputs, tmp_path, capsys):
    # at width 0 every decoded frame is equally near each anchor: all would sound as class 0
    out = tmp_path / "o"
    argv = ["generate", "--checkpoint", "{codebooks-zero-width.npz}", "--wav"]
    assert main(_resolve(argv, bad_inputs, out)) == 3
    err = capsys.readouterr().err
    assert re.search(r"\(K, M, width\) = \(\d+, \d+, 0\)", err), err
    assert "Traceback" not in err and not out.exists()


def test_every_model_mode_has_a_train_route():
    assert set(CONDITIONING_ROUTES.values()) == set(CONDITIONING_MODES)


@pytest.mark.parametrize(
    "flags",
    [["--heads", "5"], ["--layers", "0"], ["--lr", "inf"], ["--cfg-drop", "2"],
     ["--pattern", "stereo_delay", "--codebooks", "3"]],
    ids=lambda flags: "=".join(flags[:2]),
)
def test_train_checks_every_flag_before_the_codec_fit(monkeypatch, tmp_path, capsys, flags):
    def fit(*args, **kwargs):
        raise AssertionError("the codec fit ran before every flag was checked")

    monkeypatch.setattr(cli, "make_corpus", fit)
    out = tmp_path / "o"
    assert main([*TRAIN_SMALL, *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag,name", [("--lr", "lr_max"), ("--weight-decay", "weight_decay")])
def test_train_refuses_an_infinite_step_or_decay_before_training(tmp_path, capsys, flag, name):
    out = tmp_path / "o"
    assert main([*TRAIN_SMALL, flag, "inf", "--out", str(out)]) == 3
    assert f"{name} must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_train_takes_an_infinite_clip_as_no_clipping(tmp_path):
    assert main([*TRAIN_SMALL, "--clip", "inf", "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------- checkpoint sweep

SWEEP_SEED = 23
SWEEP_VALUES = (0, -1, 2.5, "x", None, 10**9, True)
# what of a checkpoint only one command reads; both read the rest
READERS = {"meta.timesteps": ("generate",), "meta.conditioning": ("memorize",),
           "x:codebooks": ("generate",), "x:grids": ("memorize",)}
# the flags of each run on a mutant; a memorize run that compares no token reads
# the checkpoint as fully as one that does
SWEEP_FLAGS = {"generate": [["--wav"]],
               "memorize": [["--prompt-lens", "1", "--gen-len", "4"],
                            ["--prompt-lens", "1", "--gen-len", "0"]]}
# a cap on the step count: nothing is sized by it, so the checkpoint is well formed
WELL_FORMED = {"config.max_steps=1000000000"}


def _checkpoint_mutants(arrays, rng):
    """(what, change, archive members) for each mutant of a checkpoint: every
    header version, config and command-read meta value set to each
    SWEEP_VALUES entry, and every member given a non-numeric dtype, another
    rank, or removed. The meta keys no command reads are a free-form record."""
    header = json.loads(str(arrays["__header__"]))
    fields = [("version", None), *(("config", k) for k in header["config"]),
              *(("meta", k) for k in ("pattern", "timesteps", "conditioning"))]
    for section, key in fields:
        for value in SWEEP_VALUES:
            changed = json.loads(json.dumps(header))
            if key is None:
                changed[section] = value
            else:
                changed[section][key] = value
            members = {**arrays, "__header__": np.array(json.dumps(changed))}
            yield section if key is None else f"{section}.{key}", f"={value}", members
    for member, arr in arrays.items():
        kinds = ["S", "O"] if arr.dtype.kind == "U" else ["U", "S", "c16", "O"]
        yield member, ":dtype", {**arrays, member: arr.astype(rng.choice(kinds))}
        ndim = int(rng.choice([n for n in range(4) if n != arr.ndim]))
        reranked = (arr.reshape((1,) * (ndim - arr.ndim) + arr.shape) if ndim > arr.ndim
                    else arr.reshape(arr.shape[: ndim - 1] + (-1,)) if ndim else arr.ravel()[0])
        yield member, f":rank{ndim}", {**arrays, member: np.asarray(reranked)}
        yield member, ":absent", {k: v for k, v in arrays.items() if k != member}


def test_checkpoint_mutant_sweep_never_ends_in_a_traceback(trained, tmp_path):
    # all mutants run in one child that caps its own address space, since a
    # size of 10**9 may allocate before a check rejects it
    with np.load(trained / "checkpoint.npz") as data:
        arrays = {k: data[k] for k in data.files}
    runs = []
    mutants = _checkpoint_mutants(arrays, np.random.default_rng(SWEEP_SEED))
    for i, (what, change, members) in enumerate(mutants):
        path = tmp_path / f"m{i}.npz"
        np.savez(path, **members)
        for command in READERS.get(what, ("generate", "memorize")):
            for j, flags in enumerate(SWEEP_FLAGS[command]):
                out = tmp_path / f"o{i}-{command}{j}"
                argv = [command, "--checkpoint", str(path), *flags, "--out", str(out)]
                runs.append((" ".join([command, *flags]), what + change, out, argv))
    results = run_capped([argv for *_, argv in runs])
    assert len(results) == len(runs) == 606
    failures = []
    for (command, mutant, out, _), (code, err) in zip(runs, results):
        want = (0,) if mutant in WELL_FORMED else (3, 4)
        if code not in want or "Traceback" in err or (code and out.exists()):
            failures.append(f"{command} {mutant}: exit {code}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------- WAV sweep

WAV_SWEEP_SEED = 29
# each field of the 44-byte header save_wav writes: name -> (offset, width)
WAV_FIELDS = {"riff_size": (4, 4), "fmt_size": (16, 4), "format": (20, 2), "channels": (22, 2),
              "rate": (24, 4), "byte_rate": (28, 4), "block_align": (32, 2), "bits": (34, 2),
              "data_size": (40, 4)}
# the sweep's sonified source: 3 frames, analysed with window = hop = one frame
WAV_CLASSES = [9, 0, 4]
WAV_FLAGS = ["--window", "4096", "--hop", "4096"]


def _wav_mutants(data: bytes, rng):
    """(what, bytes) of each mutant of a WAV file: every header field set to
    each extreme value, header bytes xored, the file cut short, and junk
    chunks of odd names and sizes inserted before the fmt or the data chunk."""
    for name, (at, width) in WAV_FIELDS.items():
        top = 256**width - 1
        for value in (0, 1, 2, 3, 255, top // 2, top // 2 + 1, top - 1, top):
            yield f"{name}={value}", data[:at] + value.to_bytes(width, "little") + data[at + width:]
    for _ in range(500):
        flipped = bytearray(data)
        at = rng.choice(44, size=int(rng.integers(1, 4)), replace=False)
        for a in at:
            flipped[a] ^= int(rng.integers(1, 256))
        yield f"xor@{sorted(at.tolist())}", bytes(flipped)
    for cut in sorted({*rng.integers(0, len(data), 60).tolist(), *range(0, 49)}):
        yield f"cut{cut}", data[:cut]
    for _ in range(250):
        at = int(rng.choice([12, 36]))
        ident = [b"junk", b"LIST", b"fmt ", b"data", b"\x00" * 4, rng.bytes(4)][rng.integers(6)]
        size = int(rng.choice([0, 1, 7, 8, 16, 255, len(data), 2**31 - 1, 2**32 - 1]))
        chunk = ident + size.to_bytes(4, "little") + rng.bytes(min(size, int(rng.integers(0, 40))))
        yield f"chunk@{at}:{ident!r}+{size}", data[:at] + chunk + data[at:]


def test_wav_mutant_sweep_never_ends_in_a_traceback(tmp_path):
    # one child that caps its own address space runs every mutant: a header
    # field may claim a size that no file backs
    source = tmp_path / "source.wav"
    save_wav(source, sonify_classes(WAV_CLASSES))
    runs = []
    mutants = _wav_mutants(source.read_bytes(), np.random.default_rng(WAV_SWEEP_SEED))
    for i, (what, data) in enumerate(mutants):
        path = tmp_path / f"m{i}.wav"
        path.write_bytes(data)
        out = tmp_path / f"o{i}"
        runs.append((what, out, ["chroma", "--wav", str(path), *WAV_FLAGS, "--out", str(out)]))
    results = run_capped([argv for *_, argv in runs])
    assert len(results) == len(runs) == 939
    failures = []
    for (mutant, out, _), (code, err) in zip(runs, results):
        complete = (out / "manifest.json").exists() and (out / "chroma.json").exists()
        if code not in (0, 3, 4) or "Traceback" in err or (out.exists() if code else not complete):
            failures.append(f"{mutant}: exit {code}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------- pattern-document sweep

PATTERN_SWEEP_SEED = 37
# a value of the wrong type or size for any key or coordinate of a document
DOC_VALUES = (None, True, False, 0, -1, 2.5, 2**31, 2**63, 10**30, "2", "delay", [], [[]], {},
              [1, 1])


def _pattern_mutants(doc: dict, rng):
    """(what, bytes) of each mutant of a pattern document: every key set to
    each DOC_VALUES entry, removed, or joined by a stray key; the document
    replaced by a bare value or nested deep; coordinates set to a hostile
    value or shape, moved, repeated or dropped; and the text cut short or
    byte-flipped."""
    for key in doc:
        for value in DOC_VALUES:
            yield f"{key}={value!r}", json.dumps({**doc, key: value}).encode()
        yield f"-{key}", json.dumps({k: v for k, v in doc.items() if k != key}).encode()
    yield "+extra", json.dumps({**doc, "extra": 1}).encode()
    for value in DOC_VALUES:
        yield f"doc={value!r}", json.dumps(value).encode()
    head = json.dumps({k: v for k, v in doc.items() if k != "steps"})[:-1]
    for depth in (2, 10, 1000, 10**5):
        yield f"deep-steps{depth}", f'{head}, "steps": {"[" * depth}{"]" * depth}}}'.encode()
        yield f"deep-doc{depth}", b"[" * depth + json.dumps(doc).encode() + b"]" * depth
    places = [(s, i) for s, step in enumerate(doc["steps"]) for i in range(len(step))]
    for _ in range(1000):
        steps = json.loads(json.dumps(doc["steps"]))
        s, i = places[rng.integers(len(places))]
        to = int(rng.integers(len(steps) + 1))  # a step, or one past the last
        steps.append([])
        op = int(rng.integers(5))
        if op == 0:  # one past the grid, or a value of the wrong type
            axis = int(rng.integers(2))
            values = [[doc["T"], doc["K"]][axis] + 1, *DOC_VALUES]
            steps[s][i][axis] = values[rng.integers(len(values))]
        elif op == 1:
            steps[s][i] = [[1], [1, 1, 1], "ab", {}, None, 3][rng.integers(6)]
        elif op == 2:
            steps[to].append(steps[s].pop(i))
        elif op == 3:
            steps[to].append(steps[s][i])
        else:
            steps[s].pop(i)
        if not steps[-1] and rng.random() < 0.8:
            steps.pop()
        yield f"coords-op{op}@{s}.{i}->{to}", json.dumps({**doc, "steps": steps}).encode()
    text = json.dumps(doc).encode()
    for cut in range(len(text)):
        yield f"cut{cut}", text[:cut]
    for _ in range(300):
        flipped = bytearray(text)
        for at in rng.choice(len(text), size=int(rng.integers(1, 4)), replace=False):
            flipped[at] ^= int(rng.integers(1, 256))
        yield "xor", bytes(flipped)


def test_pattern_document_sweep_never_ends_in_a_traceback(tmp_path):
    # one child that caps its own address space runs every mutant: a document
    # may claim a grid of any size
    doc = json.loads(pattern_to_json(build_pattern(PatternKind.DELAY, 3, 3)))
    runs = []
    mutants = _pattern_mutants(doc, np.random.default_rng(PATTERN_SWEEP_SEED))
    for i, (what, data) in enumerate(mutants):
        path = tmp_path / f"m{i}.json"
        path.write_bytes(data)
        runs.append((what, ["patterns", "validate", "--json", str(path)]))
    results = run_capped([argv for _, argv in runs])
    assert len(results) == len(runs) == 1518
    failures = [f"{what}: exit {code}: {err.strip()[-300:]}"
                for (what, _), (code, err) in zip(runs, results)
                if code not in (0, 3) or "Traceback" in err]
    assert not failures, "\n".join(failures)
    assert 0 < sum(code == 0 for code, _ in results) < len(results)


# ---------------------------------------------------------------- INI sweep

INI_SWEEP_SEED = 41
INI_FILES = 200  # per subcommand
# values of the wrong type, range or form for any flag, and INI syntax that
# reads as something else under interpolation
INI_VALUES = ("", "0", "-1", "1", "2", "7", "1000000000", "2.5", "1e309", "nan", "inf", "-inf",
              "yes", "maybe", "delay", "flatten", "diagonal", "text", "%", "5%", "%(missing)s",
              "%%", "$x", "ü", "x" * 300, "None", "[1]", "0x10")
# each subcommand's run apart from its config file; a flag here overrides the
# file's value, so no file can make the run large
INI_SOURCE = {**SOURCE, "chroma": ["--wav", "{short.wav}"],
              "memorize": [*SOURCE["memorize"], "--gen-len", "4"]}


def _ini_mutants(command: str, dests: list[str], rng):
    """(what, bytes) of each INI file fed to one subcommand: one to four lines
    under the command's section, another's, DEFAULT or none, each setting a
    flag, a variant of its name or a stray key to an INI_VALUES entry, or
    written as a line INI syntax refuses; some files are then cut short, lose
    their UTF-8, or gain a byte-order mark or a NUL."""
    keys = [*dests, *(d.replace("_", "-") for d in dests), *(d.upper() for d in dests),
            "turbo", "out", "config", "help", "command"]
    own = f"[{command}]"
    sections = [own] * 4 + ["[DEFAULT]", "[train]", "[x]", f"{own}\n{own}", ""]
    forms = ["{k} = {v}", "{k} = {v}", "{k}: {v}", "{k}", "= {v}", "  {v}", "{k} = {v}\n  {v}",
             "; {v}"]
    for _ in range(INI_FILES):
        lines = [sections[rng.integers(len(sections))]]
        for _ in range(int(rng.integers(1, 5))):
            key = keys[rng.integers(len(keys))]
            value = INI_VALUES[rng.integers(len(INI_VALUES))]
            lines.append(forms[rng.integers(len(forms))].format(k=key, v=value))
        data = ("\n".join(lines) + "\n").encode()
        tweak = int(rng.integers(8))
        if tweak == 0:
            data = data[: int(rng.integers(len(data) + 1))]
        elif tweak == 1:
            data = data.decode().encode("latin-1", "replace") + b"\xe9\n"
        elif tweak == 2:
            data = "\ufeff".encode() + data
        elif tweak == 3:
            at = int(rng.integers(len(data) + 1))
            data = data[:at] + b"\x00" + data[at:]
        yield f"{command}#{tweak}:{data[:60]!r}", data


def test_ini_sweep_never_ends_in_a_traceback(bad_inputs, tmp_path):
    # every subcommand's --config, in one child that caps its own address space
    short = tmp_path / "short.wav"
    save_wav(short, sonify_classes([9, 0, 4, 7]))  # one default window
    files = {**bad_inputs, "{short.wav}": short}
    rng = np.random.default_rng(INI_SWEEP_SEED)
    runs = []
    for command, sub in build_parser()[1].items():
        dests = [a.dest for a in sub._actions]
        for i, (what, data) in enumerate(_ini_mutants(command, dests, rng)):
            path = tmp_path / f"{command}{i}.ini"
            path.write_bytes(data)
            out = tmp_path / f"o-{command}{i}"
            argv = [command, *INI_SOURCE[command], "--config", str(path)]
            runs.append((what, out, _resolve(argv, files, out)))
    results = run_capped([argv for *_, argv in runs])
    assert len(results) == len(runs) == 6 * INI_FILES
    failures = []
    for (what, out, argv), (code, err) in zip(runs, results):
        complete = argv[0] == "patterns" or (out / "manifest.json").exists()  # patterns writes none
        if (code not in (0, 2, 3, 4) or "Traceback" in err
                or (out.exists() if code else not complete)):
            failures.append(f"{what}: exit {code}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
