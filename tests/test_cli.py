import argparse
import json
import os
import subprocess
import sys
import wave
import zipfile
from pathlib import Path

import numpy as np
import pytest

from tokenweave.cli import build_parser, main
from tokenweave.conditioning import AudioBuffer, save_wav
from tokenweave.model import load_checkpoint
from tokenweave.oracle import exactness_report, make_joint
from tokenweave.patterns import PatternKind, build_pattern

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_bench_reproduces_step_count_table(tmp_path):
    proc = run_cli(["patterns", "bench", "--T", "1500", "--K", "4", "--as-json"], tmp_path)
    assert proc.returncode == 0
    table = json.loads(proc.stdout)
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


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["generate", "--checkpoint", "{ckpt}", "--timesteps", "100000000"],
                     id="generate-timesteps"),
        pytest.param(["train", "--dim", "4000000", "--heads", "1", "--timesteps", "16", "--vocab",
                      "4", "--steps", "1", "--sequences", "1"], id="train-dim"),
    ],
)
def test_out_of_memory_exits_4(trained, tmp_path, argv):
    argv = [str(trained / "checkpoint.npz") if a == "{ckpt}" else a for a in argv]
    [(code, err)] = run_capped([[*argv, "--out", str(tmp_path / "o")]])
    assert code == 4, err
    assert "out of memory" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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

    def poisoned(joint, patterns):
        return [ExactnessRow(kind="flatten", steps_exact=4, steps_nominal=4, tv=0.1)]

    monkeypatch.setattr(cli_mod, "exactness_report", poisoned)
    code = cli_mod.main(["exactness", "--family", "product", "--T", "1", "--K", "2",
                         "--M", "2", "--patterns", "flatten", "--out", str(tmp_path / "o")])
    assert code == 5


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
                            ("codebooks-missing", ["--wav"]), ("param-text", []))
    ]
    # sizes whose full parameter schema would not fit in memory; run in a capped child
    + [
        pytest.param([command, "--checkpoint", f"{{{name}.npz}}"], 3, id=f"{command}-{name}")
        for command in ("generate", "memorize")
        for name in HUGE_CHECKPOINTS
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
    nan_grids = arrays["x:grids"].astype(np.float64)
    nan_grids[0, 0, 0] = np.nan
    for name, member, value in (
        ("grids-fractional", "x:grids", arrays["x:grids"] + 0.5),
        ("grids-nan", "x:grids", nan_grids),
        ("grids-text", "x:grids", arrays["x:grids"].astype(str)),
        ("codebooks-text", "x:codebooks", arrays["x:codebooks"].astype(str)),
        ("codebooks-empty", "x:codebooks", arrays["x:codebooks"][:0]),
        ("grids-rank0", "x:grids", np.array(3)),
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

    tone = root / "tone.wav"
    save_wav(tone, AudioBuffer(samples=np.sin(np.arange(20000) / 5.0), sample_rate=8000))
    files["{tone.wav}"] = tone
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


@pytest.mark.parametrize("argv,code", MALFORMED)
def test_malformed_input_never_ends_in_a_traceback(bad_inputs, tmp_path, capsys, argv, code):
    # warnings are errors under this suite's settings, so a warning counts too
    capped = any(f"{{{name}.npz}}" in argv for name in HUGE_CHECKPOINTS)
    argv = [str(bad_inputs.get(a, a)) for a in argv]
    if argv[0] != "patterns":
        argv += ["--out", str(tmp_path / "o")]
    got, err = run_capped([argv])[0] if capped else (main(argv), capsys.readouterr().err)
    assert got == code, err
    assert "Traceback" not in err
    if code:  # a run that fails its checks makes no run directory
        assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- checkpoint sweep

SWEEP_SEED = 23
SWEEP_VALUES = (0, -1, 2.5, "x", None, 10**9)
# what of a checkpoint only one command reads; both read the rest
READERS = {"meta.timesteps": ("generate",), "meta.conditioning": ("memorize",),
           "x:codebooks": ("generate",), "x:grids": ("memorize",)}
SWEEP_FLAGS = {"generate": ["--wav"], "memorize": ["--prompt-lens", "1", "--gen-len", "4"]}
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
            out = tmp_path / f"o{i}-{command}"
            argv = [command, "--checkpoint", str(path), *SWEEP_FLAGS[command], "--out", str(out)]
            runs.append((command, what + change, out, argv))
    results = run_capped([argv for *_, argv in runs])
    assert len(results) == len(runs) == 384
    failures = []
    for (command, mutant, out, _), (code, err) in zip(runs, results):
        want = (0,) if mutant in WELL_FORMED else (3, 4)
        if code not in want or "Traceback" in err or (code and out.exists()):
            failures.append(f"{command} {mutant}: exit {code}: {err.strip()[-300:]}")
    assert not failures, "\n".join(failures)
