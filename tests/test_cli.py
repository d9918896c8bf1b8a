import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tokenweave.cli import main
from tokenweave.conditioning import AudioBuffer, save_wav

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
    assert "violation" in capsys.readouterr().out


def test_validate_good_pattern_exits_0(tmp_path, capsys):
    from tokenweave.patterns import PatternKind, build_pattern, pattern_to_json

    path = tmp_path / "ok.json"
    path.write_text(pattern_to_json(build_pattern(PatternKind.DELAY, 3, 2)))
    assert main(["patterns", "validate", "--json", str(path)]) == 0


def test_validate_missing_file_exits_4(tmp_path):
    assert main(["patterns", "validate", "--json", str(tmp_path / "nope.json")]) == 4


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
    assert log[0] == "step,lr,loss,accuracy"
    assert len(log) > 2
    manifest = json.loads((trained / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"checkpoint.npz", "train_log.csv"}
    assert manifest["config"]["steps"] == 80


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


def test_checkpoint_not_npz_exits_3(tmp_path, capsys):
    bad = tmp_path / "notes.npz"
    bad.write_text("not a checkpoint\n")
    assert main(["generate", "--checkpoint", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_memorize_report(trained, tmp_path):
    out = tmp_path / "mem"
    assert main(["memorize", "--checkpoint", str(trained / "checkpoint.npz"),
                 "--prompt-lens", "1,2,4", "--gen-len", "4", "--gnuplot",
                 "--out", str(out)]) == 0
    lines = (out / "memorization.csv").read_text().splitlines()
    assert lines[0] == "prompt_len,exact_match,partial_match,n_examples"
    assert len(lines) == 4
    for line in lines[1:]:
        _, exact, partial, n = line.split(",")
        assert float(partial) >= float(exact)
        assert n == "2"
    assert (out / "memorization.dat").exists()


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


def test_config_file_unknown_key_exits_3(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[patterns]\nturbo = yes\n")
    assert main(["patterns", "bench", "--config", str(cfg)]) == 3


@pytest.mark.parametrize("key,value", [("pattern", "bogus"), ("steps", "abc"), ("ema", "maybe")])
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
