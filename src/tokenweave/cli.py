"""Experiment runner: reproducible pipelines over the library modules.

Every artifact-producing command writes exactly one manifest.json recording
the full configuration, seed, sha256 of each artifact, wall-clock timing and
tool version; re-running with the same configuration reproduces the artifacts
byte for byte.

Exit codes: 0 ok, 2 usage, 3 validation (bad inputs, malformed files),
4 guard/resource (table guards, missing files), 5 internal invariant breach.

Flags default to the reference hyperparameters where one exists: top-k 250,
temperature 1.0, guidance 3.0, condition drop 0.2, merge 0.25, description
drop 0.5, word drop 0.3, chroma window 2^14 and hop 2^12, betas 0.9/0.95,
weight decay 0.1, gradient clip 1.0. Config files are INI sections named
after the subcommand; explicit flags override file values.

TOKENWEAVE_OUT sets the default output directory root.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    class_anchor_latents,
    latents_to_classes,
    memorization_report,
    sonify_classes,
)
from .conditioning import (
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    ConditioningTensor,
    PreprocessConfig,
    TextAnnotation,
    chroma_to_condition,
    compute_chromagram,
    encode_text_toy,
    load_wav,
    merge_conditions,
    quantize_chroma,
    quantized_chroma_to_json,
    save_wav,
    text_normalize,
    word_dropout,
)
from .corpus import make_corpus
from .errors import GuardError, InvariantError, ValidationError
from .model import (
    AdamWState,
    EMAWeights,
    ModelConfig,
    TrainHyper,
    example_from_grid,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
    write_atomically,
)
from .oracle import exactness_report, make_joint
from .patterns import (
    PatternKind,
    STEREO_KINDS,
    TokenGrid,
    build_pattern,
    format_pattern,
    grid_to_csv,
    pattern_from_json,
    step_counts,
    validate_pattern,
)
from .rvq import Codebook, RVQConfig, rvq_decode
from .sampling import SamplerConfig, generate

FLATTEN_SELF_CHECK_TV = 1e-9

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5


def _default_out(command: str) -> Path:
    return Path(os.environ.get("TOKENWEAVE_OUT", "runs")) / command


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    seed,
    artifacts: list[Path],
    t0: float,
    timings_extra: dict | None = None,
) -> Path:
    timings = {"wall_seconds": round(time.time() - t0, 6)}
    timings.update(timings_extra or {})
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
        "timings": timings,
    }
    path = out_dir / "manifest.json"
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomically(path, lambda fh: fh.write(text.encode()))
    return path


def _args_config(args, skip=("func", "command", "config", "out")) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and not callable(v)}


def _parse_kinds(text: str, K: int) -> list[PatternKind]:
    kinds = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            kinds.append(PatternKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in PatternKind)
            raise ValidationError(f"unknown pattern kind {name!r}; choose from {valid}")
    for kind in kinds:
        if kind in STEREO_KINDS and K % 2:
            raise ValidationError(f"{kind.value} needs an even K, got {K}")
    return kinds


# ---------------------------------------------------------------- patterns


def cmd_patterns(args) -> int:
    if args.action == "show":
        pattern = build_pattern(PatternKind(args.kind), args.T, args.K)
        print(format_pattern(pattern))
        return EXIT_OK
    if args.action == "validate":
        path = Path(args.json)
        if not path.exists():
            raise GuardError(f"pattern file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"pattern file {path} is not UTF-8 text: {exc}") from exc
        pattern = pattern_from_json(text)
        report = validate_pattern(pattern)
        if report.ok:
            print("ok")
            return EXIT_OK
        for violation in report.violations:
            print(f"violation: {violation}")
        return EXIT_VALIDATION
    # bench
    rows = []
    for kind in PatternKind:
        if kind in STEREO_KINDS and args.K % 2:
            continue
        counts = step_counts(build_pattern(kind, args.T, args.K))
        rows.append((kind.value, counts.exact, counts.nominal))
    if args.as_json:
        print(json.dumps({k: {"exact": e, "nominal": n} for k, e, n in rows}, indent=2))
    else:
        width = max(len(r[0]) for r in rows)
        print(f"{'pattern'.ljust(width)}  exact  nominal")
        for kind, exact, nominal in rows:
            print(f"{kind.ljust(width)}  {exact:5d}  {nominal:7d}")
    return EXIT_OK


# ---------------------------------------------------------------- exactness


def cmd_exactness(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out) if args.out else _default_out("exactness")
    out_dir.mkdir(parents=True, exist_ok=True)
    kinds = _parse_kinds(args.patterns, args.K)
    joint = make_joint(args.family, args.T, args.K, args.M, seed=args.seed)
    rows = exactness_report(joint, [build_pattern(k, args.T, args.K) for k in kinds])

    csv_path = out_dir / "exactness.csv"
    lines = ["pattern,steps_exact,steps_nominal,tv"]
    for row in rows:
        lines.append(f"{row.kind},{row.steps_exact},{row.steps_nominal},{row.tv:.12g}")
    csv_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    _write_manifest(out_dir, "exactness", _args_config(args), args.seed, [csv_path], t0)

    for row in rows:
        if row.kind == PatternKind.FLATTEN.value and row.tv > FLATTEN_SELF_CHECK_TV:
            raise InvariantError(
                f"flatten pattern induced TV {row.tv}; the exact decomposition broke"
            )
    return EXIT_OK


# ---------------------------------------------------------------- train


def _build_conditions(args, corpus, model_config, rng):
    """Per-sequence conditions for the chosen conditioning route; text gets a
    fresh augmentation pass per call (merging, normalization, word dropout)."""
    if args.conditioning == "none":
        return [None] * len(corpus.grids)
    if args.conditioning == "chroma":
        anchors = class_anchor_latents(corpus.config.d_latent)
        return [
            chroma_to_condition(latents_to_classes(lf, anchors), model_config.D)
            for lf in corpus.latents
        ]
    prep = PreprocessConfig()
    conditions = []
    for i in range(len(corpus.grids)):
        ann = TextAnnotation(
            description=f"synthetic ar1 clip {i}",
            tags={"index": str(i), "family": "ar1"},
        )
        text = word_dropout(text_normalize(merge_conditions(ann, prep, rng)), prep.word_dropout, rng)
        conditions.append(encode_text_toy(text, model_config.D))
    return conditions


def cmd_train(args) -> int:
    t0 = time.time()
    for dest in ("steps", "sequences", "timesteps", "log_every"):
        if getattr(args, dest) < 1:
            flag = dest.replace("_", "-")
            raise ValidationError(f"--{flag} must be >= 1, got {getattr(args, dest)}")
    out_dir = Path(args.out) if args.out else _default_out("train")
    out_dir.mkdir(parents=True, exist_ok=True)

    rvq_config = RVQConfig(K=args.codebooks, M=args.vocab, d_latent=args.d_latent)
    corpus = make_corpus(
        args.sequences,
        args.timesteps,
        rvq_config,
        seed=args.seed,
        share_first_frame=args.share_first_frame,
    )
    mode = {"none": "none", "chroma": "prefix", "text": "cross_attention"}[args.conditioning]
    pattern = build_pattern(PatternKind(args.pattern), args.timesteps, args.codebooks)
    model_config = ModelConfig(
        K=args.codebooks,
        M=args.vocab,
        D=args.dim,
        L=args.layers,
        H=args.heads,
        max_steps=max(64, 2 * pattern.S),
        conditioning_mode=mode,
    )
    params = init_params(model_config, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    conditions = _build_conditions(args, corpus, model_config, rng)
    batch = [
        example_from_grid(pattern, grid, condition=cond)
        for grid, cond in zip(corpus.grids, conditions)
    ]

    hyper = TrainHyper(
        lr_max=args.lr,
        warmup_steps=args.warmup,
        total_steps=args.steps,
        betas=(args.beta1, args.beta2),
        weight_decay=args.weight_decay,
        clip_norm=args.clip,
        condition_dropout=args.cfg_drop,
    )
    if mode == "none":  # TrainHyper has range-checked --cfg-drop; no condition to drop
        hyper = replace(hyper, condition_dropout=0.0)
    state = AdamWState.init(params)
    ema = EMAWeights.init(params, decay=args.ema_decay) if args.ema else None

    log_lines = ["step,lr,loss,accuracy"]
    stats = None
    for _ in range(args.steps):
        state, params, stats = train_step(state, params, batch, hyper, rng)
        if ema is not None:
            ema.update(params)
        if stats.step % args.log_every == 0 or stats.step == args.steps:
            log_lines.append(f"{stats.step},{stats.lr:.8g},{stats.loss:.8g},{stats.accuracy:.6f}")

    log_path = out_dir / "train_log.csv"
    log_path.write_text("\n".join(log_lines) + "\n")

    extra = {
        "grids": np.stack([g.tokens for g in corpus.grids]),
        "codebooks": np.stack([b.centroids for b in corpus.codebooks]),
    }
    for i, cond in enumerate(conditions):
        if cond is not None:
            extra[f"cond/{i}"] = cond.rows
    if ema is not None:
        for name, arr in ema.arrays.items():
            extra[f"ema/{name}"] = arr
    meta = {
        "pattern": args.pattern,
        "timesteps": args.timesteps,
        "conditioning": args.conditioning,
        "rvq": asdict(rvq_config),
        "final_loss": stats.loss,
        "final_accuracy": stats.accuracy,
        "seed": args.seed,
    }
    ckpt_path = out_dir / "checkpoint.npz"
    save_checkpoint(ckpt_path, params, state, extra=extra, meta=meta)
    _write_manifest(out_dir, "train", _args_config(args), args.seed, [log_path, ckpt_path], t0)
    print(f"trained {args.steps} steps: loss {stats.loss:.4f} accuracy {stats.accuracy:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


# ---------------------------------------------------------------- generate


def _load_ckpt(path_text: str):
    path = Path(path_text)
    if not path.exists():
        raise GuardError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_generate(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out) if args.out else _default_out("generate")
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = _load_ckpt(args.checkpoint)
    params = ckpt.params
    T = args.timesteps if args.timesteps is not None else int(ckpt.meta.get("timesteps", 8))
    kind = PatternKind(args.pattern or ckpt.meta.get("pattern", "delay"))
    pattern = build_pattern(kind, T, params.config.K)

    condition = None
    if args.text:
        if params.config.conditioning_mode == "none":
            raise ValidationError("checkpoint model is unconditional; --text has no route")
        condition = encode_text_toy(text_normalize(args.text), params.config.D)
    cfg = SamplerConfig(
        top_k=args.top_k,
        temperature=args.temperature,
        guidance_scale=args.guidance,
        mode="greedy" if args.greedy else "sample",
    )
    gen_t0 = time.time()
    grid = generate(params, pattern, condition=condition, cfg=cfg,
                    rng=np.random.default_rng(args.seed))
    gen_seconds = time.time() - gen_t0
    timings = {
        "generate_seconds": round(gen_seconds, 6),
        "steps": pattern.S,
        "seconds_per_step": round(gen_seconds / max(1, pattern.S), 6),
    }

    grid_path = out_dir / "grid.csv"
    grid_path.write_text(grid_to_csv(grid))
    artifacts = [grid_path]
    if args.wav:
        if "codebooks" not in ckpt.extra:
            raise ValidationError("checkpoint carries no codebooks; cannot sonify")
        books = [Codebook(centroids=c) for c in ckpt.extra["codebooks"]]
        anchors = class_anchor_latents(books[0].d)
        classes = latents_to_classes(rvq_decode(grid, books), anchors)
        wav_path = out_dir / "generated.wav"
        save_wav(wav_path, sonify_classes(classes))
        artifacts.append(wav_path)
    _write_manifest(out_dir, "generate", _args_config(args), args.seed, artifacts, t0,
                    timings_extra=timings)
    print(f"grid: {grid_path}")
    return EXIT_OK


# ---------------------------------------------------------------- memorize


def cmd_memorize(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out) if args.out else _default_out("memorize")
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = _load_ckpt(args.checkpoint)
    if "grids" not in ckpt.extra:
        raise ValidationError("checkpoint carries no training grids to memorize against")
    grids = [TokenGrid(tokens=t, M=ckpt.params.config.M) for t in ckpt.extra["grids"]]
    # prompts are fed together with the conditioning each sequence was trained on
    conditions = [
        ConditioningTensor(rows=ckpt.extra[f"cond/{i}"]) if f"cond/{i}" in ckpt.extra else None
        for i in range(len(grids))
    ]
    dataset = list(zip(grids, conditions))
    try:
        prompt_lens = [int(x) for x in args.prompt_lens.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(
            f"--prompt-lens must be comma-separated integers, got {args.prompt_lens!r}"
        ) from exc
    kind = PatternKind(ckpt.meta.get("pattern", "delay"))
    report = memorization_report(
        ckpt.params, dataset, prompt_lens, args.gen_len, pattern_kind=kind
    )

    csv_path = out_dir / "memorization.csv"
    lines = ["prompt_len,exact_match,partial_match,n_examples"]
    for row in report.rows:
        lines.append(f"{row.prompt_len},{row.exact_match:.6f},{row.partial_match:.6f},{row.n_examples}")
    csv_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"monotone: exact={report.exact_monotone} partial={report.partial_monotone}")
    artifacts = [csv_path]
    if args.gnuplot:
        dat_path = out_dir / "memorization.dat"
        dat_lines = ["# prompt_len exact partial"]
        for row in report.rows:
            dat_lines.append(f"{row.prompt_len} {row.exact_match:.6f} {row.partial_match:.6f}")
        dat_path.write_text("\n".join(dat_lines) + "\n")
        artifacts.append(dat_path)
    _write_manifest(out_dir, "memorize", _args_config(args), None, artifacts, t0)
    return EXIT_OK


# ---------------------------------------------------------------- chroma


def cmd_chroma(args) -> int:
    t0 = time.time()
    out_dir = Path(args.out) if args.out else _default_out("chroma")
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_path = Path(args.wav)
    if not wav_path.exists():
        raise GuardError(f"WAV file not found: {wav_path}")
    audio = load_wav(wav_path)
    chroma = compute_chromagram(audio, window=args.window, hop=args.hop)
    q = quantize_chroma(chroma)
    json_path = out_dir / "chroma.json"
    json_path.write_text(quantized_chroma_to_json(q) + "\n")
    print(f"frames: {q.F}")
    print(f"chroma: {json_path}")
    _write_manifest(out_dir, "chroma", _args_config(args), None, [json_path], t0)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tokenweave",
        description="multi-stream token modeling with codebook interleaving patterns",
    )
    parser.add_argument("--version", action="version", version=f"tokenweave {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("patterns", help="show, validate, or benchmark interleaving patterns")
    p.add_argument("action", choices=["show", "validate", "bench"])
    p.add_argument("--kind", default="delay", choices=[k.value for k in PatternKind])
    p.add_argument("--T", type=int, default=8)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--json", help="pattern JSON file (validate)")
    p.add_argument("--as-json", action="store_true", help="machine-readable bench output")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_patterns)
    by_name["patterns"] = p

    p = subs.add_parser("exactness", help="measure decomposition exactness by enumeration")
    p.add_argument("--family", default="diagonal", choices=["product", "diagonal", "markov_residual"])
    p.add_argument("--T", type=int, default=2)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--patterns", default="parallel,delay,flatten")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_exactness)
    by_name["exactness"] = p

    p = subs.add_parser("train", help="train the toy decoder on a synthetic corpus")
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--timesteps", type=int, default=24)
    p.add_argument("--codebooks", type=int, default=4)
    p.add_argument("--vocab", type=int, default=16)
    p.add_argument("--d-latent", type=int, default=4)
    p.add_argument("--dim", type=int, default=48)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--pattern", default="delay", choices=[k.value for k in PatternKind])
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.95)
    p.add_argument("--weight-decay", type=float, default=0.1)
    p.add_argument("--clip", type=float, default=1.0)
    p.add_argument("--cfg-drop", type=float, default=0.2)
    p.add_argument("--conditioning", default="none", choices=["none", "text", "chroma"])
    p.add_argument("--share-first-frame", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--ema", action="store_true", help="track EMA evaluation weights")
    p.add_argument("--ema-decay", type=float, default=0.99)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_train)
    by_name["train"] = p

    p = subs.add_parser("generate", help="sample a token grid from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--pattern", choices=[k.value for k in PatternKind])
    p.add_argument("--text", help="text condition (cross-attention models)")
    p.add_argument("--top-k", type=int, default=250)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--wav", action="store_true", help="also write a sonified WAV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_generate)
    by_name["generate"] = p

    p = subs.add_parser("memorize", help="prompted-continuation memorization report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt-lens", default="1,2,6,12")
    p.add_argument("--gen-len", type=int, default=12)
    p.add_argument("--gnuplot", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_memorize)
    by_name["memorize"] = p

    p = subs.add_parser("chroma", help="quantized chromagram of a WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)
    p.add_argument("--out")
    p.add_argument("--config", help="INI config file")
    p.set_defaults(func=cmd_chroma)
    by_name["chroma"] = p

    return parser, by_name


def _config_path_from_argv(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _apply_ini_defaults(sub: argparse.ArgumentParser, command: str, path_text: str) -> None:
    path = Path(path_text)
    if not path.exists():
        raise GuardError(f"config file not found: {path}")
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case so "T" stays "T"
    try:
        ini.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config file: {exc}") from exc
    if command not in ini:
        return
    actions = {a.dest: a for a in sub._actions}
    overrides = {}
    for key, raw in ini[command].items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValidationError(f"config key {key!r} is not a flag of {command!r}")
        action = actions[dest]
        # argparse checks neither type nor choices of a default, so check here
        try:
            if isinstance(action, (argparse._StoreTrueAction, argparse.BooleanOptionalAction)):
                value = ini[command].getboolean(key)  # 1/yes/true/on or 0/no/false/off
            elif action.type is not None:
                value = action.type(raw)
            else:
                value = raw
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise ValidationError(
                f"config key {key!r}: {value!r} is not one of {', '.join(map(str, action.choices))}"
            )
        overrides[dest] = value
    sub.set_defaults(**overrides)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = build_parser()
    try:
        if argv and not argv[0].startswith("-") and argv[0] in by_name:
            cfg_path = _config_path_from_argv(argv)
            if cfg_path:
                _apply_ini_defaults(by_name[argv[0]], argv[0], cfg_path)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GuardError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
