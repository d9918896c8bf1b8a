"""Experiment runner: reproducible pipelines over the library modules.

Every artifact-producing command writes exactly one manifest.json recording
the full configuration, seed, sha256 of each artifact, wall-clock timing and
tool version; re-running with the same configuration reproduces the artifacts
byte for byte.

Exit codes: 0 ok, 2 usage, 3 validation (bad inputs, malformed files),
4 guard/resource (table guards, missing or unreadable files, out of memory),
5 internal invariant breach. A run that fails a check on its input writes
nothing: the run directory is made at the command's first write, after every
check, and one that cannot be made is found before any work.

Flags default to the reference hyperparameters where one exists: top-k 250,
temperature 1.0, guidance 3.0, condition drop 0.2, chroma window 2^14 and hop
2^12, betas 0.9/0.95, weight decay 0.1, gradient clip 1.0; greedy decoding is
--temperature 0.
Flags are spelled in full, as INI keys must be: an abbreviation is a usage
error. Config files are INI sections named after the subcommand; explicit
flags override file values.

TOKENWEAVE_OUT sets the default output directory root.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import operator
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
from .errors import GuardError, InvariantError, ValidationError, checked_array
from .model import (
    AdamWState,
    ModelConfig,
    TrainHyper,
    example_from_grid,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
    write_atomically,
)
from .oracle import JOINT_FAMILIES, exactness_report, make_joint
from .patterns import (
    PatternKind,
    STEREO_KINDS,
    TokenGrid,
    build_pattern,
    format_pattern,
    grid_to_csv,
    pattern_from_json,
    step_counts,
)
from .rvq import Codebook, RVQConfig, rvq_decode
from .sampling import SamplerConfig, generate

FLATTEN_SELF_CHECK_TV = 1e-9
# an exact pattern's TV bound; the CSV writes rounding noise below it as 0
CSV_TV_FLOOR = 1e-12

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_GUARD = 4
EXIT_INVARIANT = 5


def _out_path(args) -> Path:
    """The run directory's path, checked without making anything: its nearest
    existing ancestor (or itself) must be a writable directory."""
    out_dir = Path(args.out or Path(os.environ.get("TOKENWEAVE_OUT", "runs")) / args.command)
    existing = out_dir
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise GuardError(
            f"cannot make run directory {out_dir}: {existing} is not a writable directory"
        )
    return out_dir


def _out_dir(args) -> Path:
    """The run directory, made here: call it at the command's first write,
    after every check, so a run that fails its checks leaves nothing behind."""
    out_dir = _out_path(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(
    args,
    artifacts: list[Path],  # in the run directory, where the manifest goes too
    t0: float,  # a time.perf_counter() reading
    timings: dict | None = None,
    **results,
) -> Path:
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "command", "config", "out")},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "artifacts": {p.name: _sha256(p) for p in sorted(artifacts)},
        "timings": {"wall_seconds": round(time.perf_counter() - t0, 6), **(timings or {})},
        **results,
    }
    path = artifacts[0].with_name("manifest.json")
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomically(path, lambda fh: fh.write(text.encode()))
    return path


def _seed(text: str) -> int:
    """--seed's type: numpy seeds a generator from an integer >= 0 only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _parse_kinds(text: str) -> list[PatternKind]:
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
    if len(set(kinds)) < len(kinds):
        raise ValidationError(f"a pattern kind repeats in {text!r}")
    if not kinds:
        raise ValidationError(f"no pattern kinds in {text!r}")
    return kinds


# ---------------------------------------------------------------- patterns


def cmd_patterns(args) -> int:
    if args.action == "show":
        pattern = build_pattern(PatternKind(args.kind), args.T, args.K)
        print(format_pattern(pattern))
        return EXIT_OK
    if args.action == "validate":
        path = Path(args.json)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"pattern file {path} is not UTF-8 text: {exc}") from exc
        pattern_from_json(text)  # an invalid pattern raises, naming every violation
        print("ok")
        return EXIT_OK
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
    t0 = time.perf_counter()
    kinds = _parse_kinds(args.patterns)
    # the joint first: its dims guard bounds the T x K tables build_pattern lays out
    joint_t0 = time.perf_counter()
    joint = make_joint(args.family, args.T, args.K, args.M, seed=args.seed)
    joint_s = time.perf_counter() - joint_t0
    patterns = [build_pattern(k, args.T, args.K) for k in kinds]
    report_t0 = time.perf_counter()
    rows = exactness_report(joint, patterns)
    report_s = time.perf_counter() - report_t0

    csv_path = _out_dir(args) / "exactness.csv"
    lines = ["pattern,steps_exact,steps_nominal,tv"]
    for row in rows:
        tv = row.tv if row.tv >= CSV_TV_FLOOR else 0.0
        lines.append(f"{row.kind},{row.steps_exact},{row.steps_nominal},{tv:.12g}")
    csv_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    timings = {"joint_s": round(joint_s, 6), "report_s": round(report_s, 6)}
    _write_manifest(args, [csv_path], t0, timings, tv={row.kind: row.tv for row in rows})

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
        anchors = class_anchor_latents(args.d_latent)
        return [
            chroma_to_condition(latents_to_classes(lf, anchors), model_config.D)
            for lf in corpus.latents
        ]
    conditions = []
    for i in range(len(corpus.grids)):
        merged = merge_conditions(f"synthetic ar1 clip {i}", {"index": str(i), "family": "ar1"}, rng)
        conditions.append(encode_text_toy(word_dropout(text_normalize(merged), rng), model_config.D))
    return conditions


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    for dest in ("steps", "sequences", "timesteps", "log_every"):
        if getattr(args, dest) < 1:
            flag = dest.replace("_", "-")
            raise ValidationError(f"--{flag} must be >= 1, got {getattr(args, dest)}")

    rvq_config = RVQConfig(K=args.codebooks, M=args.vocab, d_latent=args.d_latent)
    corpus_t0 = time.perf_counter()
    corpus = make_corpus(
        args.sequences,
        args.timesteps,
        rvq_config,
        seed=args.seed,
        share_first_frame=args.share_first_frame,
    )
    corpus_s = time.perf_counter() - corpus_t0
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

    log_lines = ["step,lr,loss,accuracy,grad_norm,cond_dropped"]
    stats = None
    step_ms = []  # the manifest's, not train_log.csv's: that reproduces byte for byte
    for _ in range(args.steps):
        step_t0 = time.perf_counter()
        state, params, stats = train_step(state, params, batch, hyper, rng)
        step_ms.append(1e3 * (time.perf_counter() - step_t0))
        if stats.step % args.log_every == 0 or stats.step == args.steps:
            log_lines.append(
                f"{stats.step},{stats.lr:.8g},{stats.loss:.8g},{stats.accuracy:.6f},"
                f"{stats.grad_norm:.8g},{int(stats.condition_dropped)}"
            )

    out_dir = _out_dir(args)
    log_path = out_dir / "train_log.csv"
    log_path.write_text("\n".join(log_lines) + "\n")

    extra = {
        "grids": np.stack([g.tokens for g in corpus.grids]),
        "codebooks": np.stack([b.centroids for b in corpus.codebooks]),
    }
    for i, cond in enumerate(conditions):
        if cond is not None:
            extra[f"cond/{i}"] = cond.rows
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
    save_checkpoint(ckpt_path, params, extra=extra, meta=meta)
    _write_manifest(args, [log_path, ckpt_path], t0,
                    {"corpus_s": round(corpus_s, 6),
                     "step_ms_p50": round(float(np.median(step_ms)), 3),
                     "step_ms_max": round(max(step_ms), 3)})
    print(f"trained {args.steps} steps: loss {stats.loss:.4f} accuracy {stats.accuracy:.4f}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


# ---------------------------------------------------------------- generate


def _flag_or_meta(args, ckpt, key: str, parse, default):
    """parse of the flag named key if given, else of the checkpoint's meta
    value (default if absent); a meta value parse rejects is malformed input."""
    if getattr(args, key, None) is not None:
        return parse(getattr(args, key))
    try:
        return parse(ckpt.meta.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"checkpoint {args.checkpoint}: meta {key}: {exc}") from exc


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    ckpt = load_checkpoint(args.checkpoint)
    params = ckpt.params
    T = _flag_or_meta(args, ckpt, "timesteps", operator.index, 8)  # 2.5 is malformed, not 2
    kind = _flag_or_meta(args, ckpt, "pattern", PatternKind, "delay")
    pattern = build_pattern(kind, T, params.config.K)

    condition = None
    if args.text:
        mode = params.config.conditioning_mode
        if mode != "cross_attention":  # a prefix model would read the text as a melody
            raise ValidationError(f"--text needs cross-attention; the model's mode is {mode!r}")
        condition = encode_text_toy(text_normalize(args.text), params.config.D)
    cfg = SamplerConfig(top_k=args.top_k, temperature=args.temperature,
                        guidance_scale=args.guidance)
    gen_t0 = time.perf_counter()
    grid = generate(params, pattern, condition=condition, cfg=cfg,
                    rng=np.random.default_rng(args.seed))
    gen_seconds = time.perf_counter() - gen_t0
    timings = {
        "generate_seconds": round(gen_seconds, 6),
        "steps": pattern.S,
        "seconds_per_step": round(gen_seconds / max(1, pattern.S), 6),
    }

    if args.wav:
        if "codebooks" not in ckpt.extra:
            raise ValidationError("checkpoint carries no codebooks; cannot sonify")
        books = [Codebook(centroids=c)
                 for c in checked_array(ckpt.extra["codebooks"], "checkpoint codebooks", 3)]
        latents = rvq_decode(grid, books)  # zero stages raise here
        audio = sonify_classes(latents_to_classes(latents, class_anchor_latents(latents.d)))

    out_dir = _out_dir(args)
    grid_path = out_dir / "grid.csv"
    grid_path.write_text(grid_to_csv(grid))
    artifacts = [grid_path]
    if args.wav:
        artifacts.append(out_dir / "generated.wav")
        save_wav(artifacts[-1], audio)
    _write_manifest(args, artifacts, t0, timings)
    print(f"grid: {grid_path}")
    return EXIT_OK


# ---------------------------------------------------------------- memorize


def cmd_memorize(args) -> int:
    t0 = time.perf_counter()
    ckpt = load_checkpoint(args.checkpoint)
    if "grids" not in ckpt.extra:
        raise ValidationError("checkpoint carries no training grids to memorize against")
    grids = [TokenGrid(tokens=t, M=ckpt.params.config.M)
             for t in checked_array(ckpt.extra["grids"], "checkpoint grids", 3, whole=True)]
    # prompts are fed together with the conditioning each sequence was trained on
    conditioned = (ckpt.params.config.conditioning_mode != "none"
                   or ckpt.meta.get("conditioning", "none") != "none"
                   or any(name.startswith("cond/") for name in ckpt.extra))
    missing = [i for i in range(len(grids)) if f"cond/{i}" not in ckpt.extra]
    if conditioned and missing:
        raise ValidationError(
            f"checkpoint was trained with conditions but holds none for sequence {missing[0]}"
        )
    conditions = [ConditioningTensor(rows=ckpt.extra[f"cond/{i}"]) if conditioned else None
                  for i in range(len(grids))]
    dataset = list(zip(grids, conditions))
    try:
        prompt_lens = [int(x) for x in args.prompt_lens.split(",") if x.strip()]
    except ValueError as exc:
        raise ValidationError(
            f"--prompt-lens must be comma-separated integers, got {args.prompt_lens!r}"
        ) from exc
    kind = _flag_or_meta(args, ckpt, "pattern", PatternKind, "delay")
    report = memorization_report(
        ckpt.params, dataset, prompt_lens, args.gen_len, pattern_kind=kind
    )

    csv_path = _out_dir(args) / "memorization.csv"
    lines = ["prompt_len,exact_match,partial_match,n_examples"]
    for row in report.rows:
        lines.append(f"{row.prompt_len},{row.exact_match:.6f},{row.partial_match:.6f},{row.n_examples}")
    csv_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"monotone: exact={report.exact_monotone} partial={report.partial_monotone}")
    _write_manifest(args, [csv_path], t0)
    return EXIT_OK


# ---------------------------------------------------------------- chroma


def cmd_chroma(args) -> int:
    t0 = time.perf_counter()
    audio = load_wav(args.wav)
    chroma = compute_chromagram(audio, window=args.window, hop=args.hop)
    q = quantize_chroma(chroma)
    json_path = _out_dir(args) / "chroma.json"
    json_path.write_text(quantized_chroma_to_json(q) + "\n")
    print(f"frames: {q.F}")
    print(f"chroma: {json_path}")
    _write_manifest(args, [json_path], t0)
    return EXIT_OK


# ---------------------------------------------------------------- wiring


def _config_parser() -> argparse.ArgumentParser:
    """--config, which every subcommand takes; main reads it first with this
    same declaration, so the INI section becomes the subcommand's defaults."""
    config = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    config.add_argument("--config", help="INI config file")
    return config


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="tokenweave",
        description="multi-stream token modeling with codebook interleaving patterns",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"tokenweave {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    config = _config_parser()
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="run directory (default: $TOKENWEAVE_OUT/<command>)")
    by_name: dict[str, argparse.ArgumentParser] = {}

    def add(name, func, summary, parents=(config, out)) -> argparse.ArgumentParser:
        by_name[name] = subs.add_parser(name, help=summary, parents=parents, allow_abbrev=False)
        by_name[name].set_defaults(func=func)
        return by_name[name]

    p = add("patterns", cmd_patterns, "show, validate, or benchmark interleaving patterns",
            parents=(config,))
    p.add_argument("action", choices=["show", "validate", "bench"])
    p.add_argument("--kind", default="delay", choices=[k.value for k in PatternKind])
    p.add_argument("--T", type=int, default=8)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--json", help="pattern JSON file (validate)")
    p.add_argument("--as-json", action="store_true", help="machine-readable bench output")

    p = add("exactness", cmd_exactness, "measure decomposition exactness by enumeration")
    p.add_argument("--family", default="diagonal", choices=JOINT_FAMILIES)
    p.add_argument("--T", type=int, default=2)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--patterns", default="parallel,delay,flatten")
    p.add_argument("--seed", type=_seed, default=0)

    p = add("train", cmd_train, "train the toy decoder on a synthetic corpus")
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
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--seed", type=_seed, default=0)

    p = add("generate", cmd_generate, "sample a token grid from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--pattern", choices=[k.value for k in PatternKind])
    p.add_argument("--text", help="text condition (cross-attention models)")
    p.add_argument("--top-k", type=int, default=250)
    p.add_argument("--temperature", type=float, default=1.0, help="0 decodes greedily")
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--wav", action="store_true", help="also write a sonified WAV")
    p.add_argument("--seed", type=_seed, default=0)

    p = add("memorize", cmd_memorize, "prompted-continuation memorization report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt-lens", default="1,2,6,12")
    p.add_argument("--gen-len", type=int, default=12)

    p = add("chroma", cmd_chroma, "quantized chromagram of a WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)

    return parser, by_name


def _apply_ini_defaults(sub: argparse.ArgumentParser, command: str, path_text: str) -> None:
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case so "T" stays "T"
    # opened here: ConfigParser.read skips a path it cannot open
    with open(path_text, encoding="utf-8") as fh:
        try:
            ini.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
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
        except (ValueError, argparse.ArgumentTypeError) as exc:
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
        try:
            cfg_path = _config_parser().parse_known_args(argv)[0].config
        except argparse.ArgumentError:  # no value: the subcommand's usage line reports it
            cfg_path = None
        if cfg_path and argv[0] in by_name:
            _apply_ini_defaults(by_name[argv[0]], argv[0], cfg_path)
        try:
            args = parser.parse_args(argv)
            if args.command == "patterns" and args.action == "validate" and args.json is None:
                by_name["patterns"].error("validate needs --json")
        except SystemExit as exc:
            return int(exc.code or 0)
        if "out" in vars(args):  # a run directory that cannot be made fails before any work
            _out_path(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
