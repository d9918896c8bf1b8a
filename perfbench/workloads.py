"""The four benchmark workloads and the checks on their outputs.

Each workload is a single-process closed loop with one client: it sends its
next operation only after the previous one returned. Constructing a workload
is its set-up (corpus and codebook fitting, model init, joint construction,
fixed inputs); ``op(i)`` is operation i, whose inputs depend only on the
workload seed and i. Every call into tokenweave goes through a module
attribute (``sampling.generate``, ``model.train_step`` ...) so that the
traced run can wrap it.

All four use the same small model dims, K=4, D=48, L=2, H=4.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from tokenweave import conditioning, corpus, model, oracle, patterns, sampling
from tokenweave.model import AdamWState, ModelConfig, TrainHyper
from tokenweave.patterns import PatternKind, TokenGrid
from tokenweave.rvq import RVQConfig
from tokenweave.sampling import SamplerConfig

K, D, L, H = 4, 48, 2, 4
TV_EXACT = 1e-12

_WORDS = (
    "calm piano melody soft drums ambient guitar slow fast bright dark synth "
    "bass jazz rock loud warm strings upbeat lofi choir brass gentle driving"
).split()


def caption(rng: np.random.Generator) -> str:
    return " ".join(rng.choice(_WORDS, size=int(rng.integers(4, 9))))


# ------------------------------------------------------------------ checks


def grid_problems(tokens: np.ndarray, T: int, M: int, prompt: np.ndarray | None = None) -> list[str]:
    """Problems with a generated grid: shape T x K, ids in 1..M, and the
    teacher-forced prompt rows unchanged."""
    tokens = np.asarray(tokens)
    if tokens.shape != (T, K):
        return [f"grid shape {tokens.shape}, expected {(T, K)}"]
    problems = []
    if tokens.min() < 1 or tokens.max() > M:
        problems.append(f"token ids span {tokens.min()}..{tokens.max()}, expected 1..{M}")
    if prompt is not None and not np.array_equal(tokens[: len(prompt)], prompt):
        problems.append("prompt rows changed")
    return problems


def exactness_problems(tables: dict[str, list[tuple[str, float]]]) -> list[str]:
    """Problems with per-family (kind, TV) tables: every TV in [0, 1], flatten
    exact on every joint, and every pattern exact on the product joint."""
    problems = []
    for family, rows in tables.items():
        for kind, tv in rows:
            if not 0.0 <= tv <= 1.0:
                problems.append(f"{family}/{kind}: TV {tv!r} outside [0, 1]")
            elif (kind == "flatten" or family == "product") and tv > TV_EXACT:
                problems.append(f"{family}/{kind}: TV {tv!r} above {TV_EXACT}")
    return problems


def loss_problems(first: float, last: float) -> list[str]:
    if not (math.isfinite(first) and math.isfinite(last)):
        return [f"non-finite loss: first {first!r}, last {last!r}"]
    if not last < first:
        return [f"final loss {last!r} is not below the first step's {first!r}"]
    return []


# --------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses set the class attributes and implement the methods."""

    name = ""
    why = ""
    op_label = ""  # what one operation is, for the record
    rate_name, rate_unit = "", ""  # work done per second of the timed loop, if any
    time_name, time_unit = "", ""  # time of one operation
    warmup_ops = 1  # untimed operations before the timed loop
    trace_ops = 1  # operations in each half of a traced run
    digest_ops = 1  # the digest covers operations 0..digest_ops-1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def items(self, out) -> int:
        """Work done by one operation, counted under rate_name."""
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        raise NotImplementedError

    def final_check(self, first, last) -> list[str]:
        """Run-level check, given the outputs of operation 0 and the last one."""
        raise NotImplementedError

    def steps_walked(self, n_ops: int) -> int:
        """Pattern steps the sampler walks in n_ops operations (0: no sampling)."""
        return 0


class _Sampling(Workload):
    """A request-serving workload: each operation returns a generated grid."""

    rate_name, rate_unit = "tokens_per_s", "tokens/s"  # sampled, not teacher-forced
    time_name, time_unit = "request_ms", "ms"

    def fingerprint(self, out) -> bytes:
        return out.tokens.astype(np.int64).tobytes()

    def final_check(self, first, last) -> list[str]:
        again = self.op(0)
        return [] if np.array_equal(again.tokens, first.tokens) else ["request 0 repeated gave another grid"]

    def steps_walked(self, n_ops: int) -> int:
        return n_ops * self.pattern.S


class GenLong(_Sampling):
    name = "gen_long"
    why = (
        "paper inference setup at length: delay T=128, top-k 250, CFG 3 on a cross-attention "
        "model; forward prefix recompute dominates"
    )
    op_label = "generate request"
    trace_ops = 16
    digest_ops = 3
    T, M = 128, 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pattern = patterns.build_pattern(PatternKind.DELAY, self.T, K)
        config = ModelConfig(
            K=K, M=self.M, D=D, L=L, H=H, max_steps=2 * self.pattern.S,
            conditioning_mode="cross_attention",
        )
        self.params = model.init_params(config, seed=seed)
        self.cfg = SamplerConfig()

    def op(self, i: int) -> TokenGrid:
        text = caption(np.random.default_rng((self.seed, i, 0)))
        cond = conditioning.encode_text_toy(text, D)
        rng = np.random.default_rng((self.seed, i, 1))
        return sampling.generate(self.params, self.pattern, condition=cond, cfg=self.cfg, rng=rng)

    def check(self, i: int, out) -> list[str]:
        return grid_problems(out.tokens, self.T, self.M)

    def items(self, out) -> int:
        return self.T * K


class ContinueShort(_Sampling):
    name = "continue_short"
    why = (
        "short prompted continuations (T=24, 12 steps teacher-forced, no condition): per-call "
        "overhead and sample_token dominate; the bypass case for KV caching"
    )
    op_label = "continue_from_prompt request"
    trace_ops = 200
    digest_ops = 16
    T, M, PROMPT, N_GRIDS = 24, 64, 12, 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rvq = RVQConfig(K=K, M=self.M, d_latent=4)
        self.grids = corpus.make_corpus(self.N_GRIDS, self.T, rvq, seed=seed).grids
        self.prompts = [
            TokenGrid(tokens=g.tokens[: self.PROMPT].copy(), M=self.M) for g in self.grids
        ]
        self.pattern = patterns.build_pattern(PatternKind.DELAY, self.T, K)
        config = ModelConfig(K=K, M=self.M, D=D, L=L, H=H, max_steps=2 * self.pattern.S)
        self.params = model.init_params(config, seed=seed)
        self.cfg = SamplerConfig()

    def op(self, i: int) -> TokenGrid:
        rng = np.random.default_rng((self.seed, i))
        prompt = self.prompts[i % self.N_GRIDS]
        return sampling.continue_from_prompt(self.params, self.pattern, prompt, cfg=self.cfg, rng=rng)

    def check(self, i: int, out) -> list[str]:
        return grid_problems(out.tokens, self.T, self.M, self.prompts[i % self.N_GRIDS].tokens)

    def items(self, out) -> int:
        return (self.T - self.PROMPT) * K


class Train(Workload):
    name = "train"
    why = (
        "AdamW steps on B=32 x T=24 text-conditioned sequences at the CLI defaults: the only "
        "workload running backward and the optimizer"
    )
    op_label = "train_step"
    rate_name, rate_unit = "train_rows_per_s", "rows/s"  # B x S step rows
    time_name, time_unit = "train_step_ms", "ms"
    trace_ops = 40
    digest_ops = 8
    B, T, M = 32, 24, 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rvq = RVQConfig(K=K, M=self.M, d_latent=4)
        grids = corpus.make_corpus(self.B, self.T, rvq, seed=seed, share_first_frame=True).grids
        self.pattern = patterns.build_pattern(PatternKind.DELAY, self.T, K)
        config = ModelConfig(
            K=K, M=self.M, D=D, L=L, H=H, max_steps=max(64, 2 * self.pattern.S),
            conditioning_mode="cross_attention",
        )
        self.params = model.init_params(config, seed=seed)
        text_rng = np.random.default_rng((seed, 0))
        self.batch = [
            model.example_from_grid(
                self.pattern, g, condition=conditioning.encode_text_toy(caption(text_rng), D)
            )
            for g in grids
        ]
        # the train subcommand's defaults
        self.hyper = TrainHyper(
            lr_max=5e-3, warmup_steps=100, total_steps=2000, betas=(0.9, 0.95),
            weight_decay=0.1, clip_norm=1.0, condition_dropout=0.2,
        )
        self.state = AdamWState.init(self.params)
        self.rng = np.random.default_rng((seed, 1))

    def op(self, i: int):
        self.state, self.params, stats = model.train_step(
            self.state, self.params, self.batch, self.hyper, self.rng
        )
        return stats

    def check(self, i: int, out) -> list[str]:
        return [] if math.isfinite(out.loss) else [f"step {i}: non-finite loss {out.loss!r}"]

    def items(self, out) -> int:
        return self.B * self.pattern.S

    def fingerprint(self, out) -> bytes:
        return out.loss.hex().encode()

    def final_check(self, first, last) -> list[str]:
        return loss_problems(first.loss, last.loss)


class Oracle(Workload):
    name = "oracle"
    why = (
        "exactness_report over all 8 pattern kinds on a sparse markov_residual joint (T2 K4 M3) "
        "and a dense product joint (T2 K4 M2): pure-Python enumeration, no model code"
    )
    op_label = "exactness pass over both joints"
    time_name, time_unit = "exactness_s", "s"
    trace_ops = 20
    digest_ops = 1
    # (family, T, M): a pass takes about a tenth of a second, so a run holds
    # a hundred or more; at T3 M3 and T2 M4 one pass took 7-11 s and a run
    # held only two or three.
    JOINTS = (("markov_residual", 2, 3), ("product", 2, 2))
    # The enumeration is exact, so the seed has nothing to vary per pass; the
    # joints are fixed because the markov joint's seed changes the cost of a
    # pass by up to 1.5x.
    JOINT_SEED = 0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cases = [
            (
                oracle.make_joint(family, T, K, M, seed=self.JOINT_SEED),
                [patterns.build_pattern(kind, T, K) for kind in PatternKind],
            )
            for family, T, M in self.JOINTS
        ]

    def op(self, i: int) -> dict[str, list[tuple[str, float]]]:
        return {
            joint.family: [(r.kind, r.tv) for r in oracle.exactness_report(joint, pats)]
            for joint, pats in self.cases
        }

    def check(self, i: int, out) -> list[str]:
        return exactness_problems(out)

    def fingerprint(self, out) -> bytes:
        return repr(sorted((f, k, tv.hex()) for f, rows in out.items() for k, tv in rows)).encode()

    def final_check(self, first, last) -> list[str]:
        return [] if self.fingerprint(first) == self.fingerprint(last) else ["TV tables differ between passes"]


WORKLOADS = {w.name: w for w in (GenLong, ContinueShort, Train, Oracle)}


def digest(workload: Workload, outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(workload.fingerprint(out))
    return h.hexdigest()
