"""Pattern-driven autoregressive generation.

A Pattern holds its step-table invariant by construction, so the walk only
checks that the pattern fits the model, then lays the prompt out once as the
(S+1, K) slot array, M + 1 marking each slot still to draw, and reverts the
filled array with the model's M at the end. The walk goes step by step over a
decode cache (model.open_cache): one forward, stacking the conditional and the
unconditional branch, feeds the slot rows filled since the last one; their
logits are combined (classifier-free guidance on raw logits), and one draw
fills every slot of the next step - each codebook independently, which is
precisely the inexactness the oracle module measures. A step the prompt fills
needs no logits, so a prompt is prefilled in one call; the steps to draw are
read off the slot array once per walk. Greedy decoding (temperature 0) uses
no randomness, so greedy prompted continuations are seed-independent. At
temperature 1 a draw skips the division by the temperature: x / 1 is x.

Memorization: greedy-continue each training example from prompts of varying
length and report the fraction whose first-codebook continuation matches the
source exactly, and the fraction matching at least 80% of tokens. Monotone
trends across prompt lengths are reported (flagged on the report), never
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Parameters, forward, open_cache
from .patterns import Pattern, PatternKind, TokenGrid, apply_pattern, build_pattern, revert_pattern

PARTIAL_MATCH_THRESHOLD = 0.8


@dataclass(frozen=True)
class SamplerConfig:
    """Infinite temperature is legal and draws uniformly from the top k; an
    infinite guidance scale is not, as it sends every logit to +-inf or NaN."""

    top_k: int = 250  # clamped to the vocabulary size at use
    temperature: float = 1.0  # 0 is greedy decoding: the argmax, no randomness
    guidance_scale: float = 3.0

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        # written so that NaN fails them too
        if not self.temperature >= 0.0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not self.guidance_scale >= 0.0:
            raise ValidationError(f"guidance_scale must be >= 0, got {self.guidance_scale}")
        if self.guidance_scale == np.inf:
            raise ValidationError(f"guidance_scale must be finite, got {self.guidance_scale}")


def cfg_combine(cond_logits: np.ndarray, uncond_logits: np.ndarray, scale: float) -> np.ndarray:
    """uncond + scale * (cond - uncond), elementwise on raw logits.

    Scales 0 and 1 return the respective input unchanged so the endpoint
    identities are exact, not merely within rounding.
    """
    cond_logits = np.asarray(cond_logits, dtype=np.float64)
    uncond_logits = np.asarray(uncond_logits, dtype=np.float64)
    if cond_logits.shape != uncond_logits.shape:
        raise ValidationError(
            f"logit shapes differ: {cond_logits.shape} vs {uncond_logits.shape}"
        )
    if scale == 1.0:
        return cond_logits.copy()
    if scale == 0.0:
        return uncond_logits.copy()
    return uncond_logits + scale * (cond_logits - uncond_logits)


def _topk_probs(logits: np.ndarray, cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per logit row of (M,) or (N, M): the kept token indices (0-based, ties
    to the lowest index) and their renormalized softmax probabilities after
    temperature scaling."""
    order = (-logits).argsort(axis=-1, kind="stable")
    if cfg.top_k < logits.shape[-1]:
        order = order[..., : cfg.top_k]
    # one gather for (M,) and (N, M) alike: row r's indices offset by r * M into
    # the flat logits (np.take_along_axis gathers the same at twice the call cost)
    start = np.arange(0, logits.size, logits.shape[-1]).reshape(*order.shape[:-1], 1)
    top = logits.reshape(-1)[order + start]
    # the max is subtracted first, so a tiny temperature sends every
    # non-maximal logit to -inf (probability 0) rather than overflowing
    zk = top - top[..., :1]
    if cfg.temperature != 1.0:
        with np.errstate(over="ignore"):
            zk /= cfg.temperature
    p = np.exp(zk, out=zk)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    return order, p


def sample_token(
    logits: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator
) -> int | np.ndarray:
    """Draw one 1-based token id per logit row of (..., M): an int for a single
    (M,) row, an int64 array of shape (...) otherwise.

    Rows draw in order, one rng.random() each, so the ids and the rng state
    afterwards equal those of rng.choice(order, p=p) called row by row.
    Temperature 0 (greedy) returns the argmax (lowest index on ties) without
    touching the rng.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 0:
        raise ValidationError("sample_token expects logit rows, got a scalar")
    top = np.maximum.reduce(logits, axis=-1, initial=-np.inf)  # NaN carries; -inf if all -inf
    if not np.isfinite(top).all():
        if np.isnan(top).any() or np.isposinf(top).any():
            raise ValidationError("logits must not contain NaN or +inf")
        raise ValidationError("a logit row is all -inf; nothing to sample")
    if cfg.temperature == 0.0:
        ids = np.argmax(logits, axis=-1) + 1
    else:
        rows = logits.reshape(-1, logits.shape[-1])
        order, p = _topk_probs(rows, cfg)
        # Generator.choice(p=) normalises the cumsum and counts the entries
        # at or below one uniform draw
        cdf = np.add.accumulate(p, axis=-1)
        cdf /= cdf[:, -1:]
        pick = np.add.reduce(cdf <= rng.random(len(rows))[:, None], axis=-1)
        ids = order[np.arange(len(rows)), pick].reshape(logits.shape[:-1]) + 1
    return int(ids) if logits.ndim == 1 else ids


def _walk_pattern(
    params: Parameters,
    pattern: Pattern,
    condition,
    cfg: SamplerConfig,
    rng: np.random.Generator | None,
    prompt: TokenGrid | None,
) -> TokenGrid:
    c = params.config
    if pattern.K != c.K:
        raise ValidationError(f"pattern has K={pattern.K} but the model has K={c.K}")
    if pattern.S > c.max_steps:
        raise ValidationError(f"pattern needs {pattern.S} steps, model max is {c.max_steps}")
    if rng is None and cfg.temperature != 0.0:
        raise ValidationError("sampling at a temperature above 0 needs a random generator")

    # the prompt's rows, then M + 1 ("not drawn yet") in every other row, laid
    # out as slot rows; forward's vocabulary check rejects a row fed before it
    # is filled, and revert_pattern's grid check a slot never drawn
    undrawn = c.M + 1
    grid = np.full((pattern.T, pattern.K), undrawn, dtype=np.int64)
    if prompt is not None:
        grid[: prompt.T] = prompt.tokens
    slots = apply_pattern(pattern, TokenGrid(grid, M=undrawn))
    guided = cfg.guidance_scale != 1.0 and condition is not None
    kv = open_cache(params, [condition, None] if guided else [condition], pattern.S)
    fed = 0  # slot rows the cache holds
    # step s fills slot row s + 1, which no earlier step writes; a step with
    # nothing to draw needs no logits, and its row is fed with the next one's
    todo = slots[1:] == undrawn
    for s in np.flatnonzero(todo.any(axis=1)).tolist():
        branches = forward(params, slots[fed : s + 1], cache=kv)[:, -1]
        fed = s + 1
        logits = cfg_combine(*branches, cfg.guidance_scale) if guided else branches[0]
        slots[s + 1, todo[s]] = sample_token(logits[todo[s]], cfg, rng)

    return revert_pattern(pattern, slots, c.M)


def generate(
    params: Parameters,
    pattern: Pattern,
    condition=None,
    cfg: SamplerConfig = SamplerConfig(),
    rng: np.random.Generator | None = None,
) -> TokenGrid:
    """Sample a full T x K grid by walking the pattern.

    Stacks the unconditional branch (for guidance) beside the conditional one
    only when the scale is not 1 and a condition is present; without a
    condition the combination is the identity either way.
    """
    return _walk_pattern(params, pattern, condition, cfg, rng, prompt=None)


def continue_from_prompt(
    params: Parameters,
    pattern: Pattern,
    prompt: TokenGrid,
    condition=None,
    cfg: SamplerConfig = SamplerConfig(),
    rng: np.random.Generator | None = None,
) -> TokenGrid:
    """Teacher-force every position with t <= prompt.T, generate the rest.

    A prompt covering the whole grid round-trips unchanged; a longer prompt is
    an error.
    """
    if prompt.T > pattern.T:
        raise ValidationError(f"prompt spans {prompt.T} timesteps, grid only has {pattern.T}")
    if prompt.K != pattern.K:
        raise ValidationError(f"prompt has K={prompt.K} but the pattern has K={pattern.K}")
    if prompt.M > params.config.M:
        raise ValidationError("prompt vocabulary exceeds the model's")
    return _walk_pattern(params, pattern, condition, cfg, rng, prompt=prompt)


@dataclass(frozen=True)
class MemorizationRow:
    prompt_len: int
    exact_match: float
    partial_match: float
    n_examples: int


@dataclass(frozen=True)
class MemorizationReport:
    rows: tuple[MemorizationRow, ...]
    exact_monotone: bool
    partial_monotone: bool

    def __post_init__(self) -> None:
        for row in self.rows:
            if not 0.0 <= row.exact_match <= row.partial_match <= 1.0:
                raise ValidationError("match fractions must satisfy 0 <= exact <= partial <= 1")


def memorization_report(
    params: Parameters,
    dataset: list[tuple[TokenGrid, object]],
    prompt_lens: list[int],
    gen_len: int,
    pattern_kind: PatternKind | str = PatternKind.DELAY,
) -> MemorizationReport:
    """Greedy prompted continuation; only codebook-1 tokens are compared.

    All K codebooks of the prompt region are teacher-forced. Every row walks
    each example, so the model checks every grid and condition; a gen_len = 0
    row compares nothing and scores 1.0 by convention (empty comparison).
    """
    if not dataset:
        raise ValidationError("memorization needs at least one example")
    if not prompt_lens:
        raise ValidationError("memorization needs at least one prompt length")
    if gen_len < 0 or min(prompt_lens, default=0) < 0:
        raise ValidationError("prompt lengths and gen_len must be nonnegative")
    # checked once, before any pattern table is laid out
    longest, shortest = max(prompt_lens), min(grid.T for grid, _ in dataset)
    if longest + gen_len > shortest:
        raise ValidationError(
            f"prompt {longest} + continuation {gen_len} exceeds grid length {shortest}"
        )
    greedy = SamplerConfig(temperature=0.0, guidance_scale=1.0)
    n = len(dataset)
    rows = []
    for prompt_len in prompt_lens:
        span = prompt_len + gen_len
        pattern = build_pattern(pattern_kind, max(span, 1), params.config.K)  # T >= 1 even if empty
        exact = 0
        partial = 0
        for grid, condition in dataset:
            prompt = TokenGrid(tokens=grid.tokens[:prompt_len], M=grid.M)
            out = continue_from_prompt(params, pattern, prompt, condition=condition, cfg=greedy)
            got = out.tokens[prompt_len:span, 0]
            want = grid.tokens[prompt_len:span, 0]
            matches = int(np.sum(got == want))
            exact += int(matches == gen_len)
            partial += int(matches >= (PARTIAL_MATCH_THRESHOLD - 1e-12) * gen_len)
        rows.append(
            MemorizationRow(
                prompt_len=prompt_len,
                exact_match=exact / n,
                partial_match=partial / n,
                n_examples=n,
            )
        )
    ordered = sorted(rows, key=lambda r: r.prompt_len)
    exact_mono = all(b.exact_match >= a.exact_match for a, b in zip(ordered, ordered[1:]))
    partial_mono = all(b.partial_match >= a.partial_match for a, b in zip(ordered, ordered[1:]))
    return MemorizationReport(
        rows=tuple(rows),
        exact_monotone=exact_mono,
        partial_monotone=partial_mono,
    )
