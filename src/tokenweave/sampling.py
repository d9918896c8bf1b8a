"""Pattern-driven autoregressive generation.

Walks a pattern step by step over a decode cache (model.open_cache). Each
step feeds the slot row filled last through one forward that stacks the
conditional and the unconditional branch, combines their logits
(classifier-free guidance on raw logits), then samples every codebook revealed
at the next step independently - that within-step independence is precisely
the inexactness the oracle module measures. Rows of steps that are wholly teacher-forced need no logits and are
fed together with the next row that does, so a prompt is prefilled in one
call. Greedy decoding consumes no randomness, so prompted continuations are
seed-independent in greedy mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ValidationError
from .model import Parameters, forward, open_cache
from .patterns import InterleavedSequence, Pattern, TokenGrid, revert_pattern

SAMPLE_MODES = ("sample", "greedy")


@dataclass(frozen=True)
class SamplerConfig:
    top_k: int = 250  # clamped to the vocabulary size at use
    temperature: float = 1.0
    guidance_scale: float = 3.0
    mode: str = "sample"

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        # written so that NaN fails them too
        if not self.temperature >= 0.0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not self.guidance_scale >= 0.0:
            raise ValidationError(f"guidance_scale must be >= 0, got {self.guidance_scale}")
        if self.mode not in SAMPLE_MODES:
            raise ValidationError(f"mode must be one of {SAMPLE_MODES}")


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
    """Kept token indices (0-based, ties to the lowest index) and their
    renormalized softmax probabilities after temperature scaling."""
    z = logits / cfg.temperature
    k = min(cfg.top_k, logits.shape[0])
    order = np.argsort(-z, kind="stable")[:k]
    zk = z[order]
    zk = zk - zk.max()
    p = np.exp(zk)
    p /= p.sum()
    return order, p


def sample_token(logits: np.ndarray, cfg: SamplerConfig, rng: np.random.Generator) -> int:
    """Draw one 1-based token id from a length-M logit row.

    Greedy mode or temperature 0 returns the argmax (lowest index on ties)
    without touching the rng.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValidationError("sample_token expects a single logit row")
    if np.isnan(logits).any() or np.isposinf(logits).any():
        raise ValidationError("logits must not contain NaN or +inf")
    if np.all(np.isneginf(logits)):
        raise ValidationError("all logits are -inf; nothing to sample")
    if cfg.mode == "greedy" or cfg.temperature == 0.0:
        return int(np.argmax(logits)) + 1
    order, p = _topk_probs(logits, cfg)
    return int(rng.choice(order, p=p)) + 1


def _walk_pattern(
    params: Parameters,
    pattern: Pattern,
    condition,
    cfg: SamplerConfig,
    rng: np.random.Generator | None,
    forced: TokenGrid | None,
) -> TokenGrid:
    c = params.config
    if pattern.K != c.K:
        raise ValidationError(f"pattern has K={pattern.K} but the model has K={c.K}")
    if pattern.S > c.max_steps:
        raise ValidationError(f"pattern needs {pattern.S} steps, model max is {c.max_steps}")

    S = pattern.S
    slots = np.zeros((S + 1, c.K), dtype=np.int64)
    written = np.zeros((S + 1, c.K), dtype=bool)
    presence = pattern.presence_mask()
    guided = cfg.guidance_scale != 1.0 and condition is not None
    kv = open_cache(params, [condition, None] if guided else [condition], S)
    fed = 0  # slot rows the cache holds

    for s in range(S):
        coords = sorted(pattern.steps[s + 1].coords, key=lambda cd: cd.k)
        # a step whose every coordinate is teacher-forced needs no logits; its
        # row is fed with the rows of the next step that does
        if forced is None or any(cd.t > forced.T for cd in coords):
            # conditioning set must be exactly the union of earlier steps
            if not np.array_equal(written[fed : s + 1], presence[fed : s + 1]):
                raise InvariantError("a position was read before the pattern revealed it")
            branches = forward(params, slots[fed : s + 1], cache=kv)[:, -1]
            fed = s + 1
            logits = (
                cfg_combine(branches[0], branches[1], cfg.guidance_scale) if guided else branches[0]
            )
        for coord in coords:
            if written[s + 1, coord.k - 1]:
                raise InvariantError(f"slot for {tuple(coord)} written twice")
            if forced is not None and coord.t <= forced.T:
                token = int(forced.tokens[coord.t - 1, coord.k - 1])
            else:
                token = sample_token(logits[coord.k - 1], cfg, rng)
            slots[s + 1, coord.k - 1] = token
            written[s + 1, coord.k - 1] = True

    seq = InterleavedSequence(slots=slots, M=c.M)
    return revert_pattern(pattern, seq)


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
    if rng is None and not (cfg.mode == "greedy" or cfg.temperature == 0.0):
        raise ValidationError("sampling mode needs a random generator")
    return _walk_pattern(params, pattern, condition, cfg, rng, forced=None)


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
    if rng is None and not (cfg.mode == "greedy" or cfg.temperature == 0.0):
        raise ValidationError("sampling mode needs a random generator")
    return _walk_pattern(params, pattern, condition, cfg, rng, forced=prompt)
