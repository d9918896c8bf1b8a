"""Tiny autoregressive transformer decoder with explicit reverse-mode gradients.

Architecture, per pattern step: per-codebook embedding lookups (index 0 is the
absence token) summed together plus a sinusoidal step encoding, then L
pre-norm layers of causal self-attention, an optional cross-attention block
fed with the conditioning tensor, and a ReLU feed-forward block (D -> 4D -> D),
each wrapped in a residual skip. Per-codebook linear heads map the trunk
output at position s to logits for the tokens revealed at step s+1.

Conditioning routes, fixed by ModelConfig.conditioning_mode: "cross_attention"
feeds the tensor to every layer's cross-attention block; "prefix" prepends it
to the input rows; "both" takes a CombinedCondition and does both at once;
"none" ignores it. A condition is a ConditioningTensor (or CombinedCondition)
and None is the null condition; an empty tensor skips the blocks entirely, so
cross-attention with an empty tensor computes exactly the unconditional pass.

Key projections carry no bias: softmax is invariant to a per-query constant
shift, so a key bias cannot affect the loss and would defeat gradient checks.

All math is float64. forward/grad are pure; the optimizer mutates its state
and parameters in place (single writer).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conditioning import ConditioningTensor, draw_condition_drop
from .errors import ValidationError
from .patterns import InterleavedSequence, Pattern, TokenGrid, apply_pattern

CONDITIONING_MODES = ("none", "prefix", "cross_attention", "both")
LN_EPS = 1e-5
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    K: int
    M: int
    D: int = 64
    L: int = 2
    H: int = 4
    ffn_mult: int = 4
    max_steps: int = 2048
    conditioning_mode: str = "none"

    def __post_init__(self) -> None:
        for name in ("K", "M", "D", "L", "H", "ffn_mult", "max_steps"):
            if getattr(self, name) < 1:
                raise ValidationError(f"ModelConfig.{name} must be >= 1")
        if self.D % self.H != 0:
            raise ValidationError(f"D={self.D} must be divisible by H={self.H}")
        if self.conditioning_mode not in CONDITIONING_MODES:
            raise ValidationError(f"conditioning_mode must be one of {CONDITIONING_MODES}")

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "M": self.M,
            "D": self.D,
            "L": self.L,
            "H": self.H,
            "ffn_mult": self.ffn_mult,
            "max_steps": self.max_steps,
            "conditioning_mode": self.conditioning_mode,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


@dataclass
class Parameters:
    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def n_params(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))

    def copy(self) -> "Parameters":
        return Parameters(config=self.config, arrays={k: v.copy() for k, v in self.arrays.items()})


@dataclass(frozen=True)
class CombinedCondition:
    """Joint routing: a prefix tensor (melody) plus a cross-attention tensor (text)."""

    prefix: ConditioningTensor | None = None
    cross: ConditioningTensor | None = None


@dataclass(frozen=True)
class TrainExample:
    tokens: np.ndarray  # (S, K) model inputs, rows 0..S-1 of the slot sequence
    targets: InterleavedSequence
    pattern: Pattern
    condition: object = None  # None | ConditioningTensor | CombinedCondition


def example_from_grid(pattern: Pattern, grid: TokenGrid, condition=None) -> TrainExample:
    seq = apply_pattern(pattern, grid)
    return TrainExample(tokens=seq.slots[:-1], targets=seq, pattern=pattern, condition=condition)


def _param_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter array, in init order."""
    D, F = c.D, c.ffn_mult * c.D
    shapes = {f"embed.k{k}": (c.M + 1, D) for k in range(c.K)}
    blocks = [("ln1", "attn")]
    if c.conditioning_mode in ("cross_attention", "both"):
        blocks.append(("lnx", "xattn"))
    for i in range(c.L):
        p = f"layer{i}"
        for ln, attn in blocks:
            shapes.update({f"{p}.{ln}.g": (D,), f"{p}.{ln}.b": (D,)})
            shapes.update({f"{p}.{attn}.w{x}": (D, D) for x in "qkvo"})
            shapes.update({f"{p}.{attn}.b{x}": (D,) for x in "qvo"})
        shapes.update({f"{p}.ln2.g": (D,), f"{p}.ln2.b": (D,)})
        shapes.update({f"{p}.ffn.w1": (D, F), f"{p}.ffn.b1": (F,)})
        shapes.update({f"{p}.ffn.w2": (F, D), f"{p}.ffn.b2": (D,)})
    for k in range(c.K):
        shapes.update({f"head.k{k}.w": (D, c.M), f"head.k{k}.b": (c.M,)})
    return shapes


def init_params(config: ModelConfig, seed: int) -> Parameters:
    """Deterministic scaled-Gaussian init.

    Matrices get sigma = 1/sqrt(fan_in); absence-token embedding rows are
    drawn like regular rows. Biases and layer-norm offsets are small Gaussians
    and layer-norm gains sit near 1, so no tensor is all zeros.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config).items():
        if name.endswith(".g"):
            arrays[name] = 1.0 + 0.02 * rng.standard_normal(shape)
        elif len(shape) == 1:
            arrays[name] = 0.02 * rng.standard_normal(shape)
        else:
            fan_in = shape[0]
            arrays[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
    return Parameters(config=config, arrays=arrays)


def zero_grads(params: Parameters) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.arrays.items()}


def sinusoidal_embedding(positions, D: int) -> np.ndarray:
    """Alternating sine/cosine encoding; rows index positions."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    i = np.arange(D)
    freq = np.power(10000.0, -2.0 * (i // 2) / D)
    ang = pos * freq
    return np.where(i % 2 == 0, np.sin(ang), np.cos(ang))


def _coerce_tokens(steps) -> np.ndarray:
    """The (S, K) int64 token matrix of the step inputs; row s sits at step s."""
    tokens = np.asarray(steps, dtype=np.int64)
    if tokens.ndim != 2:
        raise ValidationError("step inputs must form an (S, K) matrix")
    return tokens


def _cond_rows(obj) -> np.ndarray | None:
    if obj is None:
        return None
    if not isinstance(obj, ConditioningTensor):
        raise ValidationError(f"a condition must be a ConditioningTensor, got {type(obj).__name__}")
    return obj.rows if obj.T_C > 0 else None


def _route_condition(condition, mode: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Resolve (prefix_rows, cross_rows) from the condition and the model's mode."""
    if mode == "none" or condition is None:
        return None, None
    if isinstance(condition, CombinedCondition):
        if mode != "both":
            raise ValidationError("CombinedCondition requires conditioning mode 'both'")
        return _cond_rows(condition.prefix), _cond_rows(condition.cross)
    rows = _cond_rows(condition)
    if mode == "both":
        raise ValidationError("mode 'both' needs a CombinedCondition")
    return (rows, None) if mode == "prefix" else (None, rows)


def _layernorm_f(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc**2, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_b(dy: np.ndarray, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _split_heads(x: np.ndarray, H: int) -> np.ndarray:
    N, D = x.shape
    return x.reshape(N, H, D // H).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    H, N, dh = x.shape
    return x.transpose(1, 0, 2).reshape(N, H * dh)


def _attention_f(q_in, kv_in, w, H, causal: bool):
    """Shared attention core; q_in and kv_in may differ (cross-attention)."""
    wq, bq, wk, wv, bv, wo, bo = w
    q = q_in @ wq + bq
    k = kv_in @ wk
    v = kv_in @ wv + bv
    qh, kh, vh = (_split_heads(a, H) for a in (q, k, v))
    dh = qh.shape[-1]
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(dh)
    if causal:
        n, m = scores.shape[-2:]
        future = np.triu(np.ones((n, m), dtype=bool), k=1)
        scores = np.where(future, -np.inf, scores)
    smax = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - smax)
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(p @ vh)
    out = ctx @ wo + bo
    cache = (q_in, kv_in, qh, kh, vh, p, ctx, w, H)
    return out, cache


def _attention_b(dout, cache):
    q_in, kv_in, qh, kh, vh, p, ctx, w, H = cache
    wq, bq, wk, wv, bv, wo, bo = w
    dh = qh.shape[-1]
    dwo = ctx.T @ dout
    dbo = dout.sum(axis=0)
    dctx = _split_heads(dout @ wo.T, H)
    dp = dctx @ vh.transpose(0, 2, 1)
    dvh = p.transpose(0, 2, 1) @ dctx
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dqh = ds @ kh / np.sqrt(dh)
    dkh = ds.transpose(0, 2, 1) @ qh / np.sqrt(dh)
    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    dq_in = dq @ wq.T
    dkv_in = dk @ wk.T + dv @ wv.T
    grads = {
        "wq": q_in.T @ dq,
        "bq": dq.sum(axis=0),
        "wk": kv_in.T @ dk,
        "wv": kv_in.T @ dv,
        "bv": dv.sum(axis=0),
        "wo": dwo,
        "bo": dbo,
    }
    return dq_in, dkv_in, grads


def _forward_trunk(params: Parameters, tokens, prefix_rows, cross_rows, need_cache):
    c = params.config
    A = params.arrays
    S = tokens.shape[0]
    if tokens.shape[1] != c.K:
        raise ValidationError(f"step inputs carry {tokens.shape[1]} codebooks, model has {c.K}")
    if tokens.size and (tokens.min() < 0 or tokens.max() > c.M):
        raise ValidationError(f"token ids must lie in 0..{c.M}")
    if S > c.max_steps:
        raise ValidationError(f"sequence exceeds max_steps={c.max_steps}")
    if cross_rows is not None and cross_rows.shape[1] != c.D:
        raise ValidationError(f"cross condition rows must have dimension {c.D}")
    if prefix_rows is not None and prefix_rows.shape[1] != c.D:
        raise ValidationError(f"prefix condition rows must have dimension {c.D}")
    if cross_rows is not None and "layer0.lnx.g" not in A:
        raise ValidationError(
            "model was initialized without cross-attention parameters; "
            "re-init with conditioning_mode 'cross_attention' or 'both'"
        )

    x_steps = A["embed.k0"][tokens[:, 0]].copy()
    for k in range(1, c.K):
        x_steps += A[f"embed.k{k}"][tokens[:, k]]
    x_steps += sinusoidal_embedding(np.arange(S), c.D)

    if prefix_rows is not None:
        n_prefix = prefix_rows.shape[0]
        x = np.vstack([prefix_rows + sinusoidal_embedding(np.arange(n_prefix), c.D), x_steps])
    else:
        n_prefix = 0
        x = x_steps

    caches = []
    for i in range(c.L):
        p = f"layer{i}"
        ln1_out, ln1_c = _layernorm_f(x, A[f"{p}.ln1.g"], A[f"{p}.ln1.b"])
        attn_w = tuple(A[f"{p}.attn.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))
        attn_out, attn_c = _attention_f(ln1_out, ln1_out, attn_w, c.H, causal=True)
        x = x + attn_out

        x_c = None
        if cross_rows is not None:
            lnx_out, lnx_c = _layernorm_f(x, A[f"{p}.lnx.g"], A[f"{p}.lnx.b"])
            xw = tuple(A[f"{p}.xattn.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))
            cross_out, cross_c = _attention_f(lnx_out, cross_rows, xw, c.H, causal=False)
            x = x + cross_out
            x_c = (lnx_c, cross_c)

        ln2_out, ln2_c = _layernorm_f(x, A[f"{p}.ln2.g"], A[f"{p}.ln2.b"])
        h = ln2_out @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"]
        r = np.maximum(h, 0.0)
        x = x + r @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"]
        if need_cache:
            caches.append((ln1_c, attn_c, x_c, ln2_c, ln2_out, h, r))

    hidden = x[n_prefix:]
    logits = np.empty((S, c.K, c.M))
    for k in range(c.K):
        logits[:, k, :] = hidden @ A[f"head.k{k}.w"] + A[f"head.k{k}.b"]
    cache = (tokens, n_prefix, x, caches, hidden) if need_cache else None
    return logits, hidden, cache


def forward(params: Parameters, steps, condition=None) -> np.ndarray:
    """Causal logits of shape (S, K, M); position s predicts the tokens the
    pattern reveals at step s+1 and depends only on inputs 0..s plus the
    condition, routed by the config's conditioning mode."""
    tokens = _coerce_tokens(steps)
    prefix_rows, cross_rows = _route_condition(condition, params.config.conditioning_mode)
    logits, _, _ = _forward_trunk(params, tokens, prefix_rows, cross_rows, False)
    return logits


def _masked_log_softmax(logits: np.ndarray):
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z - lse


def _target_mask(targets: InterleavedSequence, pattern: Pattern, S: int, K: int):
    if targets.slots.shape != (S + 1, K):
        raise ValidationError("targets do not match the logits' step count")
    if pattern.K != K or len(pattern.steps) != S + 1:
        raise ValidationError("pattern does not match the logits' step count")
    return pattern.presence_mask()[1:]


def loss_masked(logits: np.ndarray, targets: InterleavedSequence, pattern: Pattern) -> float:
    """Mean cross-entropy over positions (s, k) where codebook k is revealed
    at step s+1; absence slots carry no information and are excluded."""
    S, K, _ = logits.shape
    mask = _target_mask(targets, pattern, S, K)
    if not mask.any():
        raise ValidationError("no revealed positions to score")
    logp = _masked_log_softmax(logits)
    s_idx, k_idx = np.nonzero(mask)
    tok = targets.slots[1:][mask] - 1
    return float(-logp[s_idx, k_idx, tok].mean())


def masked_accuracy(logits: np.ndarray, targets: InterleavedSequence, pattern: Pattern) -> float:
    S, K, _ = logits.shape
    mask = _target_mask(targets, pattern, S, K)
    if not mask.any():
        raise ValidationError("no revealed positions to score")
    pred = logits.argmax(axis=-1) + 1
    return float(np.mean(pred[mask] == targets.slots[1:][mask]))


@dataclass
class GradResult:
    loss: float
    accuracy: float
    grads: dict[str, np.ndarray]


def _backward_trunk(params: Parameters, cache, dlogits, grads):
    c = params.config
    A = params.arrays
    tokens, n_prefix, x_final, caches, hidden = cache

    dhidden = np.zeros_like(hidden)
    for k in range(c.K):
        dk = dlogits[:, k, :]
        grads[f"head.k{k}.w"] += hidden.T @ dk
        grads[f"head.k{k}.b"] += dk.sum(axis=0)
        dhidden += dk @ A[f"head.k{k}.w"].T
    dx = np.zeros_like(x_final)
    dx[n_prefix:] = dhidden

    for i in reversed(range(c.L)):
        p = f"layer{i}"
        ln1_c, attn_c, x_c, ln2_c, ln2_out, h, r = caches[i]

        # ffn block: x3 = x2 + relu(ln2(x2) @ w1 + b1) @ w2 + b2
        dr = dx @ A[f"{p}.ffn.w2"].T
        grads[f"{p}.ffn.w2"] += r.T @ dx
        grads[f"{p}.ffn.b2"] += dx.sum(axis=0)
        dh = dr * (h > 0.0)
        grads[f"{p}.ffn.w1"] += ln2_out.T @ dh
        grads[f"{p}.ffn.b1"] += dh.sum(axis=0)
        dln2_out = dh @ A[f"{p}.ffn.w1"].T
        dx2, dg, db = _layernorm_b(dln2_out, ln2_c)
        grads[f"{p}.ln2.g"] += dg
        grads[f"{p}.ln2.b"] += db
        dx = dx + dx2

        if x_c is not None:
            lnx_c, cross_c = x_c
            dq_in, _dkv, att_g = _attention_b(dx, cross_c)
            for n, gval in att_g.items():
                grads[f"{p}.xattn.{n}"] += gval
            dlnx, dg, db = _layernorm_b(dq_in, lnx_c)
            grads[f"{p}.lnx.g"] += dg
            grads[f"{p}.lnx.b"] += db
            dx = dx + dlnx

        dqkv, dkv2, att_g = _attention_b(dx, attn_c)
        for n, gval in att_g.items():
            grads[f"{p}.attn.{n}"] += gval
        dln1 = dqkv + dkv2  # self-attention: queries and keys/values share input
        dln1_out, dg, db = _layernorm_b(dln1, ln1_c)
        grads[f"{p}.ln1.g"] += dg
        grads[f"{p}.ln1.b"] += db
        dx = dx + dln1_out

    dsteps = dx[n_prefix:]
    for k in range(c.K):
        np.add.at(grads[f"embed.k{k}"], tokens[:, k], dsteps)


def grad(params: Parameters, batch: Sequence[TrainExample]) -> GradResult:
    """Exact reverse-mode gradients of the pooled masked cross-entropy over the
    batch (positions pooled across examples)."""
    if not batch:
        raise ValidationError("empty batch")
    c = params.config
    grads = zero_grads(params)

    prepared = []
    total_count = 0
    for ex in batch:
        tokens = _coerce_tokens(ex.tokens)
        mask = _target_mask(ex.targets, ex.pattern, tokens.shape[0], c.K)
        total_count += int(mask.sum())
        prepared.append((ex, tokens, mask))
    if total_count == 0:
        raise ValidationError("no revealed positions in the batch")

    loss_sum = 0.0
    correct = 0
    for ex, tokens, mask in prepared:
        prefix_rows, cross_rows = _route_condition(ex.condition, c.conditioning_mode)
        logits, _, cache = _forward_trunk(params, tokens, prefix_rows, cross_rows, True)
        logp = _masked_log_softmax(logits)
        s_idx, k_idx = np.nonzero(mask)
        tok = ex.targets.slots[1:][mask] - 1
        loss_sum += float(-logp[s_idx, k_idx, tok].sum())
        pred = logits.argmax(axis=-1) + 1
        correct += int((pred[mask] == ex.targets.slots[1:][mask]).sum())

        dlogits = np.zeros_like(logits)
        soft = np.exp(logp)
        dlogits[s_idx, k_idx] = soft[s_idx, k_idx]
        dlogits[s_idx, k_idx, tok] -= 1.0
        dlogits /= total_count
        _backward_trunk(params, cache, dlogits, grads)

    loss = loss_sum / total_count
    if not np.isfinite(loss):
        raise ValidationError("non-finite loss")
    return GradResult(loss=loss, accuracy=correct / total_count, grads=grads)


@dataclass(frozen=True)
class TrainHyper:
    lr_max: float = 1e-2
    lr_min: float = 0.0
    warmup_steps: int = 100
    total_steps: int = 2000
    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    condition_dropout: float = 0.2  # CFG: chance a step trains the null condition

    def __post_init__(self) -> None:
        if not 0.0 <= self.condition_dropout <= 1.0:
            raise ValidationError(
                f"condition_dropout must lie in [0, 1], got {self.condition_dropout}"
            )


@dataclass
class AdamWState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: Parameters) -> "AdamWState":
        return cls(step=0, m=zero_grads(params), v=zero_grads(params))


@dataclass(frozen=True)
class StepStats:
    step: int
    lr: float
    loss: float
    accuracy: float
    grad_norm: float
    condition_dropped: bool


def cosine_lr(step: int, hyper: TrainHyper) -> float:
    """Linear warmup to lr_max, then cosine decay to lr_min at total_steps."""
    if step < hyper.warmup_steps:
        return hyper.lr_max * (step + 1) / hyper.warmup_steps
    span = max(1, hyper.total_steps - hyper.warmup_steps)
    progress = min(1.0, (step - hyper.warmup_steps) / span)
    return hyper.lr_min + 0.5 * (hyper.lr_max - hyper.lr_min) * (1.0 + np.cos(np.pi * progress))


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def train_step(
    state: AdamWState,
    params: Parameters,
    batch: Sequence[TrainExample],
    hyper: TrainHyper,
    rng: np.random.Generator,
) -> tuple[AdamWState, Parameters, StepStats]:
    """One AdamW update: optional condition drop (the CFG trick), global-norm
    clipping, decoupled weight decay on matrices only. Mutates state/params."""
    dropped = draw_condition_drop(hyper.condition_dropout, rng)
    if dropped:
        batch = [replace(ex, condition=None) for ex in batch]

    result = grad(params, batch)
    gnorm = global_grad_norm(result.grads)
    if not np.isfinite(gnorm):
        raise ValidationError("non-finite gradients; update refused")
    scale = 1.0 if gnorm <= hyper.clip_norm or gnorm == 0.0 else hyper.clip_norm / gnorm

    lr = cosine_lr(state.step, hyper)
    b1, b2 = hyper.betas
    t = state.step + 1
    for name, g in result.grads.items():
        g = g * scale
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        mhat = state.m[name] / (1.0 - b1**t)
        vhat = state.v[name] / (1.0 - b2**t)
        p = params.arrays[name]
        p -= lr * mhat / (np.sqrt(vhat) + hyper.eps)
        if hyper.weight_decay > 0.0 and p.ndim >= 2:
            p -= lr * hyper.weight_decay * p
        if not np.isfinite(p).all():
            raise ValidationError(f"non-finite update in {name}")
    state.step = t
    return state, params, StepStats(
        step=t,
        lr=lr,
        loss=result.loss,
        accuracy=result.accuracy,
        grad_norm=gnorm,
        condition_dropped=dropped,
    )


@dataclass
class EMAWeights:
    """Exponential moving average track for evaluation weights."""

    decay: float
    arrays: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: Parameters, decay: float = 0.99) -> "EMAWeights":
        return cls(decay=decay, arrays={k: v.copy() for k, v in params.arrays.items()})

    def update(self, params: Parameters) -> None:
        for name, p in params.arrays.items():
            self.arrays[name] = self.decay * self.arrays[name] + (1.0 - self.decay) * p


def save_checkpoint(
    path,
    params: Parameters,
    opt_state: AdamWState | None = None,
    extra: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    """Single-file container: parameter/optimizer arrays plus a JSON header."""
    payload: dict[str, np.ndarray] = {}
    for name, arr in params.arrays.items():
        payload[f"p:{name}"] = arr
    if opt_state is not None:
        for name, arr in opt_state.m.items():
            payload[f"m:{name}"] = arr
        for name, arr in opt_state.v.items():
            payload[f"v:{name}"] = arr
    for name, arr in (extra or {}).items():
        payload[f"x:{name}"] = np.asarray(arr)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "opt_step": opt_state.step if opt_state is not None else None,
        "meta": meta or {},
    }
    payload["__header__"] = np.array(json.dumps(header, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


@dataclass
class Checkpoint:
    params: Parameters
    opt_state: AdamWState | None
    extra: dict[str, np.ndarray]
    meta: dict


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint container; a file that is not one, or whose
    parameter arrays do not match its config, raises ValidationError."""
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path} is not an npz checkpoint") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path} is not an npz checkpoint")
    try:
        with data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(str(arrays["__header__"]))
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValidationError(f"unsupported checkpoint version {header.get('version')}")
        config = ModelConfig.from_dict(header["config"])
        opt_step = header.get("opt_step")
        opt_step = None if opt_step is None else int(opt_step)
        meta = header["meta"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError,
            zipfile.BadZipFile) as exc:
        raise ValidationError(f"unreadable checkpoint {path}: {exc}") from exc

    def prefixed(tag: str) -> dict[str, np.ndarray]:
        return {k[2:]: v for k, v in arrays.items() if k.startswith(tag)}

    params = Parameters(config=config, arrays=prefixed("p:"))
    expected = _param_shapes(config)
    got = {name: arr.shape for name, arr in params.arrays.items()}
    if got != expected:
        wrong = sorted(n for n in expected.keys() | got.keys() if expected.get(n) != got.get(n))
        raise ValidationError(
            f"checkpoint parameters do not match its config: {', '.join(wrong[:5])}"
        )
    opt_state = None
    if opt_step is not None:
        opt_state = AdamWState(step=opt_step, m=prefixed("m:"), v=prefixed("v:"))
    return Checkpoint(params=params, opt_state=opt_state, extra=prefixed("x:"), meta=meta)
