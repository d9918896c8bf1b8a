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

Every forward runs over a DecodeCache. It holds, per layer, the
self-attention keys and values of the rows fed so far, and per branch the
condition's cross-attention keys and values, projected once. A cache stacks B
branches that share step rows and differ in condition (the conditional and
unconditional passes of classifier-free guidance), with a per-branch key mask
where their prefix lengths differ. open_cache prefills the prefix-condition
rows, and forward(params, new_rows, cache=kv) then runs the layers over the
new rows alone. A full-sequence forward, and each example of grad, is a fresh
one-branch cache fed the prefix rows and every step row in one call, where
the key mask is exactly the causal mask. Step rows take positions 0..S-1
whatever the prefix length, so cached logits equal a full-sequence forward.

Key projections carry no bias: softmax is invariant to a per-query constant
shift, so a key bias cannot affect the loss and would defeat gradient checks.

All math is float64. forward/grad are pure; the optimizer mutates its state
and parameters in place (single writer).
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

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
    # sums over D, as np.mean computes them, without its per-call overhead
    D = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / D
    xc = x - mu
    var = np.add.reduce(xc**2, axis=-1, keepdims=True) / D
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_b(dy: np.ndarray, cache):
    xhat, inv, g = cache
    D = dy.shape[-1]
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    # means over D, summed as in _layernorm_f
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / D
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / D)
    )
    return dx, dg, db


def _split_heads(x: np.ndarray, B: int, H: int) -> np.ndarray:
    """(B * N, D) rows, branch-major -> (B, H, N, D / H)."""
    rows, D = x.shape
    return x.reshape(B, rows // B, H, D // H).swapaxes(1, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, N, dh) -> (B * N, H * dh) rows, branch-major."""
    B, H, N, dh = x.shape
    return x.swapaxes(1, 2).reshape(B * N, H * dh)


def _project_kv(kv_in, w, B, H):
    """Keys and values of the rows kv_in of B branches, split into heads."""
    _, _, wk, wv, bv, _, _ = w
    return _split_heads(kv_in @ wk, B, H), _split_heads(kv_in @ wv + bv, B, H)


def _attend(q_in, kv_in, kh, vh, w, H, blocked):
    """The attention core: the rows q_in attend over the keys kh and values
    vh projected from the rows kv_in, each branch over its own. blocked,
    broadcast against the (B, H, queries, keys) scores, marks the keys a query
    may not see. Returns the output rows and the intermediates backward needs."""
    wq, bq, _, _, _, wo, bo = w
    qh = _split_heads(q_in @ wq + bq, len(kh), H)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(qh.shape[-1])
    if blocked is not None:
        np.copyto(scores, -np.inf, where=blocked)
    smax = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - smax)
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(p @ vh)
    return ctx @ wo + bo, (q_in, kv_in, qh, kh, vh, p, ctx, w)


def _attention_b(dout, cache):
    q_in, kv_in, qh, kh, vh, p, ctx, w = cache
    wq, bq, wk, wv, bv, wo, bo = w
    B, H, _, dh = qh.shape
    dwo = ctx.T @ dout
    dbo = dout.sum(axis=0)
    dctx = _split_heads(dout @ wo.T, B, H)
    dp = dctx @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ dctx
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dqh = ds @ kh / np.sqrt(dh)
    dkh = ds.swapaxes(-1, -2) @ qh / np.sqrt(dh)
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


def _check_condition(params: Parameters, prefix_rows, cross_rows) -> None:
    c = params.config
    if cross_rows is not None and cross_rows.shape[1] != c.D:
        raise ValidationError(f"cross condition rows must have dimension {c.D}")
    if prefix_rows is not None and prefix_rows.shape[1] != c.D:
        raise ValidationError(f"prefix condition rows must have dimension {c.D}")
    if cross_rows is not None and "layer0.lnx.g" not in params.arrays:
        raise ValidationError(
            "model was initialized without cross-attention parameters; "
            "re-init with conditioning_mode 'cross_attention' or 'both'"
        )


def _weights(A: dict, block: str) -> tuple:
    return tuple(A[f"{block}.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))


@dataclass
class DecodeCache:
    """The attention state of B stacked branches that share their step rows
    and differ only in condition; every trunk pass runs over one. Branch b
    holds lengths[b] rows: its
    prefix-condition rows, then the `steps` step rows fed since the cache
    opened; a branch with fewer prefix rows leaves the tail of its key axis
    unused, and a per-branch key mask hides it."""

    keys: np.ndarray  # (L, B, H, rows, D / H) self-attention keys per layer
    values: np.ndarray  # (L, B, H, rows, D / H)
    lengths: np.ndarray  # (B,) rows held per branch
    # per branch: None, or the condition's rows and per layer their (keys, values)
    cross: list
    steps: int = 0


def _new_cache(params: Parameters, conditions: Sequence, steps: int):
    """An empty decode cache with one branch per condition and room for the
    longest prefix plus `steps` step rows, and each branch's prefix-condition
    rows (None where it has none). Every condition is routed and checked here."""
    c = params.config
    A = params.arrays
    routes = [_route_condition(cond, c.conditioning_mode) for cond in conditions]
    for prefix_rows, cross_rows in routes:
        _check_condition(params, prefix_rows, cross_rows)
    n_prefix = max((len(pre) for pre, _ in routes if pre is not None), default=0)
    shape = (c.L, len(routes), c.H, n_prefix + steps, c.D // c.H)
    cross = [
        None
        if rows is None
        else (rows, [_project_kv(rows, _weights(A, f"layer{i}.xattn"), 1, c.H) for i in range(c.L)])
        for _, rows in routes
    ]
    kv = DecodeCache(np.zeros(shape), np.zeros(shape), np.zeros(len(routes), dtype=np.int64), cross)
    return kv, [prefix_rows for prefix_rows, _ in routes]


def open_cache(params: Parameters, conditions: Sequence, steps: int) -> DecodeCache:
    """A decode cache with one branch per condition and room for `steps` step
    rows. Each condition is routed as forward routes it; prefix-condition rows
    are run through the layers here, so later calls feed step rows only."""
    kv, prefixes = _new_cache(params, conditions, steps)
    no_steps = np.zeros((0, params.config.K), dtype=np.int64)
    for b, prefix_rows in enumerate(prefixes):
        if prefix_rows is not None:
            # a one-branch view: its keys, values and lengths write through
            one = slice(b, b + 1)
            view = DecodeCache(kv.keys[:, one], kv.values[:, one], kv.lengths[one], kv.cross[one])
            _forward_trunk(params, no_steps, prefix_rows, view, False)
    return kv


def _self_attention(kv: DecodeCache, i: int, q_in, w, H, blocked):
    """Append the new rows of every branch to layer i's keys and values, then
    attend each new row over the keys of its branch that blocked leaves open."""
    kh, vh = _project_kv(q_in, w, len(kv.lengths), H)
    n = kh.shape[2]
    for b, start in enumerate(kv.lengths):
        kv.keys[i, b, :, start : start + n] = kh[b]
        kv.values[i, b, :, start : start + n] = vh[b]
    end = blocked.shape[-1]
    return _attend(q_in, q_in, kv.keys[i, :, :, :end], kv.values[i, :, :, :end], w, H, blocked)


def _forward_trunk(params: Parameters, tokens, prefix_rows, kv: DecodeCache, need_cache):
    """Embeddings, layers and heads over new rows of every branch of kv: the
    prefix rows, if given, then the step rows, which continue at step
    kv.steps. Attention reads and extends kv, and each branch with a
    condition cross-attends it from kv. The rows of all branches stack
    branch-major, so row-wise work runs once for all of them; the logits are
    (B, S, K, M)."""
    c = params.config
    A = params.arrays
    S = tokens.shape[0]
    B = len(kv.lengths)
    if tokens.shape[1] != c.K:
        raise ValidationError(f"step inputs carry {tokens.shape[1]} codebooks, model has {c.K}")
    if tokens.size and (tokens.min() < 0 or tokens.max() > c.M):
        raise ValidationError(f"token ids must lie in 0..{c.M}")
    if kv.steps + S > c.max_steps:
        raise ValidationError(f"sequence exceeds max_steps={c.max_steps}")

    x = A["embed.k0"][tokens[:, 0]].copy()
    for k in range(1, c.K):
        x += A[f"embed.k{k}"][tokens[:, k]]
    x += sinusoidal_embedding(np.arange(kv.steps, kv.steps + S), c.D)
    if prefix_rows is not None:
        x = np.vstack([prefix_rows + sinusoidal_embedding(np.arange(len(prefix_rows)), c.D), x])
    n = len(x)
    pos = kv.lengths[:, None] + np.arange(n)  # (B, n) key index of each new row
    end = int(pos.max()) + 1
    if end > kv.keys.shape[3]:
        raise ValidationError(f"decode cache is full at {kv.keys.shape[3]} rows per branch")
    blocked = np.arange(end) > pos[:, None, :, None]  # the keys each new row may not see
    if B > 1:
        x = np.tile(x, (B, 1))

    caches = []
    for i in range(c.L):
        p = f"layer{i}"
        ln1_out, ln1_c = _layernorm_f(x, A[f"{p}.ln1.g"], A[f"{p}.ln1.b"])
        attn_out, attn_c = _self_attention(kv, i, ln1_out, _weights(A, f"{p}.attn"), c.H, blocked)
        x = x + attn_out

        x_c = []
        for b, cross in enumerate(kv.cross):
            if cross is not None:
                cond_rows, heads = cross
                rows = slice(b * n, (b + 1) * n)
                lnx_out, lnx_c = _layernorm_f(x[rows], A[f"{p}.lnx.g"], A[f"{p}.lnx.b"])
                xw = _weights(A, f"{p}.xattn")
                cross_out, cross_c = _attend(lnx_out, cond_rows, *heads[i], xw, c.H, None)
                x[rows] += cross_out
                x_c.append((rows, lnx_c, cross_c))

        ln2_out, ln2_c = _layernorm_f(x, A[f"{p}.ln2.g"], A[f"{p}.ln2.b"])
        h = ln2_out @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"]
        r = np.maximum(h, 0.0)
        x = x + r @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"]
        if need_cache:
            caches.append((ln1_c, attn_c, x_c, ln2_c, ln2_out, h, r))

    kv.lengths += n
    kv.steps += S
    hidden = x.reshape(B, n, c.D)[:, n - S :].reshape(B * S, c.D)
    logits = np.empty((B * S, c.K, c.M))
    for k in range(c.K):
        logits[:, k] = hidden @ A[f"head.k{k}.w"] + A[f"head.k{k}.b"]
    cache = (tokens, n, caches, hidden) if need_cache else None
    return logits.reshape(B, S, c.K, c.M), hidden, cache


def forward(
    params: Parameters, steps, condition=None, cache: DecodeCache | None = None
) -> np.ndarray:
    """Causal logits of shape (S, K, M); position s predicts the tokens the
    pattern reveals at step s+1 and depends only on inputs 0..s plus the
    condition, routed by the config's conditioning mode.

    With a cache from open_cache, steps are only the rows that follow those
    already fed, the condition is the cache's, and the logits, shaped
    (B, S, K, M), equal those of a full-prefix forward for each branch."""
    tokens = _coerce_tokens(steps)
    if cache is not None:
        if condition is not None:
            raise ValidationError("a cached forward takes its conditions from the cache")
        return _forward_trunk(params, tokens, None, cache, False)[0]
    kv, (prefix_rows,) = _new_cache(params, [condition], len(tokens))
    return _forward_trunk(params, tokens, prefix_rows, kv, False)[0][0]


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
    """Add to grads the gradients of the trunk pass that left cache, given
    dlogits shaped like its (B, S, K, M) logits."""
    c = params.config
    A = params.arrays
    tokens, n, caches, hidden = cache
    B, S = dlogits.shape[:2]

    dlogits = dlogits.reshape(B * S, c.K, c.M)
    dhidden = np.zeros_like(hidden)
    for k in range(c.K):
        dk = dlogits[:, k, :]
        grads[f"head.k{k}.w"] += hidden.T @ dk
        grads[f"head.k{k}.b"] += dk.sum(axis=0)
        dhidden += dk @ A[f"head.k{k}.w"].T
    dx = np.zeros((B, n, c.D))
    dx[:, n - S :] = dhidden.reshape(B, S, c.D)
    dx = dx.reshape(B * n, c.D)

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

        for rows, lnx_c, cross_c in x_c:
            dq_in, _dkv, att_g = _attention_b(dx[rows], cross_c)
            for name, gval in att_g.items():
                grads[f"{p}.xattn.{name}"] += gval
            dlnx, dg, db = _layernorm_b(dq_in, lnx_c)
            grads[f"{p}.lnx.g"] += dg
            grads[f"{p}.lnx.b"] += db
            dx[rows] += dlnx

        dqkv, dkv2, att_g = _attention_b(dx, attn_c)
        for name, gval in att_g.items():
            grads[f"{p}.attn.{name}"] += gval
        dln1 = dqkv + dkv2  # self-attention: queries and keys/values share input
        dln1_out, dg, db = _layernorm_b(dln1, ln1_c)
        grads[f"{p}.ln1.g"] += dg
        grads[f"{p}.ln1.b"] += db
        dx = dx + dln1_out

    dsteps = dx.reshape(B, n, c.D)[:, n - S :].sum(axis=0)  # branches share step rows
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
        kv, (prefix_rows,) = _new_cache(params, [ex.condition], len(tokens))
        logits, _, cache = _forward_trunk(params, tokens, prefix_rows, kv, True)
        logits = logits[0]
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
        _backward_trunk(params, cache, dlogits[None], grads)

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
    write_atomically(path, lambda fh: np.savez(fh, **payload))


def write_atomically(path, write: Callable) -> None:
    """Call write(fh) on a temporary file beside path, then rename it onto
    path: an interrupted write leaves the old file, never a truncated one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
