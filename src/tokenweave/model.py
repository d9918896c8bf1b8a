"""Tiny autoregressive transformer decoder with explicit reverse-mode gradients.

Architecture, per pattern step: per-codebook embedding lookups (index 0 is the
absence token) summed together plus a sinusoidal step encoding, then L
pre-norm layers of causal self-attention, an optional cross-attention block
fed with the conditioning tensor, and a ReLU feed-forward block (D -> 4D -> D),
each wrapped in a residual skip. Per-codebook linear heads map the trunk
output at position s to logits for the tokens revealed at step s+1.

Conditioning routes, fixed by ModelConfig.conditioning_mode: "cross_attention"
feeds the tensor to every layer's cross-attention block; "prefix" prepends it
to the input rows; "none" ignores it. A condition is a float (T_C, D) array
and None is the null condition; every mode checks a condition as it routes
it (checked_array, then its width), and T_C = 0 skips the blocks entirely,
so cross-attention with an empty condition computes exactly the
unconditional pass.

Every forward runs over a DecodeCache: per layer the self-attention keys and
values of the rows fed so far, and the cross-attention keys and values of the
branches' conditions, padded into one block and projected once. A cache
stacks B branches, each with its own condition, that share their step rows
(the conditional and unconditional passes of classifier-free guidance) or
feed their own (the examples of a training pass); per-branch key masks hide
what a shorter branch does not hold. open_cache prefills the prefix-condition
rows, and forward(params, new_rows, cache=kv) then runs the layers over the
new rows alone. A full-sequence forward is a fresh one-branch cache fed every
row in one call, where the key mask is exactly the causal mask. Step rows
take positions 0..S-1 whatever the prefix length, so cached logits equal a
full-sequence forward. A cache lays the weights out once, as they are when it
opens (grad: once per call): a step makes one embedding gather, one stacked
q/k/v product and cache write per layer and one stacked head product, the
bits of separate lookups and products. While its branches share one length,
as they do unless prefixes of different lengths fed them, that write is one
slice, and a single new row needs no key mask.

A training example is its pattern's slot sequence: rows 0..S-1 are the
inputs, rows 1..S the targets, and the loss covers the targets that are not
the special (absence) token. grad runs the batch in passes of at most
ROW_BUDGET rows, one branch per example, which bounds the activations kept
for backward; shorter examples are right-padded with special tokens. The
hand-written backward reads the same per-layer arrays as the forward, which
_blocks alone looks up by name, and adds each gradient in place.

Key projections carry no bias: softmax is invariant to a per-query constant
shift, so a key bias cannot affect the loss and would defeat gradient checks.

All math is float64. forward/grad are pure; the optimizer mutates its state
and parameters in place (single writer).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .conditioning import draw_condition_drop
from .errors import ValidationError, check_entries, checked_array
from .patterns import SPECIAL_TOKEN, Pattern, TokenGrid, apply_pattern

CONDITIONING_MODES = ("none", "prefix", "cross_attention")
LN_EPS = 1e-5
FFN_MULT = 4
ADAM_EPS = 1e-8
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    K: int
    M: int
    D: int = 64
    L: int = 2
    H: int = 4
    max_steps: int = 2048
    conditioning_mode: str = "none"

    def __post_init__(self) -> None:
        for name in ("K", "M", "D", "L", "H", "max_steps"):
            value = getattr(self, name)
            # a checkpoint header is JSON, so a float or bool can arrive here
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"ModelConfig.{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValidationError(f"ModelConfig.{name} must be >= 1")
        if self.D % self.H != 0:
            raise ValidationError(f"D={self.D} must be divisible by H={self.H}")
        if self.conditioning_mode not in CONDITIONING_MODES:
            raise ValidationError(f"conditioning_mode must be one of {CONDITIONING_MODES}")


@dataclass
class Parameters:
    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        # one past the arrays present is enough to tell: a header's sizes may be huge
        expected = dict(itertools.islice(_param_shapes(self.config), len(self.arrays) + 1))
        got = {name: np.shape(arr) for name, arr in self.arrays.items()}
        if got != expected:
            # a name past a cut-short schema may still belong to it
            extra = got.keys() - expected.keys() if len(expected) <= len(got) else set()
            wrong = sorted({n for n in expected if expected[n] != got.get(n)} | extra)
            raise ValidationError(f"parameters do not match their config: {', '.join(wrong[:5])}")


@dataclass(frozen=True)
class TrainExample:
    """One training sequence: the (S+1, K) slot sequence a pattern lays a
    grid out as, and its condition. The model reads slot rows 0..S-1 and
    predicts rows 1..S; a slot holding the special token is an absent
    codebook and scores nothing."""

    slots: np.ndarray
    condition: np.ndarray | None = None  # (T_C, D) rows

    @property
    def tokens(self) -> np.ndarray:
        """The (S, K) model inputs, rows 0..S-1 of the slot sequence."""
        return self.slots[:-1]


def example_from_grid(pattern: Pattern, grid: TokenGrid, condition=None) -> TrainExample:
    return TrainExample(slots=apply_pattern(pattern, grid), condition=condition)


def _param_shapes(c: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter array, in init order."""
    D, F = c.D, FFN_MULT * c.D
    for k in range(c.K):
        yield f"embed.k{k}", (c.M + 1, D)
    blocks = [("ln1", "attn")]
    if c.conditioning_mode == "cross_attention":
        blocks.append(("lnx", "xattn"))
    for i in range(c.L):
        p = f"layer{i}"
        for ln, attn in blocks:
            yield from [(f"{p}.{ln}.g", (D,)), (f"{p}.{ln}.b", (D,))]
            yield from [(f"{p}.{attn}.w{x}", (D, D)) for x in "qkvo"]
            yield from [(f"{p}.{attn}.b{x}", (D,)) for x in "qvo"]
        yield from [(f"{p}.ln2.g", (D,)), (f"{p}.ln2.b", (D,))]
        yield from [(f"{p}.ffn.w1", (D, F)), (f"{p}.ffn.b1", (F,))]
        yield from [(f"{p}.ffn.w2", (F, D)), (f"{p}.ffn.b2", (D,))]
    for k in range(c.K):
        yield from [(f"head.k{k}.w", (D, c.M)), (f"head.k{k}.b", (c.M,))]


def init_params(config: ModelConfig, seed: int) -> Parameters:
    """Deterministic scaled-Gaussian init.

    Matrices get sigma = 1/sqrt(fan_in); absence-token embedding rows are
    drawn like regular rows. Biases and layer-norm offsets are small Gaussians
    and layer-norm gains sit near 1, so no tensor is all zeros. A config over
    the entry budget (errors.check_entries) is refused before any array exists.
    """
    # layers are alike: two short schemas count them without walking all L
    one, two = (sum(math.prod(s) for _, s in _param_shapes(replace(config, L=n))) for n in (1, 2))
    check_entries(one + (config.L - 1) * (two - one), "the parameters")
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config):
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
    """Alternating sine/cosine encoding; rows index positions. Columns 2j and
    2j+1 hold the sine and cosine of one angle."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
    ang = pos * np.power(10000.0, -2.0 * np.arange((D + 1) // 2) / D)
    out = np.empty((len(pos), D))
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang[:, : D // 2])
    return out


def _coerce_tokens(steps, c: ModelConfig) -> np.ndarray:
    """The (S, K) int64 token matrix of the step inputs, ids in 0..M."""
    tokens = checked_array(steps, "token ids", 2, whole=True, low=0, high=c.M)
    if tokens.shape[1] != c.K:
        raise ValidationError(f"step inputs carry {tokens.shape[1]} codebooks, model has {c.K}")
    return tokens


def _pad_stack(arrays: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The arrays, of at most n rows each, stacked and right-padded with zeros."""
    out = np.zeros((len(arrays), n) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for j, a in enumerate(arrays):
        out[j, : len(a)] = a
    return out


def _route_condition(condition, c: ModelConfig) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Check the condition, then resolve (prefix_rows, cross_rows) from it and
    the model's mode; mode "none" ignores a well-formed one."""
    if condition is None:
        return None, None
    rows = checked_array(condition, "conditioning tensor", 2)
    if rows.shape[1] != c.D:
        raise ValidationError(f"condition rows must have dimension {c.D}")
    if c.conditioning_mode == "none" or len(rows) == 0:
        return None, None
    return (rows, None) if c.conditioning_mode == "prefix" else (None, rows)


def _layernorm_f(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # sums over D, as np.mean computes them, without its per-call overhead
    D = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / D
    xc = x - mu
    var = np.add.reduce(xc**2, axis=-1, keepdims=True) / D
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_b(dy: np.ndarray, cache, grads) -> np.ndarray:
    """dx of the norm that left cache; adds dg and db into grads, its (g, b)."""
    (xhat, inv, g), (gg, gb) = cache, grads
    D = dy.shape[-1]
    gg += (dy * xhat).sum(axis=0)
    gb += dy.sum(axis=0)
    dxhat = dy * g
    # means over D, summed as in _layernorm_f
    return inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / D
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / D)
    )


def _split_heads(x: np.ndarray, B: int, H: int) -> np.ndarray:
    """(B * N, D) rows, branch-major -> (B, H, N, D / H)."""
    rows, D = x.shape
    return x.reshape(B, rows // B, H, D // H).swapaxes(1, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, N, dh) -> (B * N, H * dh) rows, branch-major."""
    B, H, N, dh = x.shape
    return x.swapaxes(1, 2).reshape(B * N, H * dh)


def _attend(qh, q_in, kv_in, kh, vh, w, blocked):
    """The attention core: the query heads qh of the rows q_in attend over the
    keys kh and values vh projected from the rows kv_in, each branch over its
    own. blocked (None: every key is open), broadcast against the (B, H,
    queries, keys) scores, marks the keys a query may not see. Returns the
    output rows and the intermediates backward needs."""
    wo, bo = w[5:]
    scores = qh @ kh.swapaxes(-1, -2)
    scores /= math.sqrt(qh.shape[-1])
    if blocked is not None:
        np.copyto(scores, -np.inf, where=blocked)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    ctx = _merge_heads(p @ vh)
    return ctx @ wo + bo, (q_in, kv_in, qh, kh, vh, p, ctx, w)


def _attention_b(dout, cache, grads):
    """(dq_in, dkv_in) of the attention that left cache; adds the gradients
    of its weights into grads, a tuple in _weights order."""
    q_in, kv_in, qh, kh, vh, p, ctx, (wq, _, wk, wv, _, wo, _) = cache
    gwq, gbq, gwk, gwv, gbv, gwo, gbo = grads
    B, H, _, dh = qh.shape
    gwo += ctx.T @ dout
    gbo += dout.sum(axis=0)
    dctx = _split_heads(dout @ wo.T, B, H)
    dp = dctx @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ dctx
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dqh = ds @ kh / np.sqrt(dh)
    dkh = ds.swapaxes(-1, -2) @ qh / np.sqrt(dh)
    dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
    gwq += q_in.T @ dq
    gbq += dq.sum(axis=0)
    gwk += kv_in.T @ dk
    gwv += kv_in.T @ dv
    gbv += dv.sum(axis=0)
    return dq @ wq.T, dk @ wk.T + dv @ wv.T


def _weights(A: dict, block: str) -> tuple:
    return tuple(A[f"{block}.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))


def _blocks(A: dict, c: ModelConfig) -> tuple:
    """The arrays of A (the parameters, or grads) by reference, as the trunk
    walks them: per layer the ln1 (g, b), the attention _weights, the cross
    block ((g, b), _weights) or None, the ln2 (g, b) and the FFN
    (w1, b1, w2, b2); the K embedding tables; the K heads' (w, b)."""
    layers = []
    for i in range(c.L):
        p = f"layer{i}"
        ln1, ln2 = ((A[f"{p}.{ln}.g"], A[f"{p}.{ln}.b"]) for ln in ("ln1", "ln2"))
        cross = (((A[f"{p}.lnx.g"], A[f"{p}.lnx.b"]), _weights(A, f"{p}.xattn"))
                 if f"{p}.xattn.wq" in A else None)
        ffn = tuple(A[f"{p}.ffn.{x}"] for x in ("w1", "b1", "w2", "b2"))
        layers.append((ln1, _weights(A, f"{p}.attn"), cross, ln2, ffn))
    embed = [A[f"embed.k{k}"] for k in range(c.K)]
    return layers, embed, [(A[f"head.k{k}.w"], A[f"head.k{k}.b"]) for k in range(c.K)]


def _layout(params: Parameters, n_rows: int) -> tuple:
    """The parameters' _blocks, each attention's _weights joined by q/k/v
    stacked (3, D, D) and biases (3, 1, D) (the key's zero: adding +0.0 is
    exact), the embedding tables stacked (K, M + 1, D), the heads stacked
    (K, D, M), (K, 1, M); the sinusoid of 0..n_rows-1."""
    c = params.config
    layers, embed, heads = _blocks(params.arrays, c)
    for i, (ln1, w, cross, ln2, ffn) in enumerate(layers):
        w3, b3 = np.array([w[0], w[2], w[3]]), np.array([w[1], np.zeros(c.D), w[4]])[:, None]
        layers[i] = (ln1, (w, w3, b3), cross, ln2, ffn)
    embed, head_w, head_b = (np.array(x) for x in (embed, *zip(*heads)))
    return layers, embed, head_w, head_b[:, None], sinusoidal_embedding(np.arange(n_rows), c.D)


@dataclass
class DecodeCache:
    """The attention state of B stacked branches, each with its own condition;
    every trunk pass runs over one. A branch holds its prefix-condition rows,
    then the `steps` step rows fed since the cache opened. lengths is the rows
    every branch holds, an int, until prefixes of different lengths make it
    the (B,) rows per branch for good; a per-branch key mask then hides the
    unused tail of a shorter branch's key axis. Its weights are laid out once
    (_layout) when it opens, partly as the parameters' own arrays."""

    keys_values: np.ndarray  # (L, 2, B, H, rows, D / H) self-attention keys, values per layer
    lengths: int | np.ndarray  # rows held: by every branch, or (B,) per branch
    # None, or the branches that hold a cross condition (a slice when they are
    # adjacent), its rows padded into one (B_c * C_max, D) block, the pad keys
    # to hide (None if none) and per layer the block's projected (keys, values)
    cross: tuple | None
    layout: tuple
    steps: int = 0


def _new_cache(params: Parameters, conditions: Sequence, steps: int, layout=None):
    """An empty decode cache with one branch per condition and room for the
    longest prefix plus `steps` step rows, and each branch's prefix-condition
    rows (None where it has none). Every condition is routed and checked here."""
    c = params.config
    routes = [_route_condition(cond, c) for cond in conditions]
    n_prefix = max((len(pre) for pre, _ in routes if pre is not None), default=0)
    check_entries(2 * c.L * len(routes) * c.D * (n_prefix + steps), "the decode cache")
    layout = layout or _layout(params, n_prefix + steps)
    held = [b for b, (_, rows) in enumerate(routes) if rows is not None]
    cross = None
    if held:
        sizes = np.array([len(routes[b][1]) for b in held])
        rows = _pad_stack([routes[b][1] for b in held], sizes.max()).reshape(-1, c.D)
        pads = np.arange(sizes.max()) >= sizes[:, None]
        blocked = pads[:, None, None, :] if pads.any() else None
        heads = [(_split_heads(rows @ xw[2], len(held), c.H),
                  _split_heads(rows @ xw[3] + xw[4], len(held), c.H))
                 for _, _, (_, xw), *_ in layout[0]]
        if held[-1] - held[0] == len(held) - 1:
            held = slice(held[0], held[-1] + 1)
        cross = (held, rows, blocked, heads)
    shape = (c.L, 2, len(routes), c.H, n_prefix + steps, c.D // c.H)
    kv = DecodeCache(np.zeros(shape), 0, cross, layout)
    return kv, [prefix_rows for prefix_rows, _ in routes]


def open_cache(params: Parameters, conditions: Sequence, steps: int) -> DecodeCache:
    """A decode cache with one branch per condition and room for `steps` step
    rows. Each condition is routed as forward routes it; prefix-condition rows
    are run through the layers here, so later calls feed step rows only."""
    kv, prefixes = _new_cache(params, conditions, steps)
    if any(rows is not None for rows in prefixes):
        empty = np.zeros((len(prefixes), 0, params.config.K), dtype=np.int64)
        _forward_trunk(params, empty, prefixes, kv, False)
    return kv


def _self_attention(store, weights, q_in, B, pos, end, blocked):
    """One stacked product projects the new rows of every branch, one write
    stores their keys and values in the layer's (2, B, H, rows, D / H) store
    at key rows pos, a slice or the (B, n) key index of each new row; each
    then attends over the first `end` keys of its branch that blocked leaves open."""
    w, w3, b3 = weights
    qkv = (np.matmul(q_in, w3) + b3).reshape(3, B, len(q_in) // B, store.shape[2], -1)
    if isinstance(pos, slice):
        store[:, :, :, pos] = qkv[1:].swapaxes(2, 3)
    else:
        store[:, np.arange(B)[:, None], :, pos] = qkv[1:].transpose(1, 2, 0, 3, 4)
    kh, vh = store[:, :, :, :end]
    return _attend(qkv[0].swapaxes(1, 2), q_in, q_in, kh, vh, w, blocked)


def _forward_trunk(params: Parameters, tokens, prefixes, kv: DecodeCache, need_cache):
    """Embeddings, layers and heads over new rows of every branch of kv: per
    branch its prefix rows, if prefixes gives any, then its block of the
    (B, S, K) step rows, which continue at step kv.steps. A shorter branch
    is right-padded, behind the causal mask.
    Attention reads and extends kv. The rows of all branches stack
    branch-major, so row-wise work runs once for all of them; the logits are
    (B, S, K, M)."""
    c = params.config
    layers, embed, head_w, head_b, pe = kv.layout
    B, S = tokens.shape[:2]
    if kv.steps + S > c.max_steps:
        raise ValidationError(f"sequence exceeds max_steps={c.max_steps}")
    lead = [0] * B if prefixes is None else [0 if rows is None else len(rows) for rows in prefixes]
    n = max(lead) + S
    if n == 0:
        raise ValidationError("no rows to run: the step inputs are empty and there is no prefix")
    ragged = isinstance(kv.lengths, np.ndarray) or min(lead) < max(lead)
    if ragged:
        starts = np.zeros(B, dtype=np.int64) + kv.lengths  # rows per branch
        pos = starts[:, None] + np.arange(n)  # (B, n) key index of each new row
        end = int(pos.max()) + 1
        blocked = np.arange(end) > pos[:, None, :, None]
    else:  # every branch continues at key row kv.lengths
        pos, end = slice(kv.lengths, kv.lengths + n), kv.lengths + n
        blocked = None if n == 1 else np.arange(end) > np.arange(kv.lengths, end)[:, None]
    if end > kv.keys_values.shape[4]:
        raise ValidationError(f"decode cache is full at {kv.keys_values.shape[4]} rows per branch")
    check_entries(B * c.H * n * end, "the self-attention scores")

    # the K lookups summed over the codebook axis, in order, as K adds would
    x = np.add.reduce(embed[np.arange(c.K), tokens], axis=-2)
    x += pe[kv.steps : kv.steps + S]
    at = None  # where prefix rows lead: the index of each step row among all rows
    if n > S:
        x = _pad_stack([
            x[b] if rows is None else np.vstack([rows + pe[: len(rows)], x[b]])
            for b, rows in enumerate(prefixes)
        ], n)
        at = (np.arange(B)[:, None] * n + np.array(lead)[:, None] + np.arange(S)).ravel()
    x = x.reshape(B * n, c.D)
    if kv.cross is not None:
        held, cond_rows, cond_blocked, heads = kv.cross

    caches = []
    for i, (ln1, attn, cross, ln2, (w1, b1, w2, b2)) in enumerate(layers):
        ln1_out, ln1_c = _layernorm_f(x, *ln1)
        attn_out, attn_c = _self_attention(kv.keys_values[i], attn, ln1_out, B, pos, end, blocked)
        x = x + attn_out

        x_c = None
        if kv.cross is not None:
            xb = x.reshape(B, n, c.D)
            x_in = xb[held].reshape(-1, c.D)
            lnx_out, lnx_c = _layernorm_f(x_in, *cross[0])
            xw, (kh, vh) = cross[1], heads[i]
            qh = _split_heads(lnx_out @ xw[0] + xw[1], len(kh), c.H)
            cross_out, cross_c = _attend(qh, lnx_out, cond_rows, kh, vh, xw, cond_blocked)
            xb[held] += cross_out.reshape(-1, n, c.D)
            x_c = (held, lnx_c, cross_c)

        ln2_out, ln2_c = _layernorm_f(x, *ln2)
        h = ln2_out @ w1 + b1
        x = x + np.maximum(h, 0.0) @ w2 + b2
        if need_cache:
            caches.append((ln1_c, attn_c, x_c, ln2_c, ln2_out, h))

    kv.lengths = starts + lead + S if ragged else end
    kv.steps += S
    if at is not None:
        x = x[at]
    # K stacked per-head products: one (D, K * M) product gives other bits
    logits = (np.matmul(x, head_w) + head_b).swapaxes(0, 1)
    cache = (tokens, n, caches, x, at) if need_cache else None
    return logits.reshape(B, S, c.K, c.M), x, cache


def forward(
    params: Parameters, steps, condition=None, cache: DecodeCache | None = None
) -> np.ndarray:
    """Causal logits of shape (S, K, M); position s predicts the tokens the
    pattern reveals at step s+1 and depends only on inputs 0..s plus the
    condition, routed by the config's conditioning mode.

    With a cache from open_cache, steps are only the rows that follow those
    already fed, the condition is the cache's, and the logits, shaped
    (B, S, K, M), equal those of a full-prefix forward for each branch."""
    tokens = _coerce_tokens(steps, params.config)
    if cache is not None:
        if condition is not None:
            raise ValidationError("a cached forward takes its conditions from the cache")
        shared = tokens[None].repeat(cache.keys_values.shape[2], axis=0)
        return _forward_trunk(params, shared, None, cache, False)[0]
    kv, prefixes = _new_cache(params, [condition], len(tokens))
    return _forward_trunk(params, tokens[None], prefixes, kv, False)[0][0]


def _score_revealed(logits: np.ndarray, targets: np.ndarray):
    """Summed cross-entropy, argmax hits and d(sum)/dlogits of logits
    (..., K, M) against the 1-based targets (..., K); a target holding the
    special token is an absent codebook and carries no information."""
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    revealed = np.nonzero(targets != SPECIAL_TOKEN)
    tok = targets[revealed] - 1
    nll = float(-logp[revealed + (tok,)].sum())
    correct = int((logits[revealed].argmax(axis=-1) == tok).sum())
    dlogits = np.zeros_like(logits)
    dlogits[revealed] = np.exp(logp[revealed])
    dlogits[revealed + (tok,)] -= 1.0
    return nll, correct, dlogits


@dataclass
class GradResult:
    loss: float
    accuracy: float
    grads: dict[str, np.ndarray]


def _backward_trunk(params: Parameters, cache, dlogits, grads):
    """Add to grads, in place, the gradients of the trunk pass that left cache,
    given dlogits shaped like its (B, S, K, M) logits, walking the _blocks of
    the parameters and of grads in reverse. Consumes cache: each layer's
    activations are released once their gradients are taken."""
    c = params.config
    tokens, n, caches, hidden, at = cache
    B, S = dlogits.shape[:2]
    layers, _, heads = _blocks(params.arrays, c)
    g_layers, g_embed, g_heads = _blocks(grads, c)

    dhidden = np.zeros_like(hidden)
    for dk, (w, _), (gw, gb) in zip(dlogits.reshape(-1, c.K, c.M).swapaxes(0, 1), heads, g_heads):
        gw += hidden.T @ dk
        gb += dk.sum(axis=0)
        dhidden += dk @ w.T
    dx = dhidden
    if at is not None:
        dx = np.zeros((B * n, c.D))
        dx[at] = dhidden

    for (*_, (w1, _, w2, _)), g_layer in zip(reversed(layers), reversed(g_layers)):
        g_ln1, g_attn, g_cross, g_ln2, (gw1, gb1, gw2, gb2) = g_layer
        ln1_c, attn_c, x_c, ln2_c, ln2_out, h = caches.pop()

        # ffn block: x3 = x2 + relu(ln2(x2) @ w1 + b1) @ w2 + b2
        gw2 += np.maximum(h, 0.0).T @ dx
        gb2 += dx.sum(axis=0)
        dh = (dx @ w2.T) * (h > 0.0)
        gw1 += ln2_out.T @ dh
        gb1 += dh.sum(axis=0)
        dx = dx + _layernorm_b(dh @ w1.T, ln2_c, g_ln2)

        if x_c is not None:
            held, lnx_c, cross_c = x_c
            dxb = dx.reshape(B, n, c.D)
            dq_in, _ = _attention_b(dxb[held].reshape(-1, c.D), cross_c, g_cross[1])
            dxb[held] += _layernorm_b(dq_in, lnx_c, g_cross[0]).reshape(-1, n, c.D)

        dq_in, dkv_in = _attention_b(dx, attn_c, g_attn)  # queries, keys and values share input
        dx = dx + _layernorm_b(dq_in + dkv_in, ln1_c, g_ln1)

    if at is not None:
        dx = dx[at]
    vocab = np.arange(c.M + 1)[:, None]
    for tok, g in zip(tokens.reshape(B * S, c.K).T, g_embed):
        # each step row's gradient lands on the embedding row of its own token
        g += (tok == vocab).astype(np.float64) @ dx


# rows (prefix and step, padding included) of one trunk pass of grad: bounds
# the activations held for backward, about 4 examples of 27 steps
ROW_BUDGET = 128


def grad(params: Parameters, batch: Sequence[TrainExample]) -> GradResult:
    """Exact reverse-mode gradients of the pooled masked cross-entropy over the
    batch (positions pooled across examples), slot rows 0..S-1 of each
    example its inputs and rows 1..S its targets. Consecutive examples run as
    the stacked branches of one trunk pass, as many as ROW_BUDGET holds; a
    shorter example is right-padded with special tokens, which score nothing."""
    if not batch:
        raise ValidationError("empty batch")
    c = params.config
    slots = [_coerce_tokens(ex.slots, c) for ex in batch]
    lens = np.array([len(rows) - 1 for rows in slots])
    padded = _pad_stack(slots, lens.max() + 1)
    steps, targets = padded[:, :-1], padded[:, 1:]
    total_count = int(np.count_nonzero(targets != SPECIAL_TOKEN))
    if total_count == 0:
        raise ValidationError("no revealed positions in the batch")
    leads = [_route_condition(ex.condition, c)[0] for ex in batch]
    width = lens.max() + max(0 if rows is None else len(rows) for rows in leads)
    per_pass = max(1, ROW_BUDGET // width)
    layout = _layout(params, width)  # the parameters do not change within the call

    grads = zero_grads(params)
    nll = 0.0
    correct = 0
    for start in range(0, len(batch), per_pass):
        part = slice(start, start + per_pass)
        S = lens[part].max()
        kv, prefixes = _new_cache(params, [ex.condition for ex in batch[part]], S, layout)
        logits, _, cache = _forward_trunk(params, steps[part, :S], prefixes, kv, True)
        part_nll, part_correct, dlogits = _score_revealed(logits, targets[part, :S])
        nll += part_nll
        correct += part_correct
        dlogits /= total_count
        _backward_trunk(params, cache, dlogits, grads)

    loss = nll / total_count
    if not np.isfinite(loss):
        raise ValidationError("non-finite loss")
    return GradResult(loss=loss, accuracy=correct / total_count, grads=grads)


@dataclass(frozen=True)
class TrainHyper:
    lr_max: float = 1e-2
    warmup_steps: int = 100
    total_steps: int = 2000
    betas: tuple[float, float] = (0.9, 0.95)
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    condition_dropout: float = 0.2  # CFG: chance a step trains the null condition

    def __post_init__(self) -> None:
        # written so that NaN fails them too
        for name in ("lr_max", "warmup_steps", "weight_decay", "clip_norm"):
            if not getattr(self, name) >= 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        # an infinite step or decay makes the first update non-finite; an
        # infinite clip_norm means no clipping
        for name in ("lr_max", "weight_decay"):
            if getattr(self, name) == math.inf:
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValidationError(f"betas must lie in [0, 1), got {self.betas}")
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
    """Linear warmup to lr_max, then cosine decay to 0 at total_steps."""
    if step < hyper.warmup_steps:
        return hyper.lr_max * (step + 1) / hyper.warmup_steps
    span = max(1, hyper.total_steps - hyper.warmup_steps)
    progress = min(1.0, (step - hyper.warmup_steps) / span)
    return 0.5 * hyper.lr_max * (1.0 + np.cos(np.pi * progress))


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
        p -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
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


def save_checkpoint(
    path,
    params: Parameters,
    extra: dict[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    """Single-file container: parameters plus extras, and a JSON header."""
    payload = {f"p:{name}": arr for name, arr in params.arrays.items()}
    payload.update({f"x:{name}": np.asarray(arr) for name, arr in (extra or {}).items()})
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
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
    extra: dict[str, np.ndarray]
    meta: dict


def load_checkpoint(path) -> Checkpoint:
    """Read a save_checkpoint container; a file that is not one, or whose
    parameter arrays do not match its config, raises ValidationError. Only the
    header and the p: and x: members are read, so older files' AdamW moments
    (m:, v:) and EMA copy (x:ema/) go unread, and their header opt_step is
    ignored."""
    # opened here, not by np.load, which leaves its own handle open when the
    # archive is truncated; a path that cannot be opened is the caller's OSError
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with data:
                header = json.loads(str(data["__header__"]))
                arrays = {k[2:]: data[k] for k in data.files if k.startswith("p:")}
                extra = {k[2:]: data[k] for k in data.files
                         if k.startswith("x:") and not k.startswith("x:ema/")}
            version = header.get("version")
            if isinstance(version, bool) or version != CHECKPOINT_VERSION:  # JSON true == 1
                raise ValidationError(f"unsupported checkpoint version {version}")
            config = {**header["config"]}
            if config.pop("ffn_mult", FFN_MULT) != FFN_MULT:  # older files name it
                raise ValidationError(f"ffn_mult is not {FFN_MULT}")
            config = ModelConfig(**config)
            # checked here, where they come from outside, not in Parameters,
            # which also takes init_params' fresh draws; it checks the shapes
            arrays = {name: checked_array(a, f"parameter {name}", a.ndim)
                      for name, a in arrays.items()}
            meta = header["meta"]
            if not isinstance(meta, dict):
                raise ValidationError(f"meta is a JSON {type(meta).__name__}, not an object")
        except ValidationError as exc:  # the file reads, but its content is refused
            raise ValidationError(f"checkpoint {path}: {exc}") from exc
        except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError,
                RecursionError, zipfile.BadZipFile) as exc:  # RecursionError: a too-deep header
            raise ValidationError(f"unreadable checkpoint {path}: {exc}") from exc
    return Checkpoint(params=Parameters(config=config, arrays=arrays), extra=extra, meta=meta)
