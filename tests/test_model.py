import json
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tokenweave.conditioning import ConditioningTensor, chroma_to_condition, encode_text_toy
from tokenweave.errors import ValidationError
from tokenweave.model import (
    ADAM_EPS,
    LN_EPS,
    ROW_BUDGET,
    AdamWState,
    CombinedCondition,
    ModelConfig,
    Parameters,
    TrainExample,
    TrainHyper,
    _backward_trunk,
    _coerce_tokens,
    _forward_trunk,
    _layernorm_f,
    _merge_heads,
    _new_cache,
    _pad_stack,
    _param_shapes,
    _route_condition,
    _score_revealed,
    _split_heads,
    _weights,
    cosine_lr,
    example_from_grid,
    forward,
    global_grad_norm,
    grad,
    init_params,
    load_checkpoint,
    open_cache,
    save_checkpoint,
    sinusoidal_embedding,
    train_step,
    zero_grads,
)
from tokenweave.patterns import SPECIAL_TOKEN, PatternKind, TokenGrid, apply_pattern, build_pattern

from helpers import random_grid

TINY = ModelConfig(K=2, M=5, D=16, L=2, H=2, max_steps=64, conditioning_mode="cross_attention")


def tiny_batch(config, seed=0, T=3, kind=PatternKind.DELAY, condition=None):
    rng = np.random.default_rng(seed)
    pattern = build_pattern(kind, T, config.K)
    grid = random_grid(T, config.K, config.M, rng)
    return [example_from_grid(pattern, grid, condition=condition)], pattern, grid


def test_init_deterministic_and_shapes():
    a = init_params(TINY, seed=3)
    b = init_params(TINY, seed=3)
    for name in a.arrays:
        assert np.array_equal(a.arrays[name], b.arrays[name])
    c = init_params(TINY, seed=4)
    assert any(not np.array_equal(a.arrays[n], c.arrays[n]) for n in a.arrays)
    for k in range(TINY.K):
        assert a.arrays[f"embed.k{k}"].shape == (TINY.M + 1, TINY.D)


def test_init_no_zero_only_tensors_and_finite():
    params = init_params(TINY, seed=0)
    for name, arr in params.arrays.items():
        assert np.isfinite(arr).all(), name
        assert np.any(arr != 0.0), name


def test_param_count_accounting_300m():
    # bare decoder stack (no cross-attention): 12 D^2 per layer dominates,
    # giving ~3.2e8 for D=1024, L=24, K=4, M=2048 - within 10% of 3e8
    config = ModelConfig(
        K=4, M=2048, D=1024, L=24, H=16, max_steps=1600, conditioning_mode="prefix"
    )
    D, L, M, K = 1024, 24, 2048, 4
    per_layer = 2 * D + (4 * D * D + 3 * D) + 2 * D + (D * 4 * D + 4 * D + 4 * D * D + D)
    expected = K * (M + 1) * D + L * per_layer + K * (D * M + M)
    # Parameters holds exactly these shapes, so counting them needs no arrays
    n_params = sum(math.prod(shape) for _, shape in _param_shapes(config))
    assert n_params == expected
    assert abs(n_params - 3e8) / 3e8 < 0.10


def test_forward_rejects_bad_tokens():
    params = init_params(TINY, seed=1)
    bad_id = np.array([[TINY.M + 1, 0]])
    with pytest.raises(ValidationError, match=r"token ids must lie in 0\.\.5"):
        forward(params, bad_id)
    with pytest.raises(ValidationError, match="exceeds max_steps=64"):
        forward(params, np.ones((TINY.max_steps + 1, 2), dtype=int))
    with pytest.raises(ValidationError, match="no rows to run"):
        forward(params, np.zeros((0, TINY.K)))
    with pytest.raises(ValidationError, match="carry 3 codebooks, model has 2"):
        forward(params, np.ones((2, TINY.K + 1), dtype=int))
    # the cached path makes the same checks, counting the steps it holds
    kv = open_cache(params, [None, None], TINY.max_steps + 1)
    with pytest.raises(ValidationError, match=r"token ids must lie in 0\.\.5"):
        forward(params, bad_id, cache=kv)
    forward(params, np.ones((TINY.max_steps, 2), dtype=int), cache=kv)
    with pytest.raises(ValidationError, match="exceeds max_steps=64"):
        forward(params, np.ones((1, 2), dtype=int), cache=kv)


def test_open_cache_checks_conditions_as_forward_does():
    params = init_params(TINY, seed=1)
    steps = np.array([[1, 2]])
    wide = ConditioningTensor(rows=np.ones((2, TINY.D + 1)))
    text = encode_text_toy("warm pad", D=TINY.D)
    for cond, message in ((wide, "dimension 16"), (text.rows, "ConditioningTensor")):
        with pytest.raises(ValidationError, match=message):
            forward(params, steps, condition=cond)
        with pytest.raises(ValidationError, match=message):
            open_cache(params, [cond, None], 4)
    # a parameter set without the cross-attention arrays its config needs
    # cannot be made, so no condition ever reaches a model that lacks them
    no_xattn = init_params(replace(TINY, conditioning_mode="prefix"), seed=1)
    with pytest.raises(ValidationError, match=r"layer0\.lnx\.b, layer0\.lnx\.g, layer0\.xattn"):
        Parameters(config=TINY, arrays=no_xattn.arrays)
    kv = open_cache(params, [text], 1)
    with pytest.raises(ValidationError, match="from the cache"):
        forward(params, steps, condition=text, cache=kv)
    forward(params, steps, cache=kv)
    with pytest.raises(ValidationError, match="decode cache is full"):
        forward(params, steps, cache=kv)


def test_forward_shapes_and_finite():
    params = init_params(TINY, seed=0)
    logits = forward(params, np.array([[1, 2]]))
    assert logits.shape == (1, TINY.K, TINY.M)
    assert np.isfinite(logits).all()


def test_forward_causality_exhaustive_bitwise():
    params = init_params(TINY, seed=5)
    rng = np.random.default_rng(0)
    S = 8
    base = rng.integers(0, TINY.M + 1, size=(S, TINY.K))
    ref = forward(params, base)
    violations = 0
    for s_pert in range(1, S):
        for k in range(TINY.K):
            for v in range(TINY.M + 1):
                if v == base[s_pert, k]:
                    continue
                mutated = base.copy()
                mutated[s_pert, k] = v
                out = forward(params, mutated)
                if not np.array_equal(out[:s_pert], ref[:s_pert]):
                    violations += 1
    assert violations == 0


def test_cross_attention_empty_condition_equals_none_mode():
    params = init_params(TINY, seed=2)
    steps = np.array([[1, 2], [3, 0], [0, 5]])
    empty = ConditioningTensor(rows=np.zeros((0, TINY.D)))
    a = forward(params, steps, condition=empty)
    b = forward(params, steps, condition=None)
    assert np.array_equal(a, b)


def test_cross_attention_nonempty_condition_changes_logits():
    params = init_params(TINY, seed=2)
    steps = np.array([[1, 2], [3, 0]])
    cond = encode_text_toy("bright melody", D=TINY.D)
    a = forward(params, steps, condition=cond)
    b = forward(params, steps)
    assert not np.allclose(a, b)
    with pytest.raises(ValidationError, match="ConditioningTensor"):
        forward(params, steps, condition=cond.rows)


def test_prefix_condition_changes_logits_and_keeps_shape():
    config = ModelConfig(K=2, M=5, D=16, L=2, H=2, max_steps=64, conditioning_mode="prefix")
    params = init_params(config, seed=2)
    steps = np.array([[1, 2], [3, 0]])
    cond = encode_text_toy("low drone", D=config.D)
    a = forward(params, steps, condition=cond)
    assert a.shape == (2, 2, 5)
    assert not np.allclose(a, forward(params, steps))


def test_both_mode_routes_prefix_and_cross():
    config = ModelConfig(K=2, M=5, D=16, L=1, H=2, max_steps=64, conditioning_mode="both")
    params = init_params(config, seed=3)
    steps = np.array([[1, 2], [3, 0]])
    chroma = ConditioningTensor(rows=np.random.default_rng(0).standard_normal((3, config.D)))
    text = encode_text_toy("warm pad", D=config.D)
    joint = forward(params, steps, condition=CombinedCondition(prefix=chroma, cross=text))
    only_prefix = forward(params, steps, condition=CombinedCondition(prefix=chroma, cross=None))
    only_cross = forward(params, steps, condition=CombinedCondition(prefix=None, cross=text))
    assert not np.allclose(joint, only_prefix)
    assert not np.allclose(joint, only_cross)
    with pytest.raises(ValidationError):
        forward(params, steps, condition=text)


def test_pre_norm_residual_identity_with_zeroed_layers():
    params = init_params(TINY, seed=7)
    for name in params.arrays:
        if name.startswith("layer"):
            params.arrays[name][:] = 0.0
    steps = np.array([[1, 2], [3, 4], [0, 1]])
    kv, _ = _new_cache(params, [None], len(steps))
    _, hidden, _ = _forward_trunk(params, steps[None], None, kv, False)
    expected = (
        params.arrays["embed.k0"][steps[:, 0]]
        + params.arrays["embed.k1"][steps[:, 1]]
        + sinusoidal_embedding(np.arange(3), TINY.D)
    )
    assert np.allclose(hidden, expected, atol=1e-12)


def reference_forward(params, steps, condition=None):
    """The trunk written out plainly: one 2-D sequence, no cache, a loop over
    heads with an explicit causal softmax, and routing of its own."""
    c = params.config
    A = params.arrays
    prefix = cross = None
    if c.conditioning_mode != "none" and condition is not None:
        if isinstance(condition, CombinedCondition):
            prefix, cross = condition.prefix, condition.cross
        elif c.conditioning_mode == "prefix":
            prefix = condition
        else:
            cross = condition
    prefix, cross = (t.rows if t is not None and t.T_C > 0 else None for t in (prefix, cross))

    def layernorm(x, name):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return A[f"{name}.g"] * (x - mu) / np.sqrt(var + LN_EPS) + A[f"{name}.b"]

    def attention(q_in, kv_in, block, causal):
        w = {n: A[f"{block}.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
        q, k, v = q_in @ w["wq"] + w["bq"], kv_in @ w["wk"], kv_in @ w["wv"] + w["bv"]
        dh = c.D // c.H
        ctx = np.empty_like(q)
        for head in range(c.H):
            cols = slice(head * dh, (head + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
            if causal:
                scores[np.triu_indices(len(q_in), k=1)] = -np.inf
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            ctx[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
        return ctx @ w["wo"] + w["bo"]

    tokens = np.asarray(steps)
    x = sum(A[f"embed.k{k}"][tokens[:, k]] for k in range(c.K))
    x = x + sinusoidal_embedding(np.arange(len(tokens)), c.D)
    n_prefix = 0 if prefix is None else len(prefix)
    if prefix is not None:
        x = np.vstack([prefix + sinusoidal_embedding(np.arange(n_prefix), c.D), x])
    for i in range(c.L):
        p = f"layer{i}"
        h = layernorm(x, f"{p}.ln1")
        x = x + attention(h, h, f"{p}.attn", causal=True)
        if cross is not None:
            x = x + attention(layernorm(x, f"{p}.lnx"), cross, f"{p}.xattn", causal=False)
        h = layernorm(x, f"{p}.ln2") @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"]
        x = x + np.maximum(h, 0.0) @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"]
    hidden = x[n_prefix:]
    return np.stack([hidden @ A[f"head.k{k}.w"] + A[f"head.k{k}.b"] for k in range(c.K)], axis=1)


D_REF = 16
TEXT = encode_text_toy("warm pad", D=D_REF)
EMPTY = ConditioningTensor(rows=np.zeros((0, D_REF)))
CHROMA = {n: chroma_to_condition(np.arange(n) * 5 % 12, D=D_REF) for n in (1, 3, 6)}


@pytest.mark.parametrize(
    "mode,condition",
    [
        pytest.param("none", None, id="none"),
        pytest.param("none", TEXT, id="none-ignored"),
        pytest.param("prefix", None, id="prefix-null"),
        *(pytest.param("prefix", CHROMA[n], id=f"prefix-{n}rows") for n in CHROMA),
        pytest.param("prefix", EMPTY, id="prefix-empty"),
        pytest.param("cross_attention", None, id="cross-null"),
        pytest.param("cross_attention", TEXT, id="cross"),
        pytest.param("cross_attention", EMPTY, id="cross-empty"),
        pytest.param("both", CombinedCondition(prefix=CHROMA[3], cross=TEXT), id="both"),
        pytest.param("both", CombinedCondition(prefix=CHROMA[6], cross=None), id="both-prefix_only"),
        pytest.param("both", CombinedCondition(prefix=None, cross=TEXT), id="both-cross_only"),
        pytest.param("both", CombinedCondition(prefix=EMPTY, cross=TEXT), id="both-empty_prefix"),
    ],
)
def test_forward_matches_plain_reference(mode, condition):
    config = ModelConfig(K=3, M=6, D=D_REF, L=2, H=4, max_steps=32, conditioning_mode=mode)
    params = init_params(config, seed=21)
    steps = np.random.default_rng(4).integers(0, config.M + 1, size=(7, config.K))
    out = forward(params, steps, condition=condition)
    assert out.shape == (7, config.K, config.M)
    assert np.abs(out - reference_forward(params, steps, condition)).max() <= 1e-12


def test_backward_sums_over_stacked_branches():
    # two branches that differ in condition, fed in one call, give the sum of
    # the gradients each branch gives alone
    params = init_params(TINY, seed=3)
    steps = np.random.default_rng(1).integers(0, TINY.M + 1, size=(5, TINY.K))
    conditions = [TEXT, None]
    dlogits = np.random.default_rng(2).standard_normal((2, 5, TINY.K, TINY.M))

    def gradients(conds, dl):
        kv, _ = _new_cache(params, conds, len(steps))
        shared = np.broadcast_to(steps, (len(conds),) + steps.shape)
        logits, _, cache = _forward_trunk(params, shared, None, kv, True)
        grads = zero_grads(params)
        _backward_trunk(params, cache, dl, grads)
        return logits, grads

    stacked_logits, stacked = gradients(conditions, dlogits)
    for b, cond in enumerate(conditions):
        logits, alone = gradients([cond], dlogits[b : b + 1])
        assert np.abs(stacked_logits[b] - logits[0]).max() <= 1e-12
        for name in stacked:
            stacked[name] -= alone[name]
    for name, rest in stacked.items():
        assert np.abs(rest).max() <= 1e-12, name


def per_example_reference(params, batch):
    """Loss, accuracy and gradients of the pooled batch from one grad call
    per example, each weighted by its share of the revealed positions."""
    counts = [(ex.slots[1:] != 0).sum() for ex in batch]
    loss = accuracy = 0.0
    grads = zero_grads(params)
    for ex, count in zip(batch, counts):
        share = count / sum(counts)
        one = grad(params, [ex])
        loss += share * one.loss
        accuracy += share * one.accuracy
        for name, g in one.grads.items():
            grads[name] += share * g
    return loss, accuracy, grads


TEXT_LONG = encode_text_toy("slow bright strings and drums", D=D_REF)


@pytest.mark.parametrize(
    "mode,conditions",
    [
        pytest.param("none", [None, TEXT], id="none"),
        pytest.param("prefix", [CHROMA[3], None, EMPTY, CHROMA[6], TEXT, CHROMA[1]], id="prefix"),
        pytest.param("cross_attention", [TEXT, None, TEXT_LONG, EMPTY, TEXT], id="cross"),
        pytest.param("cross_attention", [TEXT_LONG, TEXT], id="cross-all_held"),
        pytest.param(
            "both",
            [
                CombinedCondition(prefix=CHROMA[3], cross=TEXT),
                None,
                CombinedCondition(prefix=None, cross=TEXT_LONG),
                CombinedCondition(prefix=CHROMA[6], cross=None),
                CombinedCondition(prefix=EMPTY, cross=TEXT),
            ],
            id="both",
        ),
    ],
)
def test_batched_grad_matches_per_example_grads(mode, conditions):
    # ragged batches over more than one pass: two step counts, conditions of
    # unequal length and branches with none, pooled exactly as one at a time
    config = ModelConfig(K=3, M=6, D=D_REF, L=2, H=4, max_steps=32, conditioning_mode=mode)
    params = init_params(config, seed=8)
    rng = np.random.default_rng(5)
    batch = []
    for j in range(14):
        pattern = build_pattern((PatternKind.DELAY, PatternKind.FLATTEN)[j % 2], 3 + j % 3, 3)
        grid = random_grid(pattern.T, config.K, config.M, rng)
        batch.append(example_from_grid(pattern, grid, condition=conditions[j % len(conditions)]))
    assert len({len(ex.tokens) for ex in batch}) > 1
    assert len(batch) * max(len(ex.tokens) for ex in batch) > ROW_BUDGET

    got = grad(params, batch)
    loss, accuracy, grads = per_example_reference(params, batch)
    assert abs(got.loss - loss) <= 1e-12
    assert abs(got.accuracy - accuracy) <= 1e-12
    for name, g in grads.items():
        assert np.abs(got.grads[name] - g).max() <= 1e-12, name


def test_grad_working_set_stays_bounded():
    # the train workload's shapes: 32 text-conditioned delay sequences of
    # T=24 (S=27) at D=48, L=2; the row budget keeps each trunk pass small
    config = ModelConfig(K=4, M=16, D=48, L=2, H=4, max_steps=64,
                         conditioning_mode="cross_attention")
    params = init_params(config, seed=0)
    rng = np.random.default_rng(0)
    pattern = build_pattern(PatternKind.DELAY, 24, 4)
    words = ["warm", "pad", "slow", "bright", "strings", "drums"]
    batch = [
        example_from_grid(
            pattern,
            random_grid(24, 4, 16, rng),
            condition=encode_text_toy(" ".join(rng.choice(words, rng.integers(1, 5))), D=48),
        )
        for _ in range(32)
    ]

    def peak(examples):
        tracemalloc.start()
        try:
            grad(params, examples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(batch) < 3 * peak(batch[:1])


# The trunk as it ran before the decode cache laid the weights out: one
# product per projection and per head, a cache write per branch and the
# sinusoid computed per call. The trunk must match it bit for bit.


@dataclass
class PlainCache:
    keys: np.ndarray
    values: np.ndarray
    lengths: np.ndarray
    cross: tuple | None
    steps: int = 0


def plain_project_kv(kv_in, w, B, H):
    _, _, wk, wv, bv, _, _ = w
    return _split_heads(kv_in @ wk, B, H), _split_heads(kv_in @ wv + bv, B, H)


def plain_new_cache(params, conditions, steps):
    c = params.config
    A = params.arrays
    routes = [_route_condition(cond, c.conditioning_mode) for cond in conditions]
    n_prefix = max((len(pre) for pre, _ in routes if pre is not None), default=0)
    shape = (c.L, len(routes), c.H, n_prefix + steps, c.D // c.H)
    held = [b for b, (_, rows) in enumerate(routes) if rows is not None]
    cross = None
    if held:
        sizes = np.array([len(routes[b][1]) for b in held])
        rows = _pad_stack([routes[b][1] for b in held], sizes.max()).reshape(-1, c.D)
        pads = np.arange(sizes.max()) >= sizes[:, None]
        blocked = pads[:, None, None, :] if pads.any() else None
        xw = [_weights(A, f"layer{i}.xattn") for i in range(c.L)]
        heads = [plain_project_kv(rows, w, len(held), c.H) for w in xw]
        if held[-1] - held[0] == len(held) - 1:
            held = slice(held[0], held[-1] + 1)
        cross = (held, rows, blocked, heads)
    kv = PlainCache(np.zeros(shape), np.zeros(shape), np.zeros(len(routes), dtype=np.int64), cross)
    return kv, [prefix_rows for prefix_rows, _ in routes]


def plain_attend(q_in, kv_in, kh, vh, w, H, blocked):
    wq, bq, _, _, _, wo, bo = w
    qh = _split_heads(q_in @ wq + bq, len(kh), H)
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(qh.shape[-1])
    if blocked is not None:
        np.copyto(scores, -np.inf, where=blocked)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(p @ vh)
    return ctx @ wo + bo, (q_in, kv_in, qh, kh, vh, p, ctx, w)


def plain_trunk(params, tokens, prefixes, kv, need_cache):
    c = params.config
    A = params.arrays
    B, S = tokens.shape[:2]
    x = A["embed.k0"][tokens[..., 0]]
    for k in range(1, c.K):
        x += A[f"embed.k{k}"][tokens[..., k]]
    x += sinusoidal_embedding(np.arange(kv.steps, kv.steps + S), c.D)
    lead, at = 0, None
    if prefixes is not None and any(rows is not None for rows in prefixes):
        lead = np.array([0 if rows is None else len(rows) for rows in prefixes])
        x = _pad_stack([
            x[b] if rows is None
            else np.vstack([rows + sinusoidal_embedding(np.arange(len(rows)), c.D), x[b]])
            for b, rows in enumerate(prefixes)
        ], lead.max() + S)
        at = (np.arange(B)[:, None] * x.shape[1] + lead[:, None] + np.arange(S)).ravel()
    n = x.shape[1]
    x = x.reshape(B * n, c.D)
    pos = kv.lengths[:, None] + np.arange(n)
    end = int(pos.max()) + 1
    blocked = np.arange(end) > pos[:, None, :, None]
    caches = []
    for i in range(c.L):
        p = f"layer{i}"
        ln1_out, ln1_c = _layernorm_f(x, A[f"{p}.ln1.g"], A[f"{p}.ln1.b"])
        w = _weights(A, f"{p}.attn")
        kh, vh = plain_project_kv(ln1_out, w, B, c.H)
        for b, start in enumerate(kv.lengths):
            kv.keys[i, b, :, start : start + n] = kh[b]
            kv.values[i, b, :, start : start + n] = vh[b]
        keys, values = kv.keys[i, :, :, :end], kv.values[i, :, :, :end]
        attn_out, attn_c = plain_attend(ln1_out, ln1_out, keys, values, w, c.H, blocked)
        x = x + attn_out
        x_c = None
        if kv.cross is not None:
            held, cond_rows, cond_blocked, heads = kv.cross
            xb = x.reshape(B, n, c.D)
            lnx_out, lnx_c = _layernorm_f(xb[held].reshape(-1, c.D), A[f"{p}.lnx.g"], A[f"{p}.lnx.b"])
            xw = _weights(A, f"{p}.xattn")
            cross_out, cross_c = plain_attend(lnx_out, cond_rows, *heads[i], xw, c.H, cond_blocked)
            xb[held] += cross_out.reshape(-1, n, c.D)
            x_c = (held, lnx_c, cross_c)
        ln2_out, ln2_c = _layernorm_f(x, A[f"{p}.ln2.g"], A[f"{p}.ln2.b"])
        h = ln2_out @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"]
        x = x + np.maximum(h, 0.0) @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"]
        if need_cache:
            caches.append((ln1_c, attn_c, x_c, ln2_c, ln2_out, h))
    kv.lengths += lead + S
    kv.steps += S
    if at is not None:
        x = x[at]
    logits = np.empty((B * S, c.K, c.M))
    for k in range(c.K):
        logits[:, k] = x @ A[f"head.k{k}.w"] + A[f"head.k{k}.b"]
    return logits.reshape(B, S, c.K, c.M), (tokens, n, caches, x, at) if need_cache else None


def plain_open_cache(params, conditions, steps):
    kv, prefixes = plain_new_cache(params, conditions, steps)
    if any(rows is not None for rows in prefixes):
        empty = np.zeros((len(prefixes), 0, params.config.K), dtype=np.int64)
        plain_trunk(params, empty, prefixes, kv, False)
    return kv


def plain_layernorm_b(dy, cache):
    xhat, inv, g = cache
    D = dy.shape[-1]
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / D
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / D)
    )
    return dx, dg, db


def plain_attention_b(dout, cache):
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
    grads = {
        "wq": q_in.T @ dq,
        "bq": dq.sum(axis=0),
        "wk": kv_in.T @ dk,
        "wv": kv_in.T @ dv,
        "bv": dv.sum(axis=0),
        "wo": dwo,
        "bo": dbo,
    }
    return dq @ wq.T, dk @ wk.T + dv @ wv.T, grads


def plain_backward(params, cache, dlogits, grads):
    """The trunk's backward spelled out by parameter name: adds to grads the
    gradients of the plain_trunk pass that left cache."""
    c = params.config
    A = params.arrays
    tokens, n, caches, hidden, at = cache
    B, S = dlogits.shape[:2]
    dlogits = dlogits.reshape(B * S, c.K, c.M)
    dhidden = np.zeros_like(hidden)
    for k in range(c.K):
        dk = dlogits[:, k, :]
        grads[f"head.k{k}.w"] += hidden.T @ dk
        grads[f"head.k{k}.b"] += dk.sum(axis=0)
        dhidden += dk @ A[f"head.k{k}.w"].T
    dx = dhidden
    if at is not None:
        dx = np.zeros((B * n, c.D))
        dx[at] = dhidden
    for i in reversed(range(c.L)):
        p = f"layer{i}"
        ln1_c, attn_c, x_c, ln2_c, ln2_out, h = caches.pop()
        dr = dx @ A[f"{p}.ffn.w2"].T
        grads[f"{p}.ffn.w2"] += np.maximum(h, 0.0).T @ dx
        grads[f"{p}.ffn.b2"] += dx.sum(axis=0)
        dh = dr * (h > 0.0)
        grads[f"{p}.ffn.w1"] += ln2_out.T @ dh
        grads[f"{p}.ffn.b1"] += dh.sum(axis=0)
        dx2, dg, db = plain_layernorm_b(dh @ A[f"{p}.ffn.w1"].T, ln2_c)
        grads[f"{p}.ln2.g"] += dg
        grads[f"{p}.ln2.b"] += db
        dx = dx + dx2
        if x_c is not None:
            held, lnx_c, cross_c = x_c
            dxb = dx.reshape(B, n, c.D)
            dq_in, _, att_g = plain_attention_b(dxb[held].reshape(-1, c.D), cross_c)
            for name, gval in att_g.items():
                grads[f"{p}.xattn.{name}"] += gval
            dlnx, dg, db = plain_layernorm_b(dq_in, lnx_c)
            grads[f"{p}.lnx.g"] += dg
            grads[f"{p}.lnx.b"] += db
            dxb[held] += dlnx.reshape(-1, n, c.D)
        dqkv, dkv2, att_g = plain_attention_b(dx, attn_c)
        for name, gval in att_g.items():
            grads[f"{p}.attn.{name}"] += gval
        dln1_out, dg, db = plain_layernorm_b(dqkv + dkv2, ln1_c)
        grads[f"{p}.ln1.g"] += dg
        grads[f"{p}.ln1.b"] += db
        dx = dx + dln1_out
    if at is not None:
        dx = dx[at]
    tokens = tokens.reshape(B * S, c.K)
    vocab = np.arange(c.M + 1)[:, None]
    for k in range(c.K):
        grads[f"embed.k{k}"] += (tokens[:, k] == vocab).astype(np.float64) @ dx


def plain_grad(params, batch):
    """grad's loss, accuracy and gradients over the plain trunk and backward."""
    c = params.config
    slots = [ex.slots for ex in batch]
    lens = np.array([len(rows) - 1 for rows in slots])
    padded = _pad_stack(slots, lens.max() + 1)
    steps, targets = padded[:, :-1], padded[:, 1:]
    count = int(np.count_nonzero(targets != 0))
    leads = [_route_condition(ex.condition, c.conditioning_mode)[0] for ex in batch]
    per_pass = max(1, ROW_BUDGET // (lens.max() + max(0 if r is None else len(r) for r in leads)))
    grads = zero_grads(params)
    nll = correct = 0
    for start in range(0, len(batch), per_pass):
        part = slice(start, start + per_pass)
        S = lens[part].max()
        kv, prefixes = plain_new_cache(params, [ex.condition for ex in batch[part]], S)
        logits, cache = plain_trunk(params, steps[part, :S], prefixes, kv, True)
        part_nll, part_correct, dlogits = _score_revealed(logits, targets[part, :S])
        nll += part_nll
        correct += part_correct
        plain_backward(params, cache, dlogits / count, grads)
    return nll / count, correct / count, grads


BITWISE_CONDITIONS = {
    "none": (TEXT, None),  # ignored
    "prefix": (CHROMA[3], CHROMA[6]),
    "cross_attention": (TEXT, TEXT_LONG),
    # prefixes of 3 and 6 rows: the branches of one cache hold ragged lengths
    "both": (
        CombinedCondition(prefix=CHROMA[3], cross=TEXT),
        CombinedCondition(prefix=CHROMA[6], cross=TEXT_LONG),
    ),
}


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", list(BITWISE_CONDITIONS))
def test_trunk_matches_the_plain_trunk_bitwise(mode, K):
    """forward, cached decoding (a 3-row prefill, then 1-row steps, over two
    branches) and grad give the plain trunk's bits, at every head width M;
    grad's gradients also give the plain backward's bits."""
    cond, other = BITWISE_CONDITIONS[mode]
    for M in (2, 3, 5, 16, 64):
        config = ModelConfig(K=K, M=M, D=D_REF, L=2, H=4, max_steps=32, conditioning_mode=mode)
        params = init_params(config, seed=10 * K + M)
        rng = np.random.default_rng(M)
        steps = rng.integers(0, M + 1, size=(7, K))

        kv, prefixes = plain_new_cache(params, [cond], len(steps))
        want = plain_trunk(params, steps[None], prefixes, kv, False)[0][0]
        assert np.array_equal(forward(params, steps, condition=cond), want), M

        for branches in ([cond, None], [cond, other]):
            kv, plain_kv = open_cache(params, branches, 7), plain_open_cache(params, branches, 7)
            for rows in (steps[:3], *steps[3:, None]):
                shared = np.broadcast_to(rows, (2,) + rows.shape)
                want = plain_trunk(params, shared, None, plain_kv, False)[0]
                assert np.array_equal(forward(params, rows, cache=kv), want), (M, branches)

        batch = []
        for j in range(14):
            pattern = build_pattern((PatternKind.DELAY, PatternKind.FLATTEN)[j % 2], 2 + j % 3, K)
            grid = random_grid(pattern.T, K, M, rng)
            batch.append(example_from_grid(pattern, grid, condition=(cond, None, other)[j % 3]))
        got = grad(params, batch)
        loss, accuracy, grads = plain_grad(params, batch)
        assert got.loss == loss and got.accuracy == accuracy, M
        for name, g in grads.items():
            assert np.array_equal(got.grads[name], g), (M, name)


def test_codebook_permutation_coherence():
    params = init_params(TINY, seed=9)
    swapped = Parameters(config=params.config, arrays=dict(params.arrays))
    swapped.arrays["embed.k0"], swapped.arrays["embed.k1"] = (
        swapped.arrays["embed.k1"],
        swapped.arrays["embed.k0"],
    )
    for part in ("w", "b"):
        swapped.arrays[f"head.k0.{part}"], swapped.arrays[f"head.k1.{part}"] = (
            swapped.arrays[f"head.k1.{part}"],
            swapped.arrays[f"head.k0.{part}"],
        )
    steps = np.array([[1, 2], [3, 0], [0, 5], [2, 2]])
    ref = forward(params, steps)
    out = forward(swapped, steps[:, ::-1])
    assert np.array_equal(out, ref[:, ::-1, :])


def masked_loss(logits, slots, pattern):
    """Mean cross-entropy and accuracy over the revealed positions, as grad scores them."""
    count = pattern.T * pattern.K  # every coordinate is revealed once
    nll, correct, _ = _score_revealed(logits, slots[1:])
    return nll / count, correct / count


def test_loss_uniform_logits_is_log_m():
    pattern = build_pattern(PatternKind.PARALLEL, 2, 2)
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    slots = apply_pattern(pattern, grid)
    logits = np.zeros((2, 2, 4))
    assert masked_loss(logits, slots, pattern)[0] == pytest.approx(math.log(4.0), abs=1e-12)


def test_loss_one_hot_correct_logits_near_zero():
    pattern = build_pattern(PatternKind.PARALLEL, 2, 2)
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    slots = apply_pattern(pattern, grid)
    logits = np.full((2, 2, 4), -50.0)
    for s in range(2):
        for k in range(2):
            logits[s, k, slots[s + 1, k] - 1] = 50.0
    loss, accuracy = masked_loss(logits, slots, pattern)
    assert loss < 1e-12
    assert accuracy == 1.0


def test_loss_invariant_to_masked_positions():
    pattern = build_pattern(PatternKind.DELAY, 2, 2)  # has absent slots
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    slots = apply_pattern(pattern, grid)
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 2, 4))
    base = masked_loss(logits, slots, pattern)
    mask = slots[1:] != 0
    noisy = logits.copy()
    noisy[~mask] = rng.standard_normal(((~mask).sum(), 4)) * 100.0
    assert masked_loss(noisy, slots, pattern) == base


FD_EPS = 1e-4


def assert_kink_margin(params, batch, factor=10.0):
    """Central differences are only a valid oracle away from ReLU kinks: no
    pre-activation may sit within `factor` times the largest shift an eps-size
    parameter perturbation can cause. The frozen seeds honor this."""
    for ex in batch:
        tokens = _coerce_tokens(ex.tokens, params.config)
        kv, prefixes = _new_cache(params, [ex.condition], len(tokens))
        _, _, cache = _forward_trunk(params, tokens[None], prefixes, kv, True)
        for layer_cache in cache[2]:
            ln2_out, h = layer_cache[4], layer_cache[5]
            margin = np.abs(h).min() / (FD_EPS * max(np.abs(ln2_out).max(), 1.0))
            assert margin > factor, f"seed puts a ReLU kink at margin {margin:.2f}"


def block_relative_errors(params, batch, eps=FD_EPS):
    """Central-difference oracle; per-block relative error of backprop.

    Each perturbed loss is scored by forward and _score_revealed alone, at
    well under half the cost of a grad call; that this is grad's loss, bit for
    bit, is asserted once at the unperturbed parameters."""
    count = sum(int(np.count_nonzero(ex.slots[1:] != SPECIAL_TOKEN)) for ex in batch)

    def loss_of(p):
        nll = sum(_score_revealed(forward(p, ex.tokens, ex.condition), ex.slots[1:])[0]
                  for ex in batch)
        return nll / count

    reference = grad(params, batch)
    assert loss_of(params) == reference.loss
    analytic = reference.grads
    errors = {}
    for name, arr in params.arrays.items():
        fd = np.zeros_like(arr)
        flat = arr.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_of(params)
            flat[i] = orig - eps
            down = loss_of(params)
            flat[i] = orig
            fd_flat[i] = (up - down) / (2.0 * eps)
        scale = max(np.abs(fd).max(), np.abs(analytic[name]).max(), 1e-12)
        errors[name] = float(np.abs(fd - analytic[name]).max() / scale)
    return errors


@pytest.mark.slow
def test_gradients_match_finite_differences_cross_attention():
    params = init_params(TINY, seed=13)
    cond = encode_text_toy("slow strings", D=TINY.D)
    batch, _, _ = tiny_batch(TINY, seed=1, T=5, condition=cond)  # S = 6 for delay K=2
    assert_kink_margin(params, batch)
    errors = block_relative_errors(params, batch)
    worst = max(errors.values())
    assert worst < 1e-5, sorted(errors.items(), key=lambda kv: -kv[1])[:5]


@pytest.mark.slow
def test_gradients_match_finite_differences_no_condition():
    config = ModelConfig(K=2, M=5, D=16, L=2, H=2, max_steps=64, conditioning_mode="none")
    params = init_params(config, seed=44)
    batch, _, _ = tiny_batch(config, seed=2, T=5)
    assert_kink_margin(params, batch)
    errors = block_relative_errors(params, batch)
    assert max(errors.values()) < 1e-5


@pytest.mark.slow
def test_gradients_match_finite_differences_prefix():
    config = ModelConfig(K=2, M=5, D=16, L=2, H=2, max_steps=64, conditioning_mode="prefix")
    params = init_params(config, seed=40)
    cond = encode_text_toy("short motif", D=config.D)
    batch, _, _ = tiny_batch(config, seed=3, T=4, condition=cond)
    assert_kink_margin(params, batch)
    errors = block_relative_errors(params, batch)
    assert max(errors.values()) < 1e-5


def test_grad_zero_for_absence_rows_when_never_used():
    # the embedding row of an id that never occurs as an input gets exactly
    # zero gradient; every row that does occur gets some
    config = ModelConfig(K=2, M=6, D=16, L=1, H=2, max_steps=64, conditioning_mode="none")
    params = init_params(config, seed=0)
    pattern = build_pattern(PatternKind.DELAY, 3, 2)
    ex = example_from_grid(pattern, TokenGrid(np.array([[1, 2], [3, 4], [5, 6]]), M=6))
    res = grad(params, [ex])
    for k in range(2):
        used = np.isin(np.arange(config.M + 1), ex.tokens[:, k])
        assert not used.all()
        rows = np.abs(res.grads[f"embed.k{k}"]).max(axis=1)
        assert (rows[~used] == 0.0).all() and (rows[used] > 0.0).all(), k


def test_grad_rejects_target_ids_beyond_the_vocabulary():
    # the last slot row is a target only, never an input; it is checked too
    params = init_params(TINY, seed=0)
    for bad in (-1, TINY.M + 1):
        slots = np.array([[0, 0], [1, 2], [3, bad]])
        with pytest.raises(ValidationError, match=r"token ids must lie in 0\.\.5"):
            grad(params, [TrainExample(slots=slots)])


def test_grad_deterministic():
    params = init_params(TINY, seed=1)
    batch, _, _ = tiny_batch(TINY, seed=4, T=4)
    a = grad(params, batch)
    b = grad(params, batch)
    assert a.loss == b.loss
    for name in a.grads:
        assert np.array_equal(a.grads[name], b.grads[name])


def test_train_step_zero_grad_zero_decay_is_identity():
    config = ModelConfig(K=1, M=3, D=8, L=1, H=1, max_steps=16, conditioning_mode="none")
    params = init_params(config, seed=0)
    before = {name: arr.copy() for name, arr in params.arrays.items()}
    state = AdamWState.init(params)
    hyper = TrainHyper(lr_max=1e-2, warmup_steps=1, total_steps=10, weight_decay=0.0,
                       condition_dropout=0.0)
    # a batch whose loss is flat in every parameter does not exist, so emulate
    # the zero-gradient contract directly through the optimizer arithmetic
    grads = zero_grads(params)
    b1, b2 = hyper.betas
    lr = cosine_lr(0, hyper)
    for name, g in grads.items():
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        params.arrays[name] -= lr * (state.m[name] / (np.sqrt(state.v[name]) + ADAM_EPS))
    for name in params.arrays:
        assert np.array_equal(params.arrays[name], before[name])


def test_global_norm_clipping():
    grads = {"a": np.array([3.0, 4.0]), "b": np.zeros(2)}
    norm = global_grad_norm(grads)
    assert norm == pytest.approx(5.0)
    scale = 1.0 / norm
    clipped = {k: v * scale for k, v in grads.items()}
    assert global_grad_norm(clipped) == pytest.approx(1.0)


def test_train_step_clips_and_updates():
    params = init_params(TINY, seed=2)
    batch, _, _ = tiny_batch(TINY, seed=5, T=4)
    state = AdamWState.init(params)
    hyper = TrainHyper(lr_max=1e-3, warmup_steps=1, total_steps=10, condition_dropout=0.0)
    before = {name: arr.copy() for name, arr in params.arrays.items()}
    state, params, stats = train_step(state, params, batch, hyper, np.random.default_rng(0))
    assert stats.step == 1
    assert np.isfinite(stats.loss)
    assert any(not np.array_equal(params.arrays[n], before[n]) for n in params.arrays)


def test_condition_dropout_is_seeded_and_observable():
    params = init_params(TINY, seed=2)
    cond = encode_text_toy("drums", D=TINY.D)
    batch, _, _ = tiny_batch(TINY, seed=5, T=3, condition=cond)
    hyper = TrainHyper(lr_max=1e-3, warmup_steps=1, total_steps=4, condition_dropout=1.0)
    state = AdamWState.init(params)
    _, _, stats = train_step(state, params, batch, hyper, np.random.default_rng(0))
    assert stats.condition_dropped


def test_cosine_schedule_shape():
    hyper = TrainHyper(lr_max=1.0, warmup_steps=10, total_steps=110)
    lrs = [cosine_lr(s, hyper) for s in range(110)]
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[9] == pytest.approx(1.0)
    assert lrs[-1] == pytest.approx(0.0, abs=1e-3)
    assert cosine_lr(110, hyper) == cosine_lr(500, hyper) == 0.0
    assert all(b <= a + 1e-12 for a, b in zip(lrs[10:], lrs[11:]))


def test_training_decreases_loss_quickly():
    config = ModelConfig(K=2, M=8, D=32, L=2, H=4, max_steps=64, conditioning_mode="none")
    params = init_params(config, seed=0)
    rng = np.random.default_rng(0)
    pattern = build_pattern(PatternKind.DELAY, 8, 2)
    batch = [example_from_grid(pattern, random_grid(8, 2, 8, rng)) for _ in range(2)]
    state = AdamWState.init(params)
    hyper = TrainHyper(lr_max=5e-3, warmup_steps=10, total_steps=200, condition_dropout=0.0)
    first = grad(params, batch).loss
    for _ in range(200):
        state, params, stats = train_step(state, params, batch, hyper, rng)
    assert stats.loss < first * 0.2


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(TINY, seed=6)
    extra = {"grids": np.arange(12).reshape(3, 4)}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, extra=extra, meta={"note": "test"})
    ck = load_checkpoint(path)
    assert ck.params.config == TINY
    for name in params.arrays:
        assert np.array_equal(ck.params.arrays[name], params.arrays[name])
    assert np.array_equal(ck.extra["grids"], extra["grids"])
    assert ck.meta["note"] == "test"
    # parameters and extras only: no optimizer moments, no step count
    with np.load(path) as data:
        assert all(k == "__header__" or k.startswith(("p:", "x:")) for k in data.files)
        header = json.loads(str(data["__header__"]))
    assert "opt_step" not in header and "ffn_mult" not in header["config"]


@pytest.mark.parametrize("D", [1, 8, 15, 16, 47, 48, 64])
def test_sinusoid_matches_the_where_form(D):
    def where_form(positions, D):  # sin and cos of every entry, half kept
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 1)
        i = np.arange(D)
        ang = pos * np.power(10000.0, -2.0 * (i // 2) / D)
        return np.where(i % 2 == 0, np.sin(ang), np.cos(ang))

    for positions in (np.arange(0), np.arange(1), np.arange(27), np.arange(1600), np.arange(5, 40)):
        assert np.array_equal(sinusoidal_embedding(positions, D), where_form(positions, D))


def test_interrupted_checkpoint_save_keeps_old_file(tmp_path, monkeypatch):
    old = init_params(TINY, seed=6)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, old)

    def savez_then_fail(fh, **payload):
        fh.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, init_params(TINY, seed=7))
    monkeypatch.undo()
    loaded = load_checkpoint(path).params
    assert all(np.array_equal(loaded.arrays[n], a) for n, a in old.arrays.items())
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(K=2, M=4, D=15, H=2)
    with pytest.raises(ValidationError):
        ModelConfig(K=0, M=4)
    with pytest.raises(ValidationError):
        ModelConfig(K=1, M=4, conditioning_mode="sideways")
    # a checkpoint header is JSON: a fraction or a bool is not a size
    for name, bad in (("K", 4.5), ("M", 4.0), ("D", True), ("L", "2"), ("H", np.float64(2)),
                      ("max_steps", None)):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            ModelConfig(**{"K": 1, "M": 4, "D": 8, "H": 2, name: bad})
    assert ModelConfig(K=np.int64(2), M=4).K == 2


@pytest.mark.slow
def test_gradients_match_finite_differences_both_modes():
    from tokenweave.conditioning import chroma_to_condition

    config = ModelConfig(K=2, M=5, D=16, L=1, H=2, max_steps=64, conditioning_mode="both")
    params = init_params(config, seed=22)
    cond = CombinedCondition(
        prefix=chroma_to_condition([3, 9, 9], config.D),
        cross=encode_text_toy("two words", config.D),
    )
    batch, _, _ = tiny_batch(config, seed=6, T=4, condition=cond)
    assert_kink_margin(params, batch)
    errors = block_relative_errors(params, batch)
    assert max(errors.values()) < 1e-5
