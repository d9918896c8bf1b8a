import math
from dataclasses import replace

import numpy as np
import pytest

from tokenweave.conditioning import ConditioningTensor, chroma_to_condition, encode_text_toy
from tokenweave.errors import ValidationError
from tokenweave.model import (
    LN_EPS,
    AdamWState,
    CombinedCondition,
    ModelConfig,
    Parameters,
    TrainExample,
    TrainHyper,
    _backward_trunk,
    _coerce_tokens,
    _forward_trunk,
    _new_cache,
    cosine_lr,
    example_from_grid,
    forward,
    global_grad_norm,
    grad,
    init_params,
    load_checkpoint,
    loss_masked,
    masked_accuracy,
    open_cache,
    save_checkpoint,
    sinusoidal_embedding,
    train_step,
    zero_grads,
)
from tokenweave.patterns import PatternKind, TokenGrid, apply_pattern, build_pattern, random_grid

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
    params = init_params(config, seed=0)
    assert params.n_params() == expected
    assert abs(params.n_params() - 3e8) / 3e8 < 0.10


def test_forward_rejects_bad_tokens():
    params = init_params(TINY, seed=1)
    bad_id = np.array([[TINY.M + 1, 0]])
    with pytest.raises(ValidationError, match=r"token ids must lie in 0\.\.5"):
        forward(params, bad_id)
    with pytest.raises(ValidationError, match="exceeds max_steps=64"):
        forward(params, np.ones((TINY.max_steps + 1, 2), dtype=int))
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
    no_xattn = init_params(replace(TINY, conditioning_mode="prefix"), seed=1)
    no_xattn = Parameters(config=TINY, arrays=no_xattn.arrays)
    text = encode_text_toy("warm pad", D=TINY.D)
    for p, cond, message in (
        (params, wide, "dimension 16"),
        (no_xattn, text, "without cross-attention parameters"),
        (params, text.rows, "ConditioningTensor"),
    ):
        with pytest.raises(ValidationError, match=message):
            forward(p, steps, condition=cond)
        with pytest.raises(ValidationError, match=message):
            open_cache(p, [cond, None], 4)
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
    _, hidden, _ = _forward_trunk(params, steps, None, kv, False)
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
        logits, _, cache = _forward_trunk(params, steps, None, kv, True)
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


def test_codebook_permutation_coherence():
    params = init_params(TINY, seed=9)
    swapped = params.copy()
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


def test_loss_uniform_logits_is_log_m():
    pattern = build_pattern(PatternKind.PARALLEL, 2, 2)
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    seq = apply_pattern(pattern, grid)
    logits = np.zeros((2, 2, 4))
    assert loss_masked(logits, seq, pattern) == pytest.approx(math.log(4.0), abs=1e-12)


def test_loss_one_hot_correct_logits_near_zero():
    pattern = build_pattern(PatternKind.PARALLEL, 2, 2)
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    seq = apply_pattern(pattern, grid)
    logits = np.full((2, 2, 4), -50.0)
    for s in range(2):
        for k in range(2):
            logits[s, k, seq.slots[s + 1, k] - 1] = 50.0
    assert loss_masked(logits, seq, pattern) < 1e-12
    assert masked_accuracy(logits, seq, pattern) == 1.0


def test_loss_invariant_to_masked_positions():
    pattern = build_pattern(PatternKind.DELAY, 2, 2)  # has absent slots
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    seq = apply_pattern(pattern, grid)
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((3, 2, 4))
    base = loss_masked(logits, seq, pattern)
    mask = pattern.presence_mask()[1:]
    noisy = logits.copy()
    noisy[~mask] = rng.standard_normal(((~mask).sum(), 4)) * 100.0
    assert loss_masked(noisy, seq, pattern) == base


FD_EPS = 1e-4


def assert_kink_margin(params, batch, factor=10.0):
    """Central differences are only a valid oracle away from ReLU kinks: no
    pre-activation may sit within `factor` times the largest shift an eps-size
    parameter perturbation can cause. The frozen seeds honor this."""
    for ex in batch:
        tokens = _coerce_tokens(ex.tokens)
        kv, (prefix_rows,) = _new_cache(params, [ex.condition], len(tokens))
        _, _, cache = _forward_trunk(params, tokens, prefix_rows, kv, True)
        for layer_cache in cache[2]:
            ln2_out, h = layer_cache[4], layer_cache[5]
            margin = np.abs(h).min() / (FD_EPS * max(np.abs(ln2_out).max(), 1.0))
            assert margin > factor, f"seed puts a ReLU kink at margin {margin:.2f}"


def block_relative_errors(params, batch, eps=FD_EPS):
    """Central-difference oracle; per-block relative error of backprop."""

    def loss_of(p):
        return grad(p, batch).loss

    analytic = grad(params, batch).grads
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
    config = ModelConfig(K=2, M=5, D=16, L=1, H=2, max_steps=64, conditioning_mode="none")
    params = init_params(config, seed=0)
    pattern = build_pattern(PatternKind.PARALLEL, 2, 2)
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=5)
    seq = apply_pattern(pattern, grid)
    full = TrainExample(
        tokens=np.array([[2, 3], [1, 4]]),  # no zeros: absence rows never activate
        targets=seq,
        pattern=pattern,
        condition=None,
    )
    res = grad(params, [full])
    for k in range(2):
        assert np.allclose(res.grads[f"embed.k{k}"][0], 0.0)
        # token id 5 is never an input either
        assert np.allclose(res.grads[f"embed.k{k}"][5], 0.0)


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
    before = params.copy()
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
        params.arrays[name] -= lr * (state.m[name] / (np.sqrt(state.v[name]) + hyper.eps))
    for name in params.arrays:
        assert np.array_equal(params.arrays[name], before.arrays[name])


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
    before = params.copy()
    state, params, stats = train_step(state, params, batch, hyper, np.random.default_rng(0))
    assert stats.step == 1
    assert np.isfinite(stats.loss)
    assert any(not np.array_equal(params.arrays[n], before.arrays[n]) for n in params.arrays)


def test_condition_dropout_is_seeded_and_observable():
    params = init_params(TINY, seed=2)
    cond = encode_text_toy("drums", D=TINY.D)
    batch, _, _ = tiny_batch(TINY, seed=5, T=3, condition=cond)
    hyper = TrainHyper(lr_max=1e-3, warmup_steps=1, total_steps=4, condition_dropout=1.0)
    state = AdamWState.init(params)
    _, _, stats = train_step(state, params, batch, hyper, np.random.default_rng(0))
    assert stats.condition_dropped


def test_cosine_schedule_shape():
    hyper = TrainHyper(lr_max=1.0, lr_min=0.1, warmup_steps=10, total_steps=110)
    lrs = [cosine_lr(s, hyper) for s in range(110)]
    assert lrs[0] == pytest.approx(0.1)
    assert lrs[9] == pytest.approx(1.0)
    assert lrs[-1] == pytest.approx(0.1, abs=1e-3)
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
    state = AdamWState.init(params)
    state.step = 17
    extra = {"grids": np.arange(12).reshape(3, 4)}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, state, extra=extra, meta={"note": "test"})
    ck = load_checkpoint(path)
    assert ck.params.config == TINY
    for name in params.arrays:
        assert np.array_equal(ck.params.arrays[name], params.arrays[name])
    assert ck.opt_state.step == 17
    assert np.array_equal(ck.extra["grids"], extra["grids"])
    assert ck.meta["note"] == "test"


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
