import json

import numpy as np
import pytest

from tokenweave import sampling
from tokenweave.conditioning import chroma_to_condition, encode_text_toy
from tokenweave.errors import InvariantError, ValidationError
from tokenweave.model import ModelConfig, forward, init_params, open_cache
from tokenweave.patterns import (
    Pattern,
    PatternKind,
    TokenGrid,
    apply_pattern,
    build_pattern,
    pattern_from_json,
    revert_pattern,
)
from tokenweave.sampling import (
    SamplerConfig,
    _topk_probs,
    cfg_combine,
    continue_from_prompt,
    generate,
    sample_token,
)

from helpers import random_grid

CFG_GREEDY = SamplerConfig(temperature=0.0, guidance_scale=1.0)


def small_model(mode="none", seed=0, K=2, M=8, L=1):
    config = ModelConfig(K=K, M=M, D=16, L=L, H=2, max_steps=128, conditioning_mode=mode)
    return init_params(config, seed=seed)


def reference_draw(row, cfg, rng):
    """The per-row draw the block draw replaced: the argmax at temperature 0,
    else one rng.choice over the top-k softmax of one logit row."""
    if cfg.temperature == 0.0:
        return int(np.argmax(row)) + 1
    order = np.argsort(-row, kind="stable")[: min(cfg.top_k, len(row))]
    with np.errstate(over="ignore"):
        p = np.exp((row[order] - row[order[0]]) / cfg.temperature)
    p /= p.sum()
    return int(rng.choice(order, p=p)) + 1


def reference_walk(params, pattern, condition, cfg, rng, forced):
    """The full-prefix, coordinate-by-coordinate walker the cached one
    replaced: at every step, one forward over all slots filled so far per
    guidance branch, then one draw per revealed codebook."""
    c = params.config
    S = pattern.S
    slots = np.zeros((S + 1, c.K), dtype=np.int64)
    written = np.zeros((S + 1, c.K), dtype=bool)
    presence = np.zeros((S + 1, c.K), dtype=bool)
    presence[pattern.step, np.arange(c.K)] = True
    for s in range(S):
        if not np.array_equal(written[: s + 1], presence[: s + 1]):
            raise InvariantError("a position was read before the pattern revealed it")
        logits = forward(params, slots[: s + 1], condition=condition)[-1]
        if cfg.guidance_scale != 1.0 and condition is not None:
            uncond = forward(params, slots[: s + 1], condition=None)[-1]
            logits = cfg_combine(logits, uncond, cfg.guidance_scale)
        # the 1-based (t, k) the step reveals, in codebook order
        for t, k in sorted((np.argwhere(pattern.step == s + 1) + 1).tolist(), key=lambda c: c[1]):
            if written[s + 1, k - 1]:
                raise InvariantError(f"slot for {(t, k)} written twice")
            if forced is not None and t <= forced.T:
                token = int(forced.tokens[t - 1, k - 1])
            else:
                token = reference_draw(logits[k - 1], cfg, rng)
            slots[s + 1, k - 1] = token
            written[s + 1, k - 1] = True
    return revert_pattern(pattern, slots, c.M)


D_TEST = 16
TEXT = encode_text_toy("steady warm beat", D=D_TEST)
MELODY = chroma_to_condition([0, 4, 7, 4, 2], D=D_TEST)
EMPTY = np.zeros((0, D_TEST))

# (model conditioning mode, condition): every route, a condition the model
# ignores and an empty tensor
CONDITIONED = [
    pytest.param("none", None, id="none"),
    pytest.param("none", TEXT, id="none-ignored_text"),
    pytest.param("prefix", MELODY, id="prefix"),
    pytest.param("cross_attention", TEXT, id="cross_attention"),
    pytest.param("cross_attention", EMPTY, id="cross_attention-empty"),
]


def test_cfg_combine_identities():
    rng = np.random.default_rng(0)
    cond = rng.standard_normal((2, 5))
    uncond = rng.standard_normal((2, 5))
    assert np.array_equal(cfg_combine(cond, uncond, 1.0), cond)
    assert np.array_equal(cfg_combine(cond, uncond, 0.0), uncond)
    assert np.allclose(cfg_combine(cond, cond, 7.3), cond)
    # affine in the scale
    a, b = cfg_combine(cond, uncond, 2.0), cfg_combine(cond, uncond, 4.0)
    mid = cfg_combine(cond, uncond, 3.0)
    assert np.allclose(mid, (a + b) / 2.0)


def test_cfg_combine_shape_mismatch():
    with pytest.raises(ValidationError):
        cfg_combine(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


def test_sample_token_greedy_argmax():
    token = sample_token(np.array([1.0, 3.0, 2.0]), CFG_GREEDY, None)
    assert token == 2  # 1-based id of the highest logit
    # ties break toward the lowest index
    assert sample_token(np.array([5.0, 5.0, 1.0]), CFG_GREEDY, None) == 1


def test_sample_token_temperature_zero_is_argmax():
    rng = np.random.default_rng(2)
    cfg = SamplerConfig(temperature=0.0)
    logits = rng.standard_normal(6)
    before = rng.bit_generator.state
    assert sample_token(logits, cfg, rng) == int(np.argmax(logits)) + 1
    assert rng.bit_generator.state == before  # greedy consumes no randomness


def test_sample_token_top_k_one_equals_greedy():
    rng = np.random.default_rng(1)
    cfg = SamplerConfig(top_k=1, temperature=2.5)
    for _ in range(50):
        logits = rng.standard_normal(12)
        assert sample_token(logits, cfg, rng) == sample_token(logits, CFG_GREEDY, None)


def test_sample_token_converges_to_argmax_as_temperature_falls():
    logits = np.array([0.0, 0.5, 0.4])
    rng = np.random.default_rng(3)
    fracs = []
    for temp in (2.0, 0.5, 0.05, 0.001, 1e-320):
        cfg = SamplerConfig(top_k=3, temperature=temp)
        draws = [sample_token(logits, cfg, rng) for _ in range(400)]
        fracs.append(float(np.mean(np.asarray(draws) == 2)))
    assert all(b >= a - 0.05 for a, b in zip(fracs, fracs[1:]))
    # at temperature 1e-3 the runner-up mass underflows entirely, and a
    # subnormal temperature sends it to -inf without an overflow warning
    assert fracs[-2:] == [1.0, 1.0]


def test_topk_probs_at_temperature_one_are_bitwise_unchanged():
    # seeded draws at temperature 1 depend on these bits; the reference
    # divides by the temperature first and subtracts the max after
    rng = np.random.default_rng(6)
    for _ in range(50):
        logits = np.round(rng.standard_normal(9) * 4.0, 1)  # ties included
        logits[rng.integers(0, 9)] = -np.inf
        cfg = SamplerConfig(top_k=int(rng.integers(1, 10)), temperature=1.0)
        z = logits / cfg.temperature
        order = np.argsort(-z, kind="stable")[: cfg.top_k]
        zk = z[order] - z[order].max()
        want = np.exp(zk) / np.exp(zk).sum()
        got_order, got = _topk_probs(logits, cfg)
        assert np.array_equal(got_order, order)
        assert np.array_equal(got, want)


def test_block_draw_matches_per_row_choice():
    """One draw over a block of logit rows gives the ids, and leaves the rng
    in the state, of one rng.choice per row: 2,000 seeded cases with ties,
    -inf entries, top-k 1, 4, 250 and M, and temperatures 0.3, 1 and 1.7."""
    cases = np.random.default_rng(0)
    for case in range(2000):
        M = int(cases.integers(1, 300))
        logits = np.round(cases.standard_normal((int(cases.integers(1, 5)), M)) * 3.0, 1)
        logits[cases.random(logits.shape) < 0.2] = -np.inf
        logits[:, cases.integers(0, M)] = 1.0  # no row all -inf
        cfg = SamplerConfig(
            top_k=[1, 4, 250, M][case % 4], temperature=[0.3, 1.0, 1.7][case % 3]
        )
        block, rows = np.random.default_rng(case), np.random.default_rng(case)
        got = sample_token(logits, cfg, block)
        want = [reference_draw(row, cfg, rows) for row in logits]
        assert got.tolist() == want, case
        assert block.bit_generator.state == rows.bit_generator.state, case
    # a single row still returns one id
    assert isinstance(sample_token(np.zeros(3), SamplerConfig(), np.random.default_rng(0)), int)


def test_sample_token_matches_softmax_ratio():
    # logits [0, ln 2] at temperature 1: probabilities 1/3 and 2/3
    logits = np.array([0.0, np.log(2.0)])
    cfg = SamplerConfig(top_k=2, temperature=1.0)
    rng = np.random.default_rng(4)
    draws = np.array([sample_token(logits, cfg, rng) for _ in range(30000)])
    counts = np.bincount(draws, minlength=3)[1:]
    assert abs(counts[1] / counts[0] - 2.0) < 0.1


def test_sample_token_rejects_degenerate_logits():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        sample_token(np.array([np.nan, 0.0]), SamplerConfig(), rng)
    with pytest.raises(ValidationError):
        sample_token(np.array([-np.inf, -np.inf]), SamplerConfig(), rng)
    # one bad row fails the whole block
    with pytest.raises(ValidationError, match="all -inf"):
        sample_token(np.array([[0.0, 1.0], [-np.inf, -np.inf]]), SamplerConfig(), rng)
    with pytest.raises(ValidationError, match=r"\+inf"):
        sample_token(np.array([[0.0, 1.0], [np.inf, 0.0]]), CFG_GREEDY, rng)
    # NaN and +inf take precedence over an all -inf row, wherever each sits
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match=r"NaN or \+inf"):
            sample_token(np.array([[-np.inf, -np.inf], [0.0, bad]]), SamplerConfig(), rng)
    with pytest.raises(ValidationError, match=r"NaN or \+inf"):
        sample_token(np.array([[-np.inf, np.nan], [-np.inf, -np.inf]]), CFG_GREEDY, rng)
    with pytest.raises(ValidationError, match="expects logit rows, got a scalar"):
        sample_token(np.float64(1.0), CFG_GREEDY, rng)
    # an empty row has nothing to sample either
    with pytest.raises(ValidationError, match="all -inf"):
        sample_token(np.zeros((2, 0)), SamplerConfig(), rng)
    # -inf beside finite logits is a mask, not an error
    mixed = np.array([[-np.inf, 0.5, -np.inf], [2.0, -np.inf, 1.0]])
    assert sample_token(mixed, SamplerConfig(), rng).tolist()[0] == 2
    assert sample_token(mixed, CFG_GREEDY, None).tolist() == [2, 1]
    # a 3-D block draws as its rows flattened: the same ids, the same rng state
    block = np.round(np.random.default_rng(1).standard_normal((2, 3, 7)), 1)
    block[0, 1, :3] = -np.inf
    for cfg in (SamplerConfig(top_k=4), SamplerConfig(temperature=0.7), CFG_GREEDY):
        shaped, flat = np.random.default_rng(9), np.random.default_rng(9)
        ids = sample_token(block, cfg, shaped)
        assert ids.shape == (2, 3)
        assert ids.ravel().tolist() == sample_token(block.reshape(6, 7), cfg, flat).tolist()
        assert shaped.bit_generator.state == flat.bit_generator.state


def test_sample_token_honors_neg_inf_mask():
    cfg = SamplerConfig(top_k=4, temperature=1.0)
    rng = np.random.default_rng(5)
    logits = np.array([-np.inf, 1.0, -np.inf, 0.0])
    draws = {sample_token(logits, cfg, rng) for _ in range(200)}
    assert draws <= {2, 4}


def test_generate_deterministic_and_in_range():
    params = small_model()
    pattern = build_pattern(PatternKind.DELAY, 6, 2)
    cfg = SamplerConfig(top_k=4, temperature=1.0, guidance_scale=1.0)
    a = generate(params, pattern, cfg=cfg, rng=np.random.default_rng(7))
    b = generate(params, pattern, cfg=cfg, rng=np.random.default_rng(7))
    c = generate(params, pattern, cfg=cfg, rng=np.random.default_rng(8))
    assert np.array_equal(a.tokens, b.tokens)
    assert not np.array_equal(a.tokens, c.tokens)  # seeded, not constant
    assert a.tokens.min() >= 1 and a.tokens.max() <= params.config.M
    assert a.tokens.shape == (6, 2)


@pytest.mark.parametrize("kind", [PatternKind.PARALLEL, PatternKind.FLATTEN, PatternKind.COARSE_FIRST])
def test_generate_all_patterns_fill_grid(kind):
    params = small_model()
    pattern = build_pattern(kind, 5, 2)
    grid = generate(params, pattern, cfg=CFG_GREEDY)
    assert grid.tokens.shape == (5, 2)
    assert (grid.tokens >= 1).all()


def test_generate_guidance_combines_two_passes():
    params = small_model(mode="cross_attention", seed=3)
    pattern = build_pattern(PatternKind.DELAY, 6, 2)
    cond = encode_text_toy("steady beat", D=params.config.D)
    start = np.zeros((1, 2), dtype=int)
    cond_logits = forward(params, start, condition=cond)[-1]
    uncond_logits = forward(params, start, condition=None)[-1]
    assert not np.allclose(cond_logits, uncond_logits)
    pushed = cfg_combine(cond_logits, uncond_logits, 3.0)
    assert not np.allclose(pushed, cond_logits)
    # the stacked two-branch walk makes the grid the two full passes make
    cfg = SamplerConfig(temperature=0.0, guidance_scale=3.0)
    guided = generate(params, pattern, condition=cond, cfg=cfg)
    want = reference_walk(params, pattern, cond, cfg, None, None)
    assert np.array_equal(guided.tokens, want.tokens)


def test_generate_k_mismatch():
    params = small_model(K=2)
    with pytest.raises(ValidationError, match="K="):
        generate(params, build_pattern(PatternKind.PARALLEL, 4, 4), cfg=CFG_GREEDY)


def test_generate_requires_rng_for_sampling():
    params = small_model()
    with pytest.raises(ValidationError, match="random generator"):
        generate(params, build_pattern(PatternKind.PARALLEL, 2, 2), cfg=SamplerConfig())


def _custom_pattern(*steps):
    """A 2x2 pattern document: step 0 empty, then the given (t, k) lists."""
    doc = {"kind": None, "T": 2, "K": 2, "steps": [[]] + [list(step) for step in steps]}
    return lambda: pattern_from_json(json.dumps(doc))


def _table(*rows):
    return lambda: Pattern(step=np.array(rows))


# an invalid pattern never reaches generate or continue_from_prompt: building
# one, from a document or from a step table, raises
@pytest.mark.parametrize(
    "build,violation",
    [
        (_custom_pattern([(1, 1), (1, 2)], [(2, 1), (2, 2)], [(2, 1)]), "appears in steps 2 and 3"),
        (_custom_pattern([(2, 1), (2, 2)], [(1, 1), (1, 2)]), "not strictly increasing"),
        (_custom_pattern([(1, 1), (2, 1)], [(1, 2), (2, 2)]), "duplicate codebook 1 in step 1"),
        (_custom_pattern([(1, 1), (1, 2)], [(2, 1)]), "1 coordinate\\(s\\) missing"),
        (_table([0, 1], [1, 2]), "step 0 of coordinate \\(1, 1\\) is below 1"),
        (_table([2, 1], [1, 2]), "codebook 1 timesteps are not strictly increasing"),
        (_table([1, 1], [1, 2]), "duplicate codebook 1 in step 1"),
        (_table([1, 1], [3, 3]), "nothing is revealed at step 2"),
    ],
    ids=["repeated_coordinate", "timesteps_out_of_order", "duplicate_codebook", "missing",
         "table_entry_0", "table_decreasing", "table_equal_pair", "table_gap"],
)
def test_invalid_pattern_is_a_validation_error(build, violation):
    with pytest.raises(ValidationError, match="pattern is invalid: .*" + violation):
        build()


def test_continue_full_prompt_is_identity():
    params = small_model(M=8)
    pattern = build_pattern(PatternKind.DELAY, 5, 2)
    rng = np.random.default_rng(0)
    prompt = TokenGrid(tokens=rng.integers(1, 9, size=(5, 2)), M=8)
    out = continue_from_prompt(params, pattern, prompt, cfg=CFG_GREEDY)
    assert np.array_equal(out.tokens, prompt.tokens)


def test_continue_greedy_seed_independent():
    params = small_model(M=8)
    pattern = build_pattern(PatternKind.DELAY, 6, 2)
    rng = np.random.default_rng(0)
    prompt = TokenGrid(tokens=rng.integers(1, 9, size=(2, 2)), M=8)
    a = continue_from_prompt(params, pattern, prompt, cfg=CFG_GREEDY, rng=np.random.default_rng(1))
    b = continue_from_prompt(params, pattern, prompt, cfg=CFG_GREEDY, rng=np.random.default_rng(99))
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.tokens[:2], prompt.tokens)


def test_continue_prompt_too_long():
    params = small_model(M=8)
    pattern = build_pattern(PatternKind.DELAY, 3, 2)
    prompt = TokenGrid(tokens=np.ones((4, 2), dtype=int), M=8)
    with pytest.raises(ValidationError, match="spans"):
        continue_from_prompt(params, pattern, prompt, cfg=CFG_GREEDY)


def test_continue_refuses_a_prompt_that_does_not_fit_the_model():
    params = small_model(K=2, M=8)
    pattern = build_pattern(PatternKind.DELAY, 3, 2)
    for prompt, message in ((TokenGrid(tokens=np.ones((1, 1), dtype=int), M=8), r"K=1 .* K=2"),
                            (TokenGrid(tokens=np.ones((1, 2), dtype=int), M=9), "vocabulary")):
        with pytest.raises(ValidationError, match=message):
            continue_from_prompt(params, pattern, prompt, cfg=CFG_GREEDY)


def test_walk_refuses_more_steps_than_the_model_takes():
    params = init_params(ModelConfig(K=2, M=8, D=16, L=1, H=2, max_steps=4), seed=0)
    with pytest.raises(ValidationError, match="pattern needs 5 steps, model max is 4"):
        generate(params, build_pattern(PatternKind.DELAY, 4, 2), cfg=CFG_GREEDY)


def test_sampler_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(top_k=0)
    with pytest.raises(ValidationError):
        SamplerConfig(temperature=-1.0)
    with pytest.raises(ValidationError, match="guidance_scale must be finite, got inf"):
        SamplerConfig(guidance_scale=np.inf)
    cfg = SamplerConfig()
    assert (cfg.top_k, cfg.temperature, cfg.guidance_scale) == (250, 1.0, 3.0)


@pytest.mark.parametrize("mode,condition", CONDITIONED)
@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda k: k.value)
def test_cached_walk_matches_full_prefix_walker(kind, mode, condition):
    """Greedy and seeded grids, guided and not, from generate and from
    continue_from_prompt with a partial and a full prompt, equal those of the
    full-prefix walker."""
    params = small_model(mode=mode, seed=5, K=4, M=6, L=2)
    pattern = build_pattern(kind, 4, 4)
    prompt_rng = np.random.default_rng(11)
    prompts = [None] + [
        TokenGrid(tokens=prompt_rng.integers(1, 7, size=(T, 4)), M=6) for T in (2, 4)
    ]
    configs = [
        SamplerConfig(temperature=0.0, guidance_scale=3.0),
        SamplerConfig(top_k=4, temperature=1.5, guidance_scale=3.0),
        SamplerConfig(temperature=1.0, guidance_scale=1.0),
    ]
    for prompt in prompts:
        for cfg in configs:
            want = reference_walk(params, pattern, condition, cfg, np.random.default_rng(3), prompt)
            rng = np.random.default_rng(3)
            if prompt is None:
                got = generate(params, pattern, condition=condition, cfg=cfg, rng=rng)
            else:
                got = continue_from_prompt(
                    params, pattern, prompt, condition=condition, cfg=cfg, rng=rng
                )
            assert np.array_equal(got.tokens, want.tokens), (prompt and prompt.T, cfg)


def test_walker_calls_the_module_once_per_step_that_draws(monkeypatch):
    """The walker looks forward, cfg_combine and sample_token up on the
    sampling module, where a trace wraps them, and calls each once per step
    with a slot to draw and never for a step the prompt fills."""
    params = small_model(mode="cross_attention", seed=1, K=4, M=6, L=1)
    pattern = build_pattern(PatternKind.DELAY, 4, 4)
    calls = []

    def counting(name):
        real = getattr(sampling, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("forward", "cfg_combine", "sample_token"):
        monkeypatch.setattr(sampling, name, counting(name))
    tokens = np.random.default_rng(0).integers(1, 7, size=(4, 4))
    cfg = SamplerConfig(guidance_scale=3.0)
    for P in (None, 0, 1, 2, 3, 4):  # None: generate
        calls.clear()
        rng = np.random.default_rng(2)
        if P is None:
            generate(params, pattern, condition=TEXT, cfg=cfg, rng=rng)
        else:
            prompt = TokenGrid(tokens=tokens[:P], M=6)
            continue_from_prompt(params, pattern, prompt, condition=TEXT, cfg=cfg, rng=rng)
        # the steps that reveal a timestep past the prompt
        draws = len(np.unique(pattern.step[P or 0 :]))
        assert calls == ["forward", "cfg_combine", "sample_token"] * draws, P


@pytest.mark.parametrize("mode,condition", CONDITIONED)
@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda k: k.value)
def test_cached_logits_match_full_prefix_forward(kind, mode, condition):
    """Both stacked branches (the condition and None) give, at every step, the
    logits a full-prefix forward gives; the first call prefills three rows."""
    params = small_model(mode=mode, seed=2, K=4, M=6, L=2)
    pattern = build_pattern(kind, 4, 4)
    grid = random_grid(4, 4, 6, np.random.default_rng(1))
    slots = apply_pattern(pattern, grid)[:-1]
    kv = open_cache(params, [condition, None], len(slots))
    chunks = [slice(0, 3)] + [slice(s, s + 1) for s in range(3, len(slots))]
    for chunk in chunks:
        got = forward(params, slots[chunk], cache=kv)
        assert got.shape == (2, chunk.stop - chunk.start, 4, 6)
        for b, cond in enumerate((condition, None)):
            want = forward(params, slots[: chunk.stop], condition=cond)[chunk]
            assert np.abs(got[b] - want).max() <= 1e-12
