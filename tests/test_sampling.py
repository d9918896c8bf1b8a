import numpy as np
import pytest

from tokenweave.conditioning import ConditioningTensor, chroma_to_condition, encode_text_toy
from tokenweave.errors import InvariantError, ValidationError
from tokenweave.model import CombinedCondition, ModelConfig, forward, init_params, open_cache
from tokenweave.patterns import (
    InterleavedSequence,
    PatternKind,
    TokenGrid,
    apply_pattern,
    build_pattern,
    random_grid,
    revert_pattern,
)
from tokenweave.sampling import (
    SamplerConfig,
    cfg_combine,
    continue_from_prompt,
    generate,
    sample_token,
)

CFG_GREEDY = SamplerConfig(mode="greedy", guidance_scale=1.0)


def small_model(mode="none", seed=0, K=2, M=8, L=1):
    config = ModelConfig(K=K, M=M, D=16, L=L, H=2, max_steps=128, conditioning_mode=mode)
    return init_params(config, seed=seed)


def reference_walk(params, pattern, condition, cfg, rng, forced):
    """The full-prefix walker the cached one replaced: at every step, one
    forward over all slots filled so far per guidance branch."""
    c = params.config
    S = pattern.S
    slots = np.zeros((S + 1, c.K), dtype=np.int64)
    written = np.zeros((S + 1, c.K), dtype=bool)
    presence = pattern.presence_mask()
    for s in range(S):
        step = pattern.steps[s + 1]
        if not np.array_equal(written[: s + 1], presence[: s + 1]):
            raise InvariantError("a position was read before the pattern revealed it")
        logits = forward(params, slots[: s + 1], condition=condition)[-1]
        if cfg.guidance_scale != 1.0 and condition is not None:
            uncond = forward(params, slots[: s + 1], condition=None)[-1]
            logits = cfg_combine(logits, uncond, cfg.guidance_scale)
        for coord in sorted(step.coords, key=lambda cd: cd.k):
            if written[s + 1, coord.k - 1]:
                raise InvariantError(f"slot for {tuple(coord)} written twice")
            if forced is not None and coord.t <= forced.T:
                token = int(forced.tokens[coord.t - 1, coord.k - 1])
            else:
                token = sample_token(logits[coord.k - 1], cfg, rng)
            slots[s + 1, coord.k - 1] = token
            written[s + 1, coord.k - 1] = True
    return revert_pattern(pattern, InterleavedSequence(slots=slots, M=c.M))


D_TEST = 16
TEXT = encode_text_toy("steady warm beat", D=D_TEST)
MELODY = chroma_to_condition([0, 4, 7, 4, 2], D=D_TEST)
EMPTY = ConditioningTensor(rows=np.zeros((0, D_TEST)))

# (model conditioning mode, condition): every route, a condition the model
# ignores, an empty tensor and a CombinedCondition with one side missing
CONDITIONED = [
    pytest.param("none", None, id="none"),
    pytest.param("none", TEXT, id="none-ignored_text"),
    pytest.param("prefix", MELODY, id="prefix"),
    pytest.param("cross_attention", TEXT, id="cross_attention"),
    pytest.param("both", CombinedCondition(prefix=MELODY, cross=TEXT), id="both"),
    pytest.param("cross_attention", EMPTY, id="cross_attention-empty"),
    pytest.param("both", CombinedCondition(prefix=MELODY, cross=None), id="both-prefix_only"),
    pytest.param("both", CombinedCondition(prefix=None, cross=TEXT), id="both-cross_only"),
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


def test_sample_token_top_k_one_equals_greedy():
    rng = np.random.default_rng(1)
    cfg = SamplerConfig(top_k=1, temperature=2.5)
    for _ in range(50):
        logits = rng.standard_normal(12)
        assert sample_token(logits, cfg, rng) == sample_token(logits, CFG_GREEDY, None)


def test_sample_token_temperature_zero_is_argmax():
    rng = np.random.default_rng(2)
    cfg = SamplerConfig(temperature=0.0)
    logits = rng.standard_normal(6)
    assert sample_token(logits, cfg, rng) == int(np.argmax(logits)) + 1


def test_sample_token_converges_to_argmax_as_temperature_falls():
    logits = np.array([0.0, 0.5, 0.4])
    rng = np.random.default_rng(3)
    fracs = []
    for temp in (2.0, 0.5, 0.05, 0.001):
        cfg = SamplerConfig(top_k=3, temperature=temp)
        draws = [sample_token(logits, cfg, rng) for _ in range(400)]
        fracs.append(float(np.mean(np.asarray(draws) == 2)))
    assert all(b >= a - 0.05 for a, b in zip(fracs, fracs[1:]))
    # at temperature 1e-3 the runner-up mass underflows entirely
    assert fracs[-1] == 1.0


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
    cfg = SamplerConfig(mode="greedy", guidance_scale=3.0)
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


def test_sampler_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(top_k=0)
    with pytest.raises(ValidationError):
        SamplerConfig(temperature=-1.0)
    with pytest.raises(ValidationError):
        SamplerConfig(mode="nucleus")
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
        SamplerConfig(mode="greedy", guidance_scale=3.0),
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


@pytest.mark.parametrize("mode,condition", CONDITIONED)
@pytest.mark.parametrize("kind", list(PatternKind), ids=lambda k: k.value)
def test_cached_logits_match_full_prefix_forward(kind, mode, condition):
    """Both stacked branches (the condition and None) give, at every step, the
    logits a full-prefix forward gives; the first call prefills three rows."""
    params = small_model(mode=mode, seed=2, K=4, M=6, L=2)
    pattern = build_pattern(kind, 4, 4)
    grid = random_grid(4, 4, 6, np.random.default_rng(1))
    slots = apply_pattern(pattern, grid).slots[:-1]
    kv = open_cache(params, [condition, None], len(slots))
    chunks = [slice(0, 3)] + [slice(s, s + 1) for s in range(3, len(slots))]
    for chunk in chunks:
        got = forward(params, slots[chunk], cache=kv)
        assert got.shape == (2, chunk.stop - chunk.start, 4, 6)
        for b, cond in enumerate((condition, None)):
            want = forward(params, slots[: chunk.stop], condition=cond)[chunk]
            assert np.abs(got[b] - want).max() <= 1e-12
