import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave.errors import ValidationError
from tokenweave.patterns import (
    Coord,
    InterleavedSequence,
    Pattern,
    PatternKind,
    PatternStep,
    TokenGrid,
    apply_pattern,
    build_pattern,
    format_pattern,
    pattern_from_json,
    pattern_to_json,
    random_grid,
    revert_pattern,
    step_counts,
    validate_pattern,
)

ALL_KINDS = list(PatternKind)
STEREO = {PatternKind.STEREO_DELAY, PatternKind.STEREO_PARTIAL_DELAY}


def steps_as_sets(pattern):
    return [set(map(tuple, step.coords)) for step in pattern.steps]


def test_delay_3x2_layout():
    # direct substitution of the per-codebook shift rule: codebook k delayed
    # by k-1, so step s reveals {(s-k+1, k) : 1 <= s-k+1 <= T}
    p = build_pattern(PatternKind.DELAY, T=3, K=2)
    assert steps_as_sets(p) == [
        set(),
        {(1, 1)},
        {(2, 1), (1, 2)},
        {(3, 1), (2, 2)},
        {(3, 2)},
    ]
    assert p.S == 4


def test_parallel_1500x4_step_count():
    p = build_pattern(PatternKind.PARALLEL, T=1500, K=4)
    assert p.S == 1500


@pytest.mark.parametrize(
    "kind,exact,nominal",
    [
        (PatternKind.PARALLEL, 1500, 1500),
        (PatternKind.DELAY, 1503, 1500),
        (PatternKind.PARTIAL_DELAY, 1501, 1500),
        (PatternKind.FLATTEN, 6000, 6000),
        (PatternKind.PARTIAL_FLATTEN, 3000, 3000),
        (PatternKind.COARSE_FIRST, 3000, 3000),
    ],
)
def test_step_count_table_1500x4(kind, exact, nominal):
    counts = step_counts(build_pattern(kind, T=1500, K=4))
    assert counts.exact == exact
    assert counts.nominal == nominal


def test_stereo_partial_delay_nominal_1500x8():
    counts = step_counts(build_pattern(PatternKind.STEREO_PARTIAL_DELAY, T=1500, K=8))
    assert counts.nominal == 1500
    assert counts.exact == 1500 + 8 // 2 - 1


def test_stereo_delay_exact_count():
    counts = step_counts(build_pattern(PatternKind.STEREO_DELAY, T=10, K=8))
    assert counts.exact == 10 + 8 // 2
    assert counts.nominal == 10


def test_degenerate_1x1_grid_all_kinds_coincide():
    par = build_pattern(PatternKind.PARALLEL, T=1, K=1)
    assert steps_as_sets(par) == [set(), {(1, 1)}]
    for kind in (PatternKind.FLATTEN, PatternKind.DELAY):
        assert steps_as_sets(build_pattern(kind, 1, 1)) == steps_as_sets(par)


def test_stereo_partial_delay_k2_equals_parallel():
    a = build_pattern(PatternKind.STEREO_PARTIAL_DELAY, T=7, K=2)
    b = build_pattern(PatternKind.PARALLEL, T=7, K=2)
    assert steps_as_sets(a) == steps_as_sets(b)


def test_stereo_kind_requires_even_k():
    with pytest.raises(ValidationError, match="even"):
        build_pattern(PatternKind.STEREO_DELAY, T=4, K=3)


@pytest.mark.parametrize("bad_t,bad_k", [(0, 2), (3, 0), (-1, 4)])
def test_invalid_dims_rejected(bad_t, bad_k):
    with pytest.raises(ValidationError):
        build_pattern(PatternKind.PARALLEL, T=bad_t, K=bad_k)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("T,K", [(1, 2), (4, 2), (7, 4), (16, 8)])
def test_every_built_pattern_validates(kind, T, K):
    if kind in STEREO and K % 2:
        pytest.skip("stereo needs even K")
    report = validate_pattern(build_pattern(kind, T, K))
    assert report.ok, report.violations


def test_validate_duplicate_codebook_in_step():
    p = Pattern(
        steps=(
            PatternStep(frozenset()),
            PatternStep(frozenset({Coord(1, 1), Coord(2, 1)})),
            PatternStep(frozenset({Coord(1, 2)})),
            PatternStep(frozenset({Coord(2, 2)})),
        ),
        T=2,
        K=2,
    )
    report = validate_pattern(p)
    assert not report.ok
    assert any("duplicate codebook" in v for v in report.violations)


def test_validate_missing_coordinate():
    p = Pattern(
        steps=(
            PatternStep(frozenset()),
            PatternStep(frozenset({Coord(1, 1), Coord(1, 2)})),
            PatternStep(frozenset({Coord(2, 1)})),
        ),
        T=2,
        K=2,
    )
    report = validate_pattern(p)
    assert not report.ok
    assert any("not a partition" in v for v in report.violations)


def test_validate_non_monotone_stream():
    p = Pattern(
        steps=(
            PatternStep(frozenset()),
            PatternStep(frozenset({Coord(2, 1)})),
            PatternStep(frozenset({Coord(1, 1)})),
        ),
        T=2,
        K=1,
    )
    report = validate_pattern(p)
    assert not report.ok
    assert any("strictly increasing" in v for v in report.violations)


def test_validate_out_of_range_and_nonempty_p0():
    p = Pattern(
        steps=(
            PatternStep(frozenset({Coord(1, 1)})),
            PatternStep(frozenset({Coord(5, 1)})),
        ),
        T=1,
        K=1,
    )
    report = validate_pattern(p)
    assert any("out of range" in v for v in report.violations)
    assert any("step 0" in v for v in report.violations)


def test_apply_parallel_2x2():
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    seq = apply_pattern(build_pattern(PatternKind.PARALLEL, 2, 2), grid)
    assert seq.slots.tolist() == [[0, 0], [5, 7], [6, 8]]


def test_apply_delay_2x2():
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    seq = apply_pattern(build_pattern(PatternKind.DELAY, 2, 2), grid)
    assert seq.slots.tolist() == [[0, 0], [5, 0], [6, 7], [0, 8]]


def test_apply_flatten_1x1():
    grid = TokenGrid(np.array([[9]]), M=9)
    seq = apply_pattern(build_pattern(PatternKind.FLATTEN, 1, 1), grid)
    assert seq.slots.tolist() == [[0], [9]]


def test_apply_dimension_mismatch():
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    with pytest.raises(ValidationError, match="pattern is"):
        apply_pattern(build_pattern(PatternKind.PARALLEL, 3, 2), grid)


def test_roundtrip_delay_3x2():
    rng = np.random.default_rng(0)
    grid = random_grid(3, 2, 16, rng)
    p = build_pattern(PatternKind.DELAY, 3, 2)
    assert np.array_equal(revert_pattern(p, apply_pattern(p, grid)).tokens, grid.tokens)


def test_roundtrip_stereo_delay_10x8():
    rng = np.random.default_rng(1)
    grid = random_grid(10, 8, 32, rng)
    p = build_pattern(PatternKind.STEREO_DELAY, 10, 8)
    assert np.array_equal(revert_pattern(p, apply_pattern(p, grid)).tokens, grid.tokens)


def test_revert_rejects_token_in_absent_slot():
    p = build_pattern(PatternKind.DELAY, 2, 2)
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    slots = apply_pattern(p, grid).slots.copy()
    slots[1, 1] = 3  # delay keeps codebook 2 absent at step 1
    with pytest.raises(ValidationError, match="marks absent"):
        revert_pattern(p, InterleavedSequence(slots=slots, M=8))


def test_revert_rejects_wrong_shape():
    p = build_pattern(PatternKind.PARALLEL, 2, 2)
    with pytest.raises(ValidationError, match="shape"):
        revert_pattern(p, InterleavedSequence(slots=np.zeros((2, 2), dtype=int), M=4))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    T=st.integers(1, 24),
    k_pow=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_roundtrip_property(kind, T, k_pow, seed):
    K = 2**k_pow
    if kind in STEREO and K % 2:
        K = 2
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 65))
    grid = random_grid(T, K, M, rng)
    p = build_pattern(kind, T, K)
    back = revert_pattern(p, apply_pattern(p, grid))
    assert np.array_equal(back.tokens, grid.tokens)
    assert back.M == grid.M


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_and_monotonicity_exhaustive(kind):
    for T, K in [(1, 2), (3, 2), (5, 4), (9, 8)]:
        p = build_pattern(kind, T, K)
        coords = [c for step in p.steps for c in step.coords]
        assert len(coords) == T * K
        assert set(coords) == {Coord(t, k) for t in range(1, T + 1) for k in range(1, K + 1)}
        for step in p.steps:
            ks = [c.k for c in step.coords]
            assert len(ks) == len(set(ks))
        for k in range(1, K + 1):
            ts = [c.t for step in p.steps for c in sorted(step.coords) if c.k == k]
            assert ts == sorted(ts) and len(set(ts)) == len(ts)


def test_grid_rejects_out_of_range_tokens():
    with pytest.raises(ValidationError):
        TokenGrid(np.array([[0, 1]]), M=4)
    with pytest.raises(ValidationError):
        TokenGrid(np.array([[5, 1]]), M=4)
    # slots additionally hold the special token 0, and nothing below it
    with pytest.raises(ValidationError):
        InterleavedSequence(slots=np.array([[-1, 1]]), M=4)
    with pytest.raises(ValidationError):
        InterleavedSequence(slots=np.array([[0, 5]]), M=4)


def test_pattern_json_roundtrip():
    p = build_pattern(PatternKind.DELAY, 4, 3)
    text = pattern_to_json(p)
    doc = json.loads(text)
    assert doc["kind"] == "delay" and doc["T"] == 4 and doc["K"] == 3
    assert doc["steps"][0] == []
    q = pattern_from_json(text)
    assert steps_as_sets(q) == steps_as_sets(p)
    assert q.kind is PatternKind.DELAY
    assert validate_pattern(q).ok


def test_pattern_json_malformed():
    with pytest.raises(ValidationError):
        pattern_from_json("{not json")
    with pytest.raises(ValidationError):
        pattern_from_json(json.dumps({"kind": "delay", "T": 2}))


def test_format_pattern_delay_layout():
    text = format_pattern(build_pattern(PatternKind.DELAY, 3, 2))
    lines = text.splitlines()
    assert lines[1].startswith("k1")
    assert lines[1].split()[1:] == ["1", "2", "3", "."]
    assert lines[2].split()[1:] == [".", "1", "2", "3"]

