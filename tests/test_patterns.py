import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave.errors import ValidationError
from tokenweave.patterns import (
    Pattern,
    PatternKind,
    TokenGrid,
    apply_pattern,
    build_pattern,
    format_pattern,
    pattern_from_json,
    revert_pattern,
    step_counts,
)

from helpers import pattern_to_json, random_grid

ALL_KINDS = list(PatternKind)
STEREO = {PatternKind.STEREO_DELAY, PatternKind.STEREO_PARTIAL_DELAY}


def steps_as_sets(pattern):
    """The pattern's steps as sets of 1-based (t, k), read off its table."""
    sets = [set() for _ in range(pattern.S + 1)]
    for (t, k), s in np.ndenumerate(pattern.step):
        sets[s].add((t + 1, k + 1))
    return sets


def pattern_doc(T, K, *steps):
    """A custom pattern document: step 0 empty, then the given (t, k) lists."""
    return json.dumps({"kind": None, "T": T, "K": K, "steps": [[]] + [list(s) for s in steps]})


def reference_steps(kind, T, K):
    """The coordinate-set construction the step tables replaced: one set of
    1-based (t, k) per step, step 0 empty and empty steps dropped."""
    if kind is PatternKind.FLATTEN:
        raw = [{(t, k)} for t in range(1, T + 1) for k in range(1, K + 1)]
    elif kind is PatternKind.PARTIAL_FLATTEN:
        raw = []
        for t in range(1, T + 1):
            raw.append({(t, 1)})
            raw.append({(t, k) for k in range(2, K + 1)})
    elif kind is PatternKind.COARSE_FIRST:
        raw = [{(t, 1)} for t in range(1, T + 1)]
        raw += [{(t, k) for k in range(2, K + 1)} for t in range(1, T + 1)]
    else:
        ks = range(1, K + 1)
        delays = {
            PatternKind.PARALLEL: [0] * K,
            PatternKind.DELAY: [k - 1 for k in ks],
            PatternKind.PARTIAL_DELAY: [0] + [1] * (K - 1),
            PatternKind.STEREO_PARTIAL_DELAY: [(k + 1) // 2 - 1 for k in ks],
            PatternKind.STEREO_DELAY: [(k + 1) // 2 - 1 if k % 2 else (k + 1) // 2 for k in ks],
        }[kind]
        raw = [
            {(s - d, k + 1) for k, d in enumerate(delays) if 1 <= s - d <= T}
            for s in range(1, T + max(delays) + 1)
        ]
    return [set()] + [c for c in raw if c]


def reference_format(steps, T, K):
    """format_pattern as written over coordinate sets."""
    cells = {(k, s): t for s, step in enumerate(steps) for t, k in step}
    width = max(2, len(str(T)))
    lines = ["step".ljust(6) + " ".join(f"s{s}".rjust(width) for s in range(1, len(steps)))]
    for k in range(1, K + 1):
        row = [str(cells.get((k, s), ".")).rjust(width) for s in range(1, len(steps))]
        lines.append(f"k{k}".ljust(6) + " ".join(row))
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_tables_match_the_coordinate_set_construction(kind):
    rng = np.random.default_rng(0)
    for T in (1, 2, 3, 7, 16):
        for K in (1, 2, 3, 4, 8):
            if kind in STEREO and K % 2:
                continue
            p = build_pattern(kind, T, K)
            steps = reference_steps(kind, T, K)
            table = np.zeros((T, K), dtype=np.int64)
            for s, step in enumerate(steps):
                for t, k in step:
                    table[t - 1, k - 1] = s
            assert np.array_equal(p.step, table) and p.S == len(steps) - 1
            grid = random_grid(T, K, 9, rng)
            slots = np.zeros((len(steps), K), dtype=np.int64)
            for s, step in enumerate(steps):
                for t, k in step:
                    slots[s, k - 1] = grid.tokens[t - 1, k - 1]
            assert np.array_equal(apply_pattern(p, grid), slots)
            assert format_pattern(p) == reference_format(steps, T, K)
            listed = [sorted(map(list, step)) for step in steps]
            doc = {"kind": kind.value, "T": T, "K": K, "steps": listed}
            assert pattern_to_json(p).encode() == json.dumps(doc).encode()


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
    # one codebook leaves no tail to round away, and a nominal count never exceeds S
    assert step_counts(build_pattern(kind, T=10, K=1)) == (10, 10)


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
    p = build_pattern(kind, T, K)
    # the table's checks run again on a copy, and the document's on its JSON
    assert np.array_equal(Pattern(step=p.step.copy()).step, p.step)
    assert np.array_equal(pattern_from_json(pattern_to_json(p)).step, p.step)


def test_validate_duplicate_codebook_in_step():
    doc = pattern_doc(2, 2, [(1, 1), (2, 1)], [(1, 2)], [(2, 2)])
    with pytest.raises(ValidationError, match="duplicate codebook"):
        pattern_from_json(doc)


def test_validate_missing_coordinate():
    doc = pattern_doc(2, 2, [(1, 1), (1, 2)], [(2, 1)])
    with pytest.raises(ValidationError, match="not a partition"):
        pattern_from_json(doc)
    # a document naming a huge grid is counted, not laid out as a table
    with pytest.raises(ValidationError, match="999999999999 coordinate"):
        pattern_from_json(pattern_doc(10**6, 10**6, [(1, 1)]))


def test_validate_non_monotone_stream():
    doc = pattern_doc(2, 1, [(2, 1)], [(1, 1)])
    with pytest.raises(ValidationError, match="strictly increasing"):
        pattern_from_json(doc)


def test_validate_out_of_range_and_nonempty_p0():
    doc = json.dumps({"kind": None, "T": 1, "K": 1, "steps": [[[1, 1]], [[5, 1]]]})
    with pytest.raises(ValidationError) as info:
        pattern_from_json(doc)
    assert "out of range" in str(info.value)
    assert "step 0" in str(info.value)


def test_apply_parallel_2x2():
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    slots = apply_pattern(build_pattern(PatternKind.PARALLEL, 2, 2), grid)
    assert slots.tolist() == [[0, 0], [5, 7], [6, 8]]


def test_apply_delay_2x2():
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    slots = apply_pattern(build_pattern(PatternKind.DELAY, 2, 2), grid)
    assert slots.tolist() == [[0, 0], [5, 0], [6, 7], [0, 8]]


def test_apply_flatten_1x1():
    grid = TokenGrid(np.array([[9]]), M=9)
    slots = apply_pattern(build_pattern(PatternKind.FLATTEN, 1, 1), grid)
    assert slots.tolist() == [[0], [9]]


def test_apply_dimension_mismatch():
    grid = TokenGrid(np.array([[1, 2], [3, 4]]), M=4)
    with pytest.raises(ValidationError, match="pattern is"):
        apply_pattern(build_pattern(PatternKind.PARALLEL, 3, 2), grid)


def test_roundtrip_delay_3x2():
    rng = np.random.default_rng(0)
    grid = random_grid(3, 2, 16, rng)
    p = build_pattern(PatternKind.DELAY, 3, 2)
    assert np.array_equal(revert_pattern(p, apply_pattern(p, grid), grid.M).tokens, grid.tokens)


def test_roundtrip_stereo_delay_10x8():
    rng = np.random.default_rng(1)
    grid = random_grid(10, 8, 32, rng)
    p = build_pattern(PatternKind.STEREO_DELAY, 10, 8)
    assert np.array_equal(revert_pattern(p, apply_pattern(p, grid), grid.M).tokens, grid.tokens)


def test_revert_rejects_token_in_absent_slot():
    p = build_pattern(PatternKind.DELAY, 2, 2)
    grid = TokenGrid(np.array([[5, 7], [6, 8]]), M=8)
    for stray in (3, -1):
        slots = apply_pattern(p, grid)
        slots[1, 1] = stray  # delay keeps codebook 2 absent at step 1
        with pytest.raises(ValidationError, match="marks absent"):
            revert_pattern(p, slots, 8)


def test_revert_rejects_wrong_shape():
    p = build_pattern(PatternKind.PARALLEL, 2, 2)
    with pytest.raises(ValidationError, match="shape"):
        revert_pattern(p, np.zeros((2, 2), dtype=int), 4)


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
    back = revert_pattern(p, apply_pattern(p, grid), grid.M)
    assert np.array_equal(back.tokens, grid.tokens)
    assert back.M == grid.M


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_partition_and_monotonicity_exhaustive(kind):
    for T, K in [(1, 2), (3, 2), (5, 4), (9, 8)]:
        steps = steps_as_sets(build_pattern(kind, T, K))
        coords = [c for step in steps for c in step]
        assert len(coords) == T * K
        assert set(coords) == {(t, k) for t in range(1, T + 1) for k in range(1, K + 1)}
        assert not steps[0] and all(steps[1:])
        for step in steps:
            ks = [k for _, k in step]
            assert len(ks) == len(set(ks))
        for k in range(1, K + 1):
            ts = [t for step in steps for t, kk in sorted(step) if kk == k]
            assert ts == sorted(ts) and len(set(ts)) == len(ts)


def test_grid_rejects_out_of_range_tokens():
    with pytest.raises(ValidationError):
        TokenGrid(np.array([[0, 1]]), M=4)
    with pytest.raises(ValidationError):
        TokenGrid(np.array([[5, 1]]), M=4)
    # the slots a pattern reveals become grid tokens, so the same range holds there
    p = build_pattern(PatternKind.DELAY, 1, 2)
    for bad in (0, 5):
        with pytest.raises(ValidationError, match=r"1\.\.4"):
            revert_pattern(p, np.array([[0, 0], [bad, 0], [0, 1]]), 4)


def test_empty_step_table_and_vocabulary_are_rejected():
    for shape in ((0, 2), (2, 0)):
        with pytest.raises(ValidationError, match=r"T, K >= 1, got shape \(\d, \d\)"):
            Pattern(step=np.ones(shape, dtype=np.int64))
    with pytest.raises(ValidationError, match="M must be >= 1"):
        TokenGrid(np.ones((1, 1), dtype=np.int64), M=0)


def test_pattern_json_roundtrip():
    p = build_pattern(PatternKind.DELAY, 4, 3)
    text = pattern_to_json(p)
    doc = json.loads(text)
    assert doc["kind"] == "delay" and doc["T"] == 4 and doc["K"] == 3
    assert doc["steps"][0] == []
    q = pattern_from_json(text)
    assert steps_as_sets(q) == steps_as_sets(p)
    assert q.kind is PatternKind.DELAY
    assert np.array_equal(q.step, p.step)


def test_pattern_json_malformed():
    with pytest.raises(ValidationError):
        pattern_from_json("{not json")
    with pytest.raises(ValidationError):
        pattern_from_json(json.dumps({"kind": "delay", "T": 2}))
    for T, K in ((0, 2), (2, -1)):
        with pytest.raises(ValidationError, match="grid is"):
            pattern_from_json(pattern_doc(T, K))


@pytest.mark.parametrize("T,K,steps,match", [
    (2.5, 1, [[], [[1, 1]], [[2, 1]]], "integers"),
    (2.0, 1, [[], [[1, 1]], [[2, 1]]], "integers"),
    ("2", 1, [[], [[1, 1]], [[2, 1]]], "integers"),
    (2, True, [[], [[1, 1]], [[2, 1]]], "integers"),
    (2, 1, [[], [[1, 1]], [[2.0, 1]]], "integers"),
    (2, 1, [[], [["1", 1]], [[2, 1]]], "integers"),
    (2, 1, [[], [[1, 1]], [[2, 1]], []], "nothing is revealed at step 3$"),
    (2, 1, [[], [[1, 1]], [[2, 1]], [], []], "nothing is revealed at steps 3-4$"),
])
def test_pattern_json_needs_integers_and_no_trailing_empty_step(T, K, steps, match):
    with pytest.raises(ValidationError, match=match):
        pattern_from_json(json.dumps({"kind": None, "T": T, "K": K, "steps": steps}))


def test_format_pattern_delay_layout():
    text = format_pattern(build_pattern(PatternKind.DELAY, 3, 2))
    lines = text.splitlines()
    assert lines[1].startswith("k1")
    assert lines[1].split()[1:] == ["1", "2", "3", "."]
    assert lines[2].split()[1:] == [".", "1", "2", "3"]

