import functools
import gc
import itertools
import json

import numpy as np
import pytest

from helpers import pattern_to_json
from tokenweave import oracle
from tokenweave.errors import GuardError, ValidationError
from tokenweave.oracle import (
    ExactnessRow,
    JointDistribution,
    exactness_report,
    induced_distribution,
    make_joint,
    tv_distance,
)
from tokenweave.patterns import STEREO_KINDS, PatternKind, build_pattern, pattern_from_json
from tokenweave.rvq import RVQConfig, rvq_encode, train_codebooks

FAMILIES = ("product", "diagonal", "markov_residual")


def _marginal(table, keep_axes):
    """Sum out every axis not in keep_axes; summed axes stay with length 1,
    so the result broadcasts against the table."""
    keep = set(keep_axes)
    return table.sum(axis=tuple(a for a in range(table.ndim) if a not in keep), keepdims=True)


def true_conditional(joint, revealed, targets):
    """Reference: the exact joint conditional over the target positions
    ((t, k) pairs), given revealed {(t, k): token}, marginalizing all other
    unrevealed positions. Shape is (M,)*len(targets), 0-based token axes
    ordered as the targets were given; a zero-probability reveal is an error."""
    if not targets:
        raise ValidationError("need at least one target position")

    def axis(t, k):
        if not (1 <= t <= joint.T and 1 <= k <= joint.K):
            raise ValidationError(f"coordinate {(t, k)} out of range for a {joint.T}x{joint.K}")
        return (t - 1) * joint.K + (k - 1)

    rev_axes, rev_vals = [], []
    for coord, token in revealed.items():
        if not 1 <= token <= joint.M:
            raise ValidationError(f"revealed token {token} out of range 1..{joint.M}")
        rev_axes.append(axis(*coord))
        rev_vals.append(token - 1)
    tgt_axes = [axis(*c) for c in targets]
    if len(set(tgt_axes)) != len(tgt_axes):
        raise ValidationError("target positions must be distinct")
    if set(tgt_axes) & set(rev_axes):
        raise ValidationError("revealed and target positions must be disjoint")

    table = joint.table()
    idx: list[slice] = [slice(None)] * table.ndim
    for a, v in zip(rev_axes, rev_vals):
        idx[a] = slice(v, v + 1)
    # the kept axes come out in ascending order; reorder them as given
    marg = _marginal(table[tuple(idx)], tgt_axes).reshape((joint.M,) * len(tgt_axes))
    marg = np.transpose(marg, [sorted(tgt_axes).index(a) for a in tgt_axes])
    total = marg.sum()
    if total <= 0.0:
        raise ValidationError("revealed assignment has probability zero under the joint")
    return marg / total


def brute_induced_table(joint, pattern):
    """Independent oracle: per complete grid, multiply the per-position
    conditionals along the pattern walk, marginalizing by direct scans of the
    flat table (uniform fallback on zero-probability prefixes)."""
    M, N = joint.M, joint.T * joint.K
    flat = joint.probs

    def axis(t, k):
        return (t - 1) * joint.K + (k - 1)

    def outcome_digits(idx):
        digits = []
        for _ in range(N):
            digits.append(idx % M)
            idx //= M
        return digits[::-1]

    all_digits = [outcome_digits(i) for i in range(M**N)]

    def conditional(prefix, a):
        # prefix: dict axis -> 0-based value
        num = np.zeros(M)
        for i, digits in enumerate(all_digits):
            if all(digits[ax] == v for ax, v in prefix.items()):
                num[digits[a]] += flat[i]
        total = num.sum()
        if total <= 0:
            return np.full(M, 1.0 / M)
        return num / total

    out = np.zeros(M**N)
    for i, digits in enumerate(all_digits):
        prob = 1.0
        prefix = {}
        for s in range(1, pattern.S + 1):
            # the 1-based (t, k) step s reveals
            axes = sorted(axis(t, k) for t, k in np.argwhere(pattern.step == s) + 1)
            for a in axes:
                prob *= conditional(prefix, a)[digits[a]]
            for a in axes:
                prefix[a] = digits[a]
        out[i] = prob
    return out


def test_diagonal_1x2x2_table():
    joint = make_joint("diagonal", T=1, K=2, M=2)
    # outcomes indexed by ((1,1),(1,2)) digits: equal-token grids carry 0.5
    assert joint.probs.tolist() == [0.5, 0.0, 0.0, 0.5]


def test_product_uniform_marginals_and_independence():
    joint = make_joint("product", T=2, K=2, M=3)
    for t, k in itertools.product((1, 2), (1, 2)):
        marg = true_conditional(joint, {}, [(t, k)])
        assert np.allclose(marg, 1.0 / 3.0)
    # conditioning changes nothing: zero mutual information
    cond = true_conditional(joint, {(1, 1): 2}, [(2, 2)])
    assert np.allclose(cond, 1.0 / 3.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_families_sum_to_one(family):
    joint = make_joint(family, T=2, K=2, M=2, seed=3)
    assert abs(joint.probs.sum() - 1.0) <= 1e-12
    assert joint.probs.min() >= 0.0


def test_markov_residual_deterministic_and_correlated():
    a = make_joint("markov_residual", T=2, K=2, M=2, seed=0)
    b = make_joint("markov_residual", T=2, K=2, M=2, seed=0)
    assert np.array_equal(a.probs, b.probs)
    # within-timestep streams must be dependent, else the family tests nothing
    p11 = true_conditional(a, {}, [(1, 1)])
    joint_row = true_conditional(a, {}, [(1, 1), (1, 2)])
    p12 = true_conditional(a, {}, [(1, 2)])
    assert not np.allclose(joint_row, np.outer(p11, p12), atol=1e-6)


def test_true_conditional_point_mass_on_diagonal():
    joint = make_joint("diagonal", T=1, K=2, M=3)
    for a in (1, 2, 3):
        cond = true_conditional(joint, {(1, 1): a}, [(1, 2)])
        expected = np.zeros(3)
        expected[a - 1] = 1.0
        assert np.allclose(cond, expected)


def test_true_conditional_sums_to_one_random_queries():
    joint = make_joint("markov_residual", T=2, K=2, M=3, seed=1)
    rng = np.random.default_rng(0)
    coords = [(t, k) for t in (1, 2) for k in (1, 2)]
    for _ in range(25):
        rng.shuffle(coords)
        n_rev = int(rng.integers(0, 3))
        revealed = {}
        for c in coords[:n_rev]:
            marg = true_conditional(joint, revealed, [c])
            support = np.flatnonzero(marg > 0)
            revealed[c] = int(support[0]) + 1
        targets = coords[n_rev : n_rev + 2]
        cond = true_conditional(joint, revealed, targets)
        assert cond.shape == (3, 3)
        assert abs(cond.sum() - 1.0) <= 1e-12


def test_true_conditional_target_order():
    joint = make_joint("markov_residual", T=2, K=1, M=3, seed=2)
    ab = true_conditional(joint, {}, [(1, 1), (2, 1)])
    ba = true_conditional(joint, {}, [(2, 1), (1, 1)])
    assert np.allclose(ab, ba.T)


def test_true_conditional_zero_probability_reveal_errors():
    joint = make_joint("diagonal", T=2, K=2, M=2)
    # an off-diagonal timestep never occurs under the diagonal family
    with pytest.raises(ValidationError, match="probability zero"):
        true_conditional(joint, {(1, 1): 1, (1, 2): 2}, [(2, 1)])


def test_true_conditional_disjointness_checks():
    joint = make_joint("product", T=1, K=2, M=2)
    with pytest.raises(ValidationError):
        true_conditional(joint, {(1, 1): 1}, [(1, 1)])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("T,M", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_flatten_is_exact_on_every_family(family, T, M):
    joint = make_joint(family, T=T, K=2, M=M, seed=5)
    induced = induced_distribution(joint, build_pattern(PatternKind.FLATTEN, T, 2))
    assert tv_distance(joint, induced) <= 1e-12


def test_parallel_on_product_is_exact():
    joint = make_joint("product", T=2, K=2, M=3)
    induced = induced_distribution(joint, build_pattern(PatternKind.PARALLEL, 2, 2))
    assert tv_distance(joint, induced) <= 1e-12


def test_parallel_on_diagonal_1x2x2_tv_half():
    # hand computation: true law puts 0.5 on each equal-token outcome; the
    # within-step-independent sampler is uniform on all 4, so TV = 0.5
    joint = make_joint("diagonal", T=1, K=2, M=2)
    induced = induced_distribution(joint, build_pattern(PatternKind.PARALLEL, 1, 2))
    assert np.allclose(induced.probs, 0.25)
    assert abs(tv_distance(joint, induced) - 0.5) <= 1e-12


def test_parallel_on_diagonal_2x2x2_tv_three_quarters():
    # hand computation under the uniform fallback on zero-probability prefixes:
    # the induced law is uniform over all 16 grids, the true law holds 4 at
    # 0.25, so TV = 0.5 * (4*(0.25-0.0625) + 12*0.0625) = 0.75
    joint = make_joint("diagonal", T=2, K=2, M=2)
    induced = induced_distribution(joint, build_pattern(PatternKind.PARALLEL, 2, 2))
    assert np.allclose(induced.probs, 1.0 / 16.0)
    assert abs(tv_distance(joint, induced) - 0.75) <= 1e-12


def test_delay_on_diagonal_2x2x2_is_exact():
    # codebook 2 trails codebook 1 by one step, so the within-timestep
    # dependence is fully conditioned on; hand computation gives TV = 0
    joint = make_joint("diagonal", T=2, K=2, M=2)
    induced = induced_distribution(joint, build_pattern(PatternKind.DELAY, 2, 2))
    assert tv_distance(joint, induced) <= 1e-12


def test_delay_degenerates_to_sequential_at_T1():
    joint = make_joint("diagonal", T=1, K=2, M=2)
    induced = induced_distribution(joint, build_pattern(PatternKind.DELAY, 1, 2))
    assert tv_distance(joint, induced) <= 1e-12


@pytest.mark.parametrize("kind", list(PatternKind))
@pytest.mark.parametrize("family", FAMILIES)
def test_induced_matches_independent_enumerator(family, kind):
    # M = 3 checks the fallback where 1/M differs from 1/2: parallel and the
    # other within-step products reach zero-probability prefixes on the
    # diagonal and markov_residual families
    T, K = (1, 4) if kind in STEREO_KINDS else (2, 2)
    pattern = build_pattern(kind, T, K)
    for M in (2, 3):
        joint = make_joint(family, T=T, K=K, M=M, seed=7)
        fast = induced_distribution(joint, pattern).probs
        slow = brute_induced_table(joint, pattern)
        assert np.allclose(fast, slow, atol=1e-12), M


def whole_table_induced(joint, pattern):
    """The induced law with every factor a ratio of two whole-table marginals
    in the row-major layout, multiplied into a full-size law step by step."""
    table = joint.table()
    law = np.ones_like(table)
    revealed = []
    for s in range(1, pattern.S + 1):
        axes = np.flatnonzero(pattern.step.ravel() == s).tolist()
        prefix = _marginal(table, revealed)
        for a in axes:
            both = _marginal(table, revealed + [a])
            fallback = np.full(both.shape, 1.0 / joint.M)
            law *= np.divide(both, prefix, out=fallback, where=prefix > 0.0)
        revealed += axes
    return law.reshape(-1)


@functools.cache
def sweep_joints():
    """(family, T, K, M, seed, joint, kinds) of every joint with at most 65,536
    entries, two seeds for markov_residual, with each kind legal at its K."""
    cases = []
    for family in FAMILIES:
        for T, K, M in itertools.product(range(1, 5), repeat=3):
            if M ** (T * K) > 65536:
                continue
            kinds = tuple(kind for kind in PatternKind if not (kind in STEREO_KINDS and K % 2))
            for seed in (0, 1) if family == "markov_residual" else (0,):
                cases.append((family, T, K, M, seed, make_joint(family, T, K, M, seed=seed), kinds))
    return tuple(cases)


def test_reveal_order_law_matches_whole_table_marginals():
    # the two routes add the same terms in a different order, so they agree
    # to rounding, not bitwise
    cases = 0
    for family, T, K, M, seed, joint, kinds in sweep_joints():
        for kind in kinds:
            pattern = build_pattern(kind, T, K)
            want = whole_table_induced(joint, pattern)
            got = induced_distribution(joint, pattern).probs
            case = (family, T, K, M, seed, kind.value)
            assert np.abs(got - want).max() <= 1e-15, case
            assert np.array_equal(got > 0.0, want > 0.0), case
            tv = tv_distance(joint, JointDistribution(T=T, K=K, M=M, probs=got))
            want_law = JointDistribution(T=T, K=K, M=M, probs=want)
            assert abs(tv - tv_distance(joint, want_law)) <= 1e-14, case
            if kind is PatternKind.FLATTEN:
                assert tv <= 1e-12, case
            cases += 1
    assert cases == 1592


def as_custom(pattern):
    """The pattern read back from its document with no kind: a custom pattern
    whose step table equals the built-in's."""
    doc = json.loads(pattern_to_json(pattern))
    return pattern_from_json(json.dumps({**doc, "kind": None}))


def takes_support_path(joint):
    """Whether exactness_report builds each law at P's support only."""
    return np.count_nonzero(joint.probs) * joint.n_positions <= joint.probs.size


def plain_law(joint, pattern):
    """The law exactness_report builds on the table path: the walk over
    whole-table marginals with a plain divide, 0/0 off P's support."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return oracle._law(pattern, oracle._table_marginals(joint))


def support_law(joint, pattern):
    """The law exactness_report builds on the support path, at P's support."""
    support = np.flatnonzero(joint.probs)
    coords = np.stack(np.unravel_index(support, (joint.M,) * joint.n_positions))
    return oracle._law(pattern, oracle._support_marginals(joint.probs[support], coords, joint.M))


def spy_sources(monkeypatch):
    """Wrap both sources of marginals. Returns the list of sources built, each
    as (name, reads), reads being the (position set, marginal) pairs its at
    returned in order."""
    built = []
    for name in ("_support_marginals", "_table_marginals"):

        def spied(*args, _source=getattr(oracle, name), _name=name):
            at, reads = _source(*args), []
            built.append((_name, reads))
            return lambda positions: reads.append((positions, at(positions))) or reads[-1][1]

        monkeypatch.setattr(oracle, name, spied)
    return built


def test_exactness_report_rows_equal_per_pattern_laws_bitwise():
    # patterns share one source of marginals inside the report; each row must
    # still carry the TV of that pattern's own law, bit for bit where the
    # table path runs and within 1e-14 where the support path sums its
    # marginals in another order, whatever order the patterns come in. On P's
    # support the walk with the 1/M fill at every step (induced_distribution)
    # must equal the report's plain divide bit for bit
    rng = np.random.default_rng(3)
    for family, T, K, M, seed, joint, kinds in sweep_joints():
        patterns = [build_pattern(kind, T, K) for kind in kinds]
        repeat, copy = rng.integers(len(patterns), size=2)
        patterns += [patterns[repeat], as_custom(patterns[copy])]
        rng.shuffle(patterns)
        rows = exactness_report(joint, patterns)
        assert [r.kind for r in rows] == [p.kind.value if p.kind else "custom" for p in patterns]
        support = np.flatnonzero(joint.probs)
        for pattern, row in zip(patterns, rows):
            law = induced_distribution(joint, pattern)
            case = (family, T, K, M, seed, row.kind)
            assert law.probs[support].tobytes() == plain_law(joint, pattern)[support].tobytes(), case
            if not takes_support_path(joint):
                on_support = np.maximum(joint.probs[support] - law.probs[support], 0.0).sum()
                assert row.tv.hex() == float(on_support).hex(), case
            assert abs(row.tv - tv_distance(joint, law)) <= 1e-14, case


def check_marginals_shared_without_leaks(monkeypatch, sparse):
    """Over the sweep joints whose report takes the given path: one source of
    marginals serves the whole report and returns one array per position set,
    and each row equals, bit for bit, the row of a report of its pattern
    alone. Returns the number of joints checked."""
    built = spy_sources(monkeypatch)
    rng = np.random.default_rng(4)
    cases = 0
    for family, T, K, M, seed, joint, kinds in sweep_joints():
        if takes_support_path(joint) != sparse:
            continue
        patterns = [build_pattern(kind, T, K) for kind in kinds]
        repeat, copy = rng.integers(len(patterns), size=2)
        patterns += [patterns[repeat], as_custom(patterns[copy])]
        rng.shuffle(patterns)
        built.clear()
        rows = exactness_report(joint, patterns)
        case = (family, T, K, M, seed)
        ((name, reads),) = built
        assert name == ("_support_marginals" if sparse else "_table_marginals"), case
        first = {}
        assert reads and all(first.setdefault(a, m) is m for a, m in reads), case
        for pattern, row in zip(patterns, rows):
            (alone,) = exactness_report(joint, [pattern])
            assert row.tv.hex() == alone.tv.hex(), (*case, row.kind)
        cases += 1
    return cases


def test_sparse_report_shares_marginals_without_leaking_between_patterns(monkeypatch):
    assert check_marginals_shared_without_leaks(monkeypatch, sparse=True) == 73


def test_dense_report_shares_marginals_without_leaking_between_patterns(monkeypatch):
    # whole-table marginals are shared across reveal orders, so a marginal
    # summed for one pattern must carry the same bits it would for another
    assert check_marginals_shared_without_leaks(monkeypatch, sparse=False) == 155


def test_gathered_law_equals_whole_table_on_support_bitwise():
    # the support path sums each marginal over the support grids in index
    # order and the whole table over its axes, so the two agree to rounding,
    # not bitwise, with the same positive entries
    for family, T, K, M, seed, joint, kinds in sweep_joints():
        support = np.flatnonzero(joint.probs)
        for kind in kinds:
            pattern = build_pattern(kind, T, K)
            got = support_law(joint, pattern)
            want = induced_distribution(joint, pattern).probs[support]
            case = (family, T, K, M, seed, kind.value)
            assert np.abs(got - want).max() <= 1e-15, case
            assert np.array_equal(got > 0.0, want > 0.0), case


def test_support_marginals_group_grids_by_their_tokens_bitwise(monkeypatch):
    # a support marginal groups P's grids by their tokens at A. Its key grows
    # from its parent set's, and every marginal a report reads, the empty set
    # included, must equal a bincount over the grids' own distinct token rows,
    # which sums each group in the same support order
    built = spy_sources(monkeypatch)
    joints = sets = 0
    for family, T, K, M, seed, joint, kinds in sweep_joints():
        if not takes_support_path(joint):
            continue
        built.clear()
        exactness_report(joint, [build_pattern(kind, T, K) for kind in kinds])
        ((name, reads),) = built
        assert name == "_support_marginals"
        support = np.flatnonzero(joint.probs)
        coords = np.stack(np.unravel_index(support, (M,) * joint.n_positions))
        read = dict(reads)
        assert 0 in read
        for positions, marginal in read.items():
            axes = [a for a in range(joint.n_positions) if positions >> a & 1]
            _, inverse = np.unique(coords[axes].T, axis=0, return_inverse=True)
            want = np.bincount(inverse, weights=joint.probs[support]).take(inverse)
            assert marginal.tobytes() == want.tobytes(), (family, T, K, M, seed, positions)
        joints, sets = joints + 1, sets + len(read)
    assert (joints, sets) == (73, 1174)


@pytest.mark.parametrize("kept,sparse", [(0.02, True), (0.5, False)])
def test_exactness_report_path_follows_support_size(monkeypatch, kept, sparse):
    # a (2,4,3) joint with all but a share of its grids zeroed: 2% of them
    # times T*K = 8 stays under the 6,561 entries, half of them does not
    T, K, M = 2, 4, 3
    rng = np.random.default_rng(5)
    probs = rng.random(M ** (T * K)) * (rng.random(M ** (T * K)) < kept)
    joint = JointDistribution(T=T, K=K, M=M, probs=probs / probs.sum())
    built, walked, law = spy_sources(monkeypatch), [], oracle._law
    monkeypatch.setattr(oracle, "_law", lambda pattern, *args: walked.append(pattern) or law(pattern, *args))
    patterns = [build_pattern(kind, T, K) for kind in PatternKind]
    rows = exactness_report(joint, patterns)
    assert [name for name, _ in built] == ["_support_marginals" if sparse else "_table_marginals"]
    assert len(walked) == len(patterns) and all(a is b for a, b in zip(walked, patterns))
    monkeypatch.undo()
    support = np.flatnonzero(probs)
    for pattern, row in zip(patterns, rows):
        law = induced_distribution(joint, pattern)
        if not sparse:
            on_support = np.maximum(joint.probs[support] - law.probs[support], 0.0).sum()
            assert row.tv.hex() == float(on_support).hex(), row.kind
        assert abs(row.tv - tv_distance(joint, law)) <= 1e-14, row.kind


CORRUPTIONS = {
    "sum to": lambda q: q * 1.01,
    "finite": lambda q: np.where(q == q.max(), np.nan, q),
    ">= 0": lambda q: np.where(q == q.max(), -q, q),
}


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("message", list(CORRUPTIONS))
def test_exactness_report_checks_each_law(monkeypatch, sparse, message):
    # the report holds each law as a bare array, built at the support on the
    # sparse markov joint and whole on the dense product joint; it checks it
    # as a JointDistribution would
    joint = make_joint("markov_residual" if sparse else "product", 2, 4, 3)
    assert takes_support_path(joint) == sparse
    law = oracle._law
    monkeypatch.setattr(oracle, "_law", lambda *args: CORRUPTIONS[message](law(*args)))
    with pytest.raises(ValidationError, match=message):
        exactness_report(joint, [build_pattern(PatternKind.DELAY, 2, 4)])


@pytest.mark.parametrize("family", ["markov_residual", "product"])
@pytest.mark.parametrize("T,K", [(3, 4), (2, 2)])
def test_exactness_report_rejects_a_pattern_of_another_shape(monkeypatch, family, T, K):
    # on both paths, before any marginal of the joint is read
    joint = make_joint(family, 2, 4, 3)
    assert takes_support_path(joint) == (family == "markov_residual")
    built = spy_sources(monkeypatch)
    monkeypatch.setattr(oracle, "_law", lambda *args: pytest.fail("law walked"))
    with pytest.raises(ValidationError, match=f"pattern is {T}x{K} but joint is 2x4"):
        exactness_report(joint, [build_pattern(PatternKind.DELAY, T, K)])
    assert [reads for _, reads in built] == [[]]


def test_point_mass_joint_is_exact_for_every_kind():
    T, K, M = 2, 4, 3
    probs = np.zeros(M ** (T * K))
    probs[1234] = 1.0
    joint = JointDistribution(T=T, K=K, M=M, probs=probs)
    assert takes_support_path(joint)
    rows = exactness_report(joint, [build_pattern(kind, T, K) for kind in PatternKind])
    assert [row.tv for row in rows] == [0.0] * len(PatternKind)


@pytest.mark.parametrize("T,K", [(2, 4), (3, 4), (2, 2)])
def test_exactness_report_sums_each_position_set_once(monkeypatch, T, K):
    # the dense product joint takes the table path. Its patterns share
    # marginals across reveal orders: each position set is summed at most once
    # per report, and only out of the set with its lowest missing position
    # added, so its bits depend on the set alone
    N, M = T * K, 2
    full = (1 << N) - 1
    joint = make_joint("product", T, K, M)
    patterns = [build_pattern(kind, T, K) for kind in PatternKind]
    patterns += [as_custom(patterns[0]), build_pattern(PatternKind.DELAY, T, K)]
    sums = []

    def kept(shape):  # the position set a table marginal keeps: a on axis N-1-a
        return sum(1 << N - 1 - axis for axis, n in enumerate(shape) if n == M)

    class Summed(np.ndarray):
        def sum(self, *args, **kwargs):
            out = super().sum(*args, **kwargs)
            if "axis" in kwargs:  # a marginal, not the report's sum of a law
                sums.append((kept(self.shape), kept(out.shape)))
            return out

    contiguous = np.ascontiguousarray
    monkeypatch.setattr(np, "ascontiguousarray", lambda a: contiguous(a).view(Summed))
    built = spy_sources(monkeypatch)
    rows = exactness_report(joint, patterns)
    monkeypatch.undo()
    summed = [subset for _, subset in sums]
    assert len(rows) == len(patterns) and len(set(summed)) == len(summed)
    for superset, subset in sums:
        missing = full & ~subset
        assert superset == subset | missing & -missing
    ((name, reads),) = built
    assert name == "_table_marginals" and {a for a, _ in reads} <= {*summed, full}


def test_reports_leave_no_reference_cycles():
    # a source of marginals that reached itself through its closure would
    # hold every marginal it cached until the cyclic collector ran
    joints = [make_joint(family, 2, 4, M) for family, M in (("markov_residual", 3), ("product", 2))]
    patterns = [build_pattern(kind, 2, 4) for kind in PatternKind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for joint in joints:
            exactness_report(joint, patterns)
        induced_distribution(joints[0], patterns[1])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", [PatternKind.PARALLEL, PatternKind.DELAY, PatternKind.FLATTEN])
def test_induced_mass_conservation(family, kind):
    joint = make_joint(family, T=2, K=2, M=3, seed=2)
    induced = induced_distribution(joint, build_pattern(kind, 2, 2))
    assert abs(induced.probs.sum() - 1.0) <= 1e-12


def test_tv_distance_metric_properties():
    def law(probs):  # binary tokens at log2(len(probs)) positions
        return JointDistribution(T=1, K=len(probs).bit_length() - 1, M=2, probs=np.array(probs))

    assert tv_distance(law([0.5, 0.5]), law([0.5, 0.5])) == 0.0
    assert tv_distance(law([1.0, 0.0]), law([0.0, 1.0])) == 1.0
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q, r = (law(rng.dirichlet(np.ones(8))) for _ in range(3))
        assert abs(tv_distance(p, q) - tv_distance(q, p)) <= 1e-15
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-15


def test_tv_distance_rejects_mismatched_spaces():
    a = make_joint("product", T=1, K=2, M=2)
    b = make_joint("product", T=2, K=2, M=2)
    with pytest.raises(ValidationError):
        tv_distance(a, b)


def test_exactness_report_diagonal_2x2x2():
    joint = make_joint("diagonal", T=2, K=2, M=2)
    kinds = [PatternKind.FLATTEN, PatternKind.DELAY, PatternKind.PARALLEL]
    rows = exactness_report(joint, [build_pattern(k, 2, 2) for k in kinds])
    by_kind = {r.kind: r for r in rows}
    assert by_kind["flatten"].tv <= 1e-12
    assert by_kind["parallel"].tv == max(r.tv for r in rows)
    assert by_kind["delay"].tv <= by_kind["parallel"].tv
    assert by_kind["flatten"].steps_exact == 4
    assert by_kind["delay"].steps_exact == 3
    assert by_kind["delay"].steps_nominal == 2


def test_exactness_report_product_all_exact():
    joint = make_joint("product", T=2, K=2, M=2)
    kinds = [
        PatternKind.PARALLEL,
        PatternKind.DELAY,
        PatternKind.PARTIAL_DELAY,
        PatternKind.FLATTEN,
        PatternKind.PARTIAL_FLATTEN,
        PatternKind.COARSE_FIRST,
    ]
    rows = exactness_report(joint, [build_pattern(k, 2, 2) for k in kinds])
    assert all(r.tv <= 1e-12 for r in rows)


def test_dimension_and_table_guards():
    with pytest.raises(ValidationError, match="capped"):
        make_joint("product", T=5, K=2, M=2)
    with pytest.raises(GuardError, match="guard"):
        make_joint("product", T=4, K=4, M=4)
    with pytest.raises(ValidationError, match="unknown joint family"):
        make_joint("mystery", T=1, K=1, M=2)


@pytest.mark.parametrize("kind", [PatternKind.FLATTEN, PatternKind.COARSE_FIRST])
def test_flatten_family_exact_on_k3_grids(kind):
    # K=3 exercises multi-codebook steps beyond the acceptance's K=2 cases;
    # coarse_first is inexact in general but its K>=2 tail is still a within-
    # step product, so only flatten is guaranteed here
    joint = make_joint("markov_residual", T=2, K=3, M=2, seed=4)
    induced = induced_distribution(joint, build_pattern(kind, 2, 3))
    tv = tv_distance(joint, induced)
    if kind is PatternKind.FLATTEN:
        assert tv <= 1e-12
    else:
        assert 0.0 <= tv <= 1.0


def test_delay_exact_on_diagonal_any_k():
    # on the diagonal family every codebook equals codebook 1 of its timestep,
    # and the delay pattern always reveals (t, 1) before (t, k>1), so each
    # later codebook's conditional is a point mass: the decomposition is exact
    for K in (2, 3):
        joint = make_joint("diagonal", T=2, K=K, M=2)
        induced = induced_distribution(joint, build_pattern(PatternKind.DELAY, 2, K))
        assert tv_distance(joint, induced) <= 1e-12


def test_parallel_inexact_on_diagonal_k3():
    joint = make_joint("diagonal", T=1, K=3, M=2)
    induced = induced_distribution(joint, build_pattern(PatternKind.PARALLEL, 1, 3))
    # true mass 0.5 on each all-equal outcome; induced uniform over 8:
    # TV = 0.5 * (2*(0.5 - 0.125) + 6*0.125) = 0.75
    assert abs(tv_distance(joint, induced) - 0.75) <= 1e-12


@pytest.mark.parametrize("kind", [PatternKind.STEREO_DELAY, PatternKind.STEREO_PARTIAL_DELAY])
def test_stereo_patterns_exact_on_product(kind):
    prod = make_joint("product", T=1, K=4, M=2)
    pattern = build_pattern(kind, 1, 4)
    assert tv_distance(prod, induced_distribution(prod, pattern)) <= 1e-12


def test_stereo_variants_split_on_correlated_streams():
    # stereo_delay staggers the channels (left of level 1 leads alone), so on
    # the diagonal family every later position is a point mass: exact. The
    # partial variant fires both level-1 channels in parallel: inexact.
    diag = make_joint("diagonal", T=1, K=4, M=2)
    staggered = induced_distribution(diag, build_pattern(PatternKind.STEREO_DELAY, 1, 4))
    assert tv_distance(diag, staggered) <= 1e-12
    parallel_channels = induced_distribution(
        diag, build_pattern(PatternKind.STEREO_PARTIAL_DELAY, 1, 4)
    )
    assert abs(parallel_channels.probs.sum() - 1.0) <= 1e-12
    assert tv_distance(diag, parallel_channels) > 0.1


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan]])
def test_nan_table_is_rejected(probs):
    with pytest.raises(ValidationError):
        JointDistribution(T=1, K=1, M=2, probs=probs)


@pytest.mark.parametrize(
    "probs,message",
    [([1.0], "must be flat with 2 entries"), ([1.0, 0.0, 0.0], "must be flat with 2 entries"),
     ([0.5, 0.25], r"sum to 0\.75, not 1")],
    ids=["short", "long", "mass"],
)
def test_table_of_the_wrong_shape_or_mass_is_rejected(probs, message):
    with pytest.raises(ValidationError, match=message):
        JointDistribution(T=1, K=1, M=2, probs=probs)


def reference_diagonal_table(T, K, M):
    """The diagonal family as one table write per timestep assignment."""
    probs = np.zeros(M ** (T * K))
    table = probs.reshape((M,) * (T * K))
    for tokens in np.ndindex(*(M,) * T):
        table[tuple(np.repeat(tokens, K))] = M ** (-float(T))
    probs = table.reshape(-1)
    probs /= probs.sum()
    return probs


def reference_chain_fit_path(seed):
    """(values, init, trans, path) of the markov_residual family's 8-state
    chain, its 4,096-step fit path drawn one rng.choice per step."""
    n_states, coeff = 8, 0.8
    values = np.linspace(-2.0, 2.0, n_states)
    var = 1.0 - coeff**2
    trans = np.exp(-((values[None, :] - coeff * values[:, None]) ** 2) / (2 * var))
    trans /= trans.sum(axis=1, keepdims=True)
    init = np.exp(-(values**2) / 2.0)
    init /= init.sum()
    rng = np.random.default_rng(seed)
    path = np.empty(4096, dtype=np.int64)
    path[0] = rng.choice(n_states, p=init)
    for t in range(1, len(path)):
        path[t] = rng.choice(n_states, p=trans[path[t - 1]])
    return values, init, trans, path


def reference_markov_residual_table(T, K, M, seed):
    """The markov_residual family enumerated path by path: the fit path of
    reference_chain_fit_path, and every state path quantized by rvq_encode
    and added at its grid's row-major index."""
    values, init, trans, path = reference_chain_fit_path(seed)
    n_states = len(values)
    books, _ = train_codebooks(values[path][:, None], RVQConfig(K=K, M=M, d_latent=1),
                               iterations=30, seed=seed)
    probs = np.zeros(M ** (T * K))
    for states in np.ndindex(*(n_states,) * T):
        p = init[states[0]]
        for a, b in zip(states, states[1:]):
            p *= trans[a, b]
        grid = rvq_encode(values[list(states)][:, None], books)
        idx = 0
        for digit in (grid.tokens - 1).reshape(-1):  # row-major over (t, k)
            idx = idx * M + int(digit)
        probs[idx] += p
    probs /= probs.sum()
    return probs


# every (T, K, M, seed) the suite and the oracle benchmark build, plus the
# larger shapes where the per-path enumeration was slowest
MARKOV_SHAPES = sorted(
    {(2, 2, 2, 3), (2, 2, 2, 0), (2, 2, 3, 1), (2, 1, 3, 2), (2, 2, 3, 2), (2, 3, 2, 4),
     (2, 2, 2, 7), (1, 4, 2, 7), (2, 4, 3, 0), (3, 3, 3, 0), (4, 2, 3, 0), (4, 4, 2, 0)}
    | {(T, 2, M, 5) for T in (1, 2, 3) for M in (2, 3)}
)


@pytest.mark.parametrize("T,K,M,seed", MARKOV_SHAPES)
def test_markov_residual_chain_table_equals_path_enumeration(T, K, M, seed):
    joint = make_joint("markov_residual", T, K, M, seed=seed)
    assert np.array_equal(joint.probs, reference_markov_residual_table(T, K, M, seed))


@pytest.mark.parametrize("seed", range(8))
def test_markov_residual_fits_the_path_drawn_one_choice_per_step(monkeypatch, seed):
    # the table test alone can miss a changed path that fits the same rows
    fits = []

    def recording(frames, config, **kwargs):
        fits.append((frames, kwargs["index"]))
        return train_codebooks(frames, config, **kwargs)

    monkeypatch.setattr(oracle, "train_codebooks", recording)
    make_joint("markov_residual", 2, 2, 2, seed=seed)
    [(frames, index)] = fits
    values, _, _, path = reference_chain_fit_path(seed)
    assert np.array_equal(frames[index], values[path][:, None])


def test_diagonal_chain_table_equals_per_timestep_writes():
    grid = itertools.product(range(1, 5), repeat=3)
    shapes = [(T, K, M) for T, K, M in grid if M ** (T * K) <= 10**6]
    assert len(shapes) == 60
    for T, K, M in shapes:
        reference = reference_diagonal_table(T, K, M)
        assert np.array_equal(make_joint("diagonal", T, K, M).probs, reference), (T, K, M)
