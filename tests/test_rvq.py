import itertools

import numpy as np
import pytest
from helpers import rvq_energy_profile
from test_oracle import MARKOV_SHAPES

from tokenweave import corpus, oracle, rvq
from tokenweave.corpus import make_corpus
from tokenweave.errors import ValidationError
from tokenweave.oracle import make_joint
from tokenweave.patterns import TokenGrid
from tokenweave.rvq import (
    RVQConfig,
    residual_energy_profile,
    rvq_decode,
    rvq_encode,
    synth_latents,
    train_codebooks,
)


def test_synth_latents_deterministic():
    a = synth_latents(100, 8, [1])[0]
    b = synth_latents(100, 8, [1])[0]
    assert np.array_equal(a, b)
    c = synth_latents(100, 8, [2])[0]
    assert not np.array_equal(a, c)


def test_corpus_latents_are_the_per_seed_walks():
    # without share_first_frame, sequence i is synth_latents at seed + i
    corpus = make_corpus(6, 20, RVQConfig(K=2, M=8, d_latent=3), seed=11)
    for i, latents in enumerate(corpus.latents):
        assert np.array_equal(latents, synth_latents(20, 3, [11 + i])[0])


def test_synth_latents_lag1_autocorrelation():
    frames = synth_latents(10000, 4, [7])[0]
    for dim in range(4):
        x = frames[:, dim]
        x = x - x.mean()
        rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho > 0.5


def test_synth_latents_single_frame():
    f = synth_latents(1, 1, [0])[0]
    assert f.shape == (1, 1)
    assert np.isfinite(f).all()


def test_synth_latents_rejects_bad_T():
    with pytest.raises(ValidationError):
        synth_latents(0, 4, [0])


@pytest.mark.parametrize("T,d,seeds", [(3, 0, [0]), (3, 4, []), (3, 4, range(5, 5))])
def test_synth_latents_rejects_zero_width_and_no_seeds(T, d, seeds):
    with pytest.raises(ValidationError, match="must be >= 1"):
        synth_latents(T, d, seeds)


def test_kmeans_fixed_point_on_distinct_vectors():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(16, 3)) * 10.0
    cfg = RVQConfig(K=1, M=16, d_latent=3)
    books, _ = train_codebooks(pts, cfg, iterations=10, seed=0)
    assert books.shape == (1, 16, 3)
    # centroids are a permutation of the input vectors, quantization error 0
    assert sorted(map(tuple, books[0].tolist())) == sorted(map(tuple, pts.tolist()))
    profile = residual_energy_profile(pts, books)
    assert profile[1] == pytest.approx(0.0, abs=1e-24)


def test_kmeans_objective_nonincreasing_in_iterations():
    frames = synth_latents(512, 4, [3])[0]
    cfg = RVQConfig(K=1, M=16, d_latent=4)
    errors = []
    for iters in (1, 2, 5, 10, 20):
        books, _ = train_codebooks(frames, cfg, iterations=iters, seed=11)
        errors.append(residual_energy_profile(frames, books)[1])
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_train_codebooks_deterministic():
    frames = synth_latents(256, 4, [0])[0]
    cfg = RVQConfig(K=3, M=8, d_latent=4)
    a, _ = train_codebooks(frames, cfg, iterations=5, seed=9)
    b, _ = train_codebooks(frames, cfg, iterations=5, seed=9)
    assert np.array_equal(a, b)


def test_train_codebooks_insufficient_data():
    frames = synth_latents(4, 2, [0])[0]
    with pytest.raises(ValidationError, match="insufficient"):
        train_codebooks(frames, RVQConfig(K=1, M=8, d_latent=2))


def test_frame_and_stream_counts_must_fit_the_codebooks():
    frames = synth_latents(8, 2, [0])[0]
    with pytest.raises(ValidationError, match="frames are 2-dim, config expects 3"):
        train_codebooks(frames, RVQConfig(K=1, M=2, d_latent=3))
    books = np.zeros((1, 2, 3))
    with pytest.raises(ValidationError, match="frames are 2-dim, codebooks are 3-dim"):
        rvq_encode(frames, books)
    grid = TokenGrid(tokens=np.ones((1, 2), dtype=int), M=2)
    with pytest.raises(ValidationError, match="grid has 2 streams but only 1 stages given"):
        rvq_decode(grid, books)


ROWS = np.array([[0.0], [1.0], [2.0]])


@pytest.mark.parametrize(
    "index,text",
    [
        ([[0, 1, 2]], "frame index must be 1-D"),
        ([0, 1, 2.5], "frame index must be whole numbers"),
        ([0, 1, 3], "frame index must lie in 0..2"),
        ([-1, 0, 1, 2], "frame index must lie in 0..2"),
        ([0, 0, 2, 2], "frame index names no frame for row 1"),
    ],
    ids=["2-D", "fraction", "past-the-rows", "negative", "unnamed-row"],
)
def test_train_codebooks_refuses_a_malformed_index(index, text):
    with pytest.raises(ValidationError, match=text):
        train_codebooks(ROWS, RVQConfig(K=1, M=2, d_latent=1), index=index)


def test_an_index_counts_frames_not_rows():
    # 2 rows named by 3 frames feed 3 centroids; 2 frames do not
    books, codes = train_codebooks(ROWS[:2], RVQConfig(K=1, M=3, d_latent=1), index=[0, 1, 1])
    assert books.shape == (1, 3, 1) and codes.shape == (2, 1)
    with pytest.raises(ValidationError, match="insufficient data: 2 frames < 3 centroids"):
        train_codebooks(ROWS[:2], RVQConfig(K=1, M=3, d_latent=1), index=[1, 0])


def test_encode_nearest_neighbor_of_centroid_is_itself():
    book = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    frames = np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    grid = rvq_encode(frames, book[None])
    assert grid.tokens[:, 0].tolist() == [2, 3, 1]


def test_encode_zero_frames_with_zero_centroid_first():
    book = np.array([[0.0], [5.0], [-5.0]])
    grid = rvq_encode(np.zeros((4, 1)), book[None])
    assert grid.tokens[:, 0].tolist() == [1, 1, 1, 1]


def test_encode_idempotent_on_code_lattice():
    # idempotence needs each stage's later-stage residual to stay inside the
    # stage's Voronoi cell, so use scale-separated stages (100 : 1 : 0.01) and
    # assert that margin precondition before the roundtrip check
    rng = np.random.default_rng(2)
    scales = [100.0, 1.0, 0.01]
    books = np.stack([s * rng.normal(size=(8, 4)) for s in scales])
    for k in range(2):
        c = books[k]
        gaps = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        np.fill_diagonal(gaps, np.inf)
        tail = sum(np.linalg.norm(b, axis=1).max() for b in books[k + 1 :])
        assert gaps.min() > 2.0 * tail
    frames = 100.0 * rng.normal(size=(200, 4))
    g1 = rvq_encode(frames, books)
    g2 = rvq_encode(rvq_decode(g1, books), books)
    assert np.array_equal(g1.tokens, g2.tokens)


def test_encode_idempotent_single_stage_any_corpus():
    # with one stage the reconstruction IS a centroid, so re-encoding is exact
    frames = synth_latents(500, 4, [2])[0]
    books, _ = train_codebooks(frames, RVQConfig(K=1, M=16, d_latent=4), iterations=15, seed=4)
    g1 = rvq_encode(frames, books)
    g2 = rvq_encode(rvq_decode(g1, books), books)
    assert np.array_equal(g1.tokens, g2.tokens)


def test_decode_constant_tokens():
    book = np.array([[1.0, 2.0], [7.0, -1.0]])
    grid = TokenGrid(tokens=np.full((5, 1), 2), M=2)
    out = rvq_decode(grid, book[None])
    assert np.allclose(out, [7.0, -1.0])


def test_decode_empty_grid():
    book = np.array([[0.0]])
    grid = TokenGrid(tokens=np.zeros((0, 1), dtype=int), M=1)
    assert rvq_decode(grid, book[None]).shape == (0, 1)


def test_decode_rejects_oversized_vocab():
    book = np.array([[0.0], [1.0]])
    grid = TokenGrid(tokens=np.array([[3]]), M=3)
    with pytest.raises(ValidationError):
        rvq_decode(grid, book[None])


def test_reconstruction_error_improves_with_stages():
    frames = synth_latents(400, 6, [8])[0]
    cfg = RVQConfig(K=4, M=12, d_latent=6)
    books, _ = train_codebooks(frames, cfg, iterations=15, seed=8)
    grid = rvq_encode(frames, books)
    errs = []
    for k in range(1, 5):
        partial = TokenGrid(tokens=grid.tokens[:, :k], M=grid.M)
        recon = rvq_decode(partial, books[:k])
        errs.append(float(np.mean(np.sum((frames - recon) ** 2, axis=1))))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_energy_profile_nonincreasing_and_stage1_dominant():
    profile = np.array(rvq_energy_profile())  # criterion 9's profile
    assert profile.shape == (5,)
    assert all(b < a for a, b in zip(profile, profile[1:]))
    drops = -np.diff(profile)
    assert drops[0] >= drops[1]
    assert drops[0] == max(drops)


def test_config_validation():
    with pytest.raises(ValidationError):
        RVQConfig(K=0)
    with pytest.raises(ValidationError):
        RVQConfig(M=0)



# ---------------------------------------------------------------- k-means update


def _reference_nearest(points, centroids):
    """Nearest-centroid labels from the squared distances expanded as three
    temporaries; argmin breaks ties toward the lowest index."""
    norms = np.sum(points**2, axis=1, keepdims=True)
    d2 = norms - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1)
    return np.argmin(d2, axis=1)


def _reference_kmeans(points, M, iterations, rng, history=None):
    """k-means as two boolean masks per cluster and iteration, always running
    all iterations: the reference the bincount update with its fixed-point
    stop must reproduce. Each iteration's labels go to history when given."""
    T = points.shape[0]
    centroids = points[rng.choice(T, size=M, replace=False)].copy()
    for _ in range(iterations):
        labels = _reference_nearest(points, centroids)
        if history is not None:
            history.append(labels)
        for j in range(M):
            members = points[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        empty = [j for j in range(M) if not np.any(labels == j)]
        if empty:
            residual = np.linalg.norm(points - centroids[labels], axis=1)
            order = np.argsort(-residual, kind="stable")
            for j, idx in zip(empty, order):
                centroids[j] = points[idx]
    return centroids


def _kmeans_inputs(d):
    """(points, M, seed): plain points, and duplicated points with more
    clusters than distinct points, so some clusters are empty every iteration."""
    for seed in range(5):
        points = np.random.default_rng(seed).normal(size=(60, d))
        yield points, 12, seed
        yield np.repeat(points[:10], 6, axis=0), 12, seed
        yield np.repeat(points[:4], 15, axis=0), 6, seed


CAPS = (1, 3, 25, 200)


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_nearest_equals_the_three_temporary_expansion_bitwise(d):
    # centroids drawn from duplicated points repeat, so those points tie exactly
    for points, M, seed in _kmeans_inputs(d):
        rng = np.random.default_rng(seed)
        for scale in (1e-3, 1.0, 1e3):
            x = points * scale
            drawn = x[rng.choice(len(x), size=M, replace=False)]
            for centroids in (drawn, scale * rng.normal(size=(M, d))):
                want = _reference_nearest(x, centroids)
                norms = np.sum(x**2, axis=1, keepdims=True)
                assert np.array_equal(rvq._nearest(x, centroids), want), (seed, M, scale)
                assert np.array_equal(rvq._nearest(x, centroids, norms), want), (seed, M, scale)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_kmeans_equals_the_per_cluster_mean_bitwise(d):
    for points, M, seed in _kmeans_inputs(d):
        for cap in CAPS:
            got, labels = rvq._kmeans(points, M, cap, np.random.default_rng(seed))
            want = _reference_kmeans(points, M, cap, np.random.default_rng(seed))
            assert np.array_equal(got, want), (seed, M, cap)
            assert np.array_equal(labels, _reference_nearest(points, want)), (seed, M, cap)


def _indexed_inputs(d):
    """(rows, index, M, seed): rows on a quarter-integer lattice, each named
    at least once by a shuffled index. Lattice sums are exact, so one-column
    fits are bitwise the reference's too. With 10 rows and M = 12, two or more
    clusters are empty at once; once each row has its own centroid, every
    residual is 0, and only the tie rule picks the reseeded frames."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for n, M in ((10, 12), (30, 12), (60, 6)):
            rows = rng.integers(-8, 9, size=(n, d)) / 4.0
            index = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, 60)]))
            yield rows, index, M, seed


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_kmeans_reseeds_the_lowest_of_the_worst_served_frames(monkeypatch, d):
    reseeds = []  # (empty clusters, more frames at or above the cut than picked)
    partition = np.partition

    def spying(a, kth, *args, **kwargs):
        out = partition(a, kth, *args, **kwargs)
        reseeds.append((a.size - kth, np.count_nonzero(a >= out[kth]) > a.size - kth))
        return out

    monkeypatch.setattr(np, "partition", spying)
    for rows, index, M, seed in _indexed_inputs(d):
        for cap in CAPS:
            want = _reference_kmeans(rows[index], M, cap, np.random.default_rng(seed))
            got, labels = rvq._kmeans(rows, M, cap, np.random.default_rng(seed), index)
            assert np.array_equal(got, want), (seed, M, cap)
            assert np.array_equal(labels, _reference_nearest(rows, want)), (seed, M, cap)
            got, labels = rvq._kmeans(rows[index], M, cap, np.random.default_rng(seed))
            assert np.array_equal(got, want), (seed, M, cap)
            assert np.array_equal(labels, _reference_nearest(rows[index], want)), (seed, M, cap)
    assert any(e >= 2 and tied for e, tied in reseeds)


def test_kmeans_one_column_agrees_to_rounding_and_encodes_alike():
    # np.mean sums a single column pairwise and bincount adds in point order;
    # either sum of n terms is off by at most n * eps * max|x|
    for points, M, seed in _kmeans_inputs(1):
        points = np.tanh(points) * 2.0  # within the oracle's [-2, 2] latents
        bound = len(points) * np.finfo(np.float64).eps * np.abs(points).max()
        for cap in CAPS:
            got, _ = rvq._kmeans(points, M, cap, np.random.default_rng(seed))
            want = _reference_kmeans(points, M, cap, np.random.default_rng(seed))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)
            assert np.array_equal(
                rvq_encode(points, got[None]).tokens,
                rvq_encode(points, want[None]).tokens,
            )


@pytest.mark.parametrize("T,K,M,seed", MARKOV_SHAPES)
def test_markov_residual_tables_equal_the_per_cluster_mean_fit(monkeypatch, T, K, M, seed):
    def reference_fit(points, M, iterations, rng, index=None):
        # fits every frame points[index], then labels the rows as _kmeans does
        frames = points if index is None else points[index]
        centroids = _reference_kmeans(frames, M, iterations, rng)
        return centroids, _reference_nearest(points, centroids)

    got = make_joint("markov_residual", T, K, M, seed=seed).probs
    monkeypatch.setattr(rvq, "_kmeans", reference_fit)
    assert np.array_equal(got, make_joint("markov_residual", T, K, M, seed=seed).probs)


# ---------------------------------------------------------------- the fit's codes


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_fit_codes_equal_an_encode_bitwise(d):
    # a 3-stage cascade over fixed-point stops, cap stops and empty-cluster reseeds
    for points, M, seed in _kmeans_inputs(d):
        for cap in CAPS:
            config = RVQConfig(K=3, M=M, d_latent=d)
            books, codes = train_codebooks(points, config, iterations=cap, seed=seed)
            assert codes.dtype == np.int64
            assert np.array_equal(codes, rvq_encode(points, books).tokens), (seed, M, cap)


@pytest.mark.parametrize("T,K,M,seed", MARKOV_SHAPES)
def test_markov_residual_fit_codes_equal_an_encode(monkeypatch, T, K, M, seed):
    fits = []

    def recording(frames, config, **kwargs):
        books, codes = train_codebooks(frames, config, **kwargs)
        fits.append((frames, books, codes))
        return books, codes

    monkeypatch.setattr(oracle, "train_codebooks", recording)
    make_joint("markov_residual", T, K, M, seed=seed)
    [(frames, books, codes)] = fits
    assert np.array_equal(codes, rvq_encode(frames, books).tokens)


def _chain_path(seed, n=4096):
    """n states of the oracle's 8-state chain (coefficient 0.8 on values
    linspace(-2, 2, 8)), one rng.choice per step."""
    values = np.linspace(-2.0, 2.0, 8)
    trans = np.exp(-((values[None, :] - 0.8 * values[:, None]) ** 2) / (2 * (1 - 0.8**2)))
    trans /= trans.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    path = [int(rng.integers(8))]
    for _ in range(n - 1):
        path.append(int(rng.choice(8, p=trans[path[-1]])))
    return values, np.array(path)


def test_an_indexed_fit_is_the_per_frame_fit_bitwise(monkeypatch):
    # a stage's empty clusters are reseeded from the frames worst served, the
    # one place the fit calls np.linalg.norm; both fits reseed alike
    reseeds = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: reseeds.append(1) or norm(*a, **kw))
    indexed_reseeds = 0
    for seed in range(4):
        values, path = _chain_path(seed)
        states, inverse = np.unique(path, return_inverse=True)
        for K, M in itertools.product(range(1, 5), repeat=2):
            config = RVQConfig(K=K, M=M, d_latent=1)
            reseeds.clear()
            books, codes = train_codebooks(values[states][:, None], config, iterations=30,
                                           seed=seed, index=inverse)
            indexed = len(reseeds)
            want_books, want_codes = train_codebooks(values[path][:, None], config,
                                                     iterations=30, seed=seed)
            assert np.array_equal(books, want_books), (seed, K, M)
            assert np.array_equal(codes[inverse], want_codes), (seed, K, M)
            assert len(reseeds) == 2 * indexed, (seed, K, M)
            indexed_reseeds += indexed
    assert indexed_reseeds > 0


# ---------------------------------------------------------------- search counts


def _count_searches(monkeypatch, module, build):
    """(build()'s result, the nearest-centroid searches it makes, the count
    when each call of module.train_codebooks returned)."""
    calls, at_fit_end = [], []
    nearest, fit = rvq._nearest, module.train_codebooks

    def counting(*args):
        calls.append(1)
        return nearest(*args)

    def fitting(*args, **kwargs):
        out = fit(*args, **kwargs)
        at_fit_end.append(len(calls))
        return out

    with monkeypatch.context() as m:
        m.setattr(rvq, "_nearest", counting)
        m.setattr(module, "train_codebooks", fitting)
        result = build()
    return result, len(calls), at_fit_end


def _reference_searches(points, config, iterations, seed):
    """The searches a fit needs: per stage, one per iteration up to the first
    whose labels repeat the previous iteration's, or every iteration and one
    more search for the final labels when none repeats."""
    rng = np.random.default_rng(seed)
    residual, total = points.copy(), 0
    for _ in range(config.K):
        history = []
        centroids = _reference_kmeans(residual, config.M, iterations, rng, history)
        repeats = [i for i in range(1, iterations) if np.array_equal(history[i], history[i - 1])]
        total += repeats[0] + 1 if repeats else iterations + 1
        residual = residual - centroids[_reference_nearest(residual, centroids)]
    return total


@pytest.mark.parametrize(
    "n,T,config,share,searches",
    [
        # the continue_short and train workloads' corpora at seed 1; two of the
        # train corpus's stages stop at the iteration cap
        (16, 24, RVQConfig(K=4, M=64, d_latent=4), False, 51),
        (32, 24, RVQConfig(K=4, M=16, d_latent=4), True, 75),
    ],
    ids=["continue_short", "train"],
)
def test_make_corpus_searches_each_code_once(monkeypatch, n, T, config, share, searches):
    built, total, at_fit_end = _count_searches(
        monkeypatch, corpus, lambda: make_corpus(n, T, config, seed=1, share_first_frame=share)
    )
    # none after the fit: its codes are the grids
    assert at_fit_end == [total] and total == searches
    points = built.latents.reshape(-1, config.d_latent)
    assert total == _reference_searches(points, config, corpus.CODEBOOK_ITERATIONS, seed=1)


def test_markov_residual_joint_searches_the_fit_once(monkeypatch):
    # the oracle workload's markov_residual joint: the fit, then one encode of
    # the chain's 8 states (one search per stage)
    _, total, at_fit_end = _count_searches(
        monkeypatch, oracle, lambda: make_joint("markov_residual", 2, 4, 3, seed=0)
    )
    assert (at_fit_end, total) == ([11], 15)


def test_markov_residual_joint_sorts_no_whole_fit(monkeypatch):
    # the oracle workload's joint reseeds twice; each sorts only the frames at
    # or above its cut, never all 4,096 (np.unique's own sort of the path is
    # an ndarray method, not seen here)
    sizes = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: sizes.append(np.size(a)) or argsort(a, *args, **kw))
    make_joint("markov_residual", 2, 4, 3, seed=0)
    assert len(sizes) == 2 and max(sizes) < oracle._CHAIN_FIT_LEN, sizes


def _updates_before_labels_repeat(monkeypatch, points, M, seed):
    """The centroid updates a 200-iteration _kmeans runs before it stops at
    labels equal to the previous iteration's."""
    calls = []
    nearest = rvq._nearest

    def counting(*args):
        calls.append(1)
        return nearest(*args)

    with monkeypatch.context() as m:
        m.setattr(rvq, "_nearest", counting)
        rvq._kmeans(points, M, 200, np.random.default_rng(seed))
    assert len(calls) < 200, "no fixed point within 200 iterations"
    return len(calls) - 1  # the last call found the repeat


@pytest.mark.parametrize(
    "points,M,cap",
    [
        # the continue_short corpus: 16 sequences of 24 frames, M=64, 20 iterations
        *[
            (np.vstack([synth_latents(24, 4, [s + i])[0] for i in range(16)]), 64, 20)
            for s in (7, 11, 12)
        ],
        # the oracle's fit: 4,096 one-dim frames of 8 values, 30 iterations
        (np.linspace(-2.0, 2.0, 8)[np.random.default_rng(0).integers(0, 8, 4096)][:, None], 3, 30),
    ],
    ids=["continue_short-7", "continue_short-11", "continue_short-12", "oracle"],
)
def test_a_fit_at_its_fixed_point_is_the_fit_at_any_larger_cap(monkeypatch, points, M, cap):
    n = _updates_before_labels_repeat(monkeypatch, points, M, seed=0)
    assert n < cap
    rng = np.random.default_rng
    assert np.array_equal(rvq._kmeans(points, M, n, rng(0))[0], rvq._kmeans(points, M, 200, rng(0))[0])
    # the premise of the stop, on the reference that never stops early
    reference = _reference_kmeans(points, M, n, rng(0))
    assert np.array_equal(reference, _reference_kmeans(points, M, 200, rng(0)))
