import numpy as np
import pytest

from tokenweave.errors import ValidationError
from tokenweave.patterns import TokenGrid
from tokenweave.rvq import (
    Codebook,
    LatentFrames,
    RVQConfig,
    residual_energy_profile,
    rvq_decode,
    rvq_encode,
    synth_latents,
    train_codebooks,
)


def test_synth_latents_deterministic():
    a = synth_latents(100, 8, seed=1)
    b = synth_latents(100, 8, seed=1)
    assert np.array_equal(a.frames, b.frames)
    c = synth_latents(100, 8, seed=2)
    assert not np.array_equal(a.frames, c.frames)


def test_synth_latents_lag1_autocorrelation():
    frames = synth_latents(10000, 4, seed=7).frames
    for dim in range(4):
        x = frames[:, dim]
        x = x - x.mean()
        rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert rho > 0.5


def test_synth_latents_single_frame():
    f = synth_latents(1, 1, seed=0)
    assert f.frames.shape == (1, 1)
    assert np.isfinite(f.frames).all()


def test_synth_latents_rejects_bad_T():
    with pytest.raises(ValidationError):
        synth_latents(0, 4, seed=0)


def test_kmeans_fixed_point_on_distinct_vectors():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(16, 3)) * 10.0
    frames = LatentFrames(frames=pts)
    cfg = RVQConfig(K=1, M=16, d_latent=3)
    books = train_codebooks(frames, cfg, iterations=10, seed=0)
    got = books[0].centroids
    # centroids are a permutation of the input vectors, quantization error 0
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, pts.tolist()))
    profile = residual_energy_profile(frames, books)
    assert profile[1] == pytest.approx(0.0, abs=1e-24)


def test_kmeans_objective_nonincreasing_in_iterations():
    frames = synth_latents(512, 4, seed=3)
    cfg = RVQConfig(K=1, M=16, d_latent=4)
    errors = []
    for iters in (1, 2, 5, 10, 20):
        books = train_codebooks(frames, cfg, iterations=iters, seed=11)
        errors.append(residual_energy_profile(frames, books)[1])
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_train_codebooks_deterministic():
    frames = synth_latents(256, 4, seed=0)
    cfg = RVQConfig(K=3, M=8, d_latent=4)
    a = train_codebooks(frames, cfg, iterations=5, seed=9)
    b = train_codebooks(frames, cfg, iterations=5, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.centroids, y.centroids)


def test_train_codebooks_insufficient_data():
    frames = synth_latents(4, 2, seed=0)
    with pytest.raises(ValidationError, match="insufficient"):
        train_codebooks(frames, RVQConfig(K=1, M=8, d_latent=2))


def test_encode_nearest_neighbor_of_centroid_is_itself():
    book = Codebook(centroids=np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]))
    frames = LatentFrames(frames=np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
    grid = rvq_encode(frames, [book])
    assert grid.tokens[:, 0].tolist() == [2, 3, 1]


def test_encode_zero_frames_with_zero_centroid_first():
    book = Codebook(centroids=np.array([[0.0], [5.0], [-5.0]]))
    frames = LatentFrames(frames=np.zeros((4, 1)))
    grid = rvq_encode(frames, [book])
    assert grid.tokens[:, 0].tolist() == [1, 1, 1, 1]


def test_encode_idempotent_on_code_lattice():
    # idempotence needs each stage's later-stage residual to stay inside the
    # stage's Voronoi cell, so use scale-separated stages (100 : 1 : 0.01) and
    # assert that margin precondition before the roundtrip check
    rng = np.random.default_rng(2)
    scales = [100.0, 1.0, 0.01]
    books = [Codebook(centroids=s * rng.normal(size=(8, 4))) for s in scales]
    for k in range(2):
        c = books[k].centroids
        gaps = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=-1)
        np.fill_diagonal(gaps, np.inf)
        tail = sum(np.linalg.norm(b.centroids, axis=1).max() for b in books[k + 1 :])
        assert gaps.min() > 2.0 * tail
    frames = LatentFrames(frames=100.0 * rng.normal(size=(200, 4)))
    g1 = rvq_encode(frames, books)
    g2 = rvq_encode(rvq_decode(g1, books), books)
    assert np.array_equal(g1.tokens, g2.tokens)


def test_encode_idempotent_single_stage_any_corpus():
    # with one stage the reconstruction IS a centroid, so re-encoding is exact
    frames = synth_latents(500, 4, seed=2)
    books = train_codebooks(frames, RVQConfig(K=1, M=16, d_latent=4), iterations=15, seed=4)
    g1 = rvq_encode(frames, books)
    g2 = rvq_encode(rvq_decode(g1, books), books)
    assert np.array_equal(g1.tokens, g2.tokens)


def test_decode_constant_tokens():
    book = Codebook(centroids=np.array([[1.0, 2.0], [7.0, -1.0]]))
    grid = TokenGrid(tokens=np.full((5, 1), 2), M=2)
    out = rvq_decode(grid, [book])
    assert np.allclose(out.frames, [7.0, -1.0])


def test_decode_empty_grid():
    book = Codebook(centroids=np.array([[0.0]]))
    grid = TokenGrid(tokens=np.zeros((0, 1), dtype=int), M=1)
    assert rvq_decode(grid, [book]).T == 0


def test_decode_rejects_oversized_vocab():
    book = Codebook(centroids=np.array([[0.0], [1.0]]))
    grid = TokenGrid(tokens=np.array([[3]]), M=3)
    with pytest.raises(ValidationError):
        rvq_decode(grid, [book])


def test_reconstruction_error_improves_with_stages():
    frames = synth_latents(400, 6, seed=8)
    cfg = RVQConfig(K=4, M=12, d_latent=6)
    books = train_codebooks(frames, cfg, iterations=15, seed=8)
    grid = rvq_encode(frames, books)
    errs = []
    for k in range(1, 5):
        partial = TokenGrid(tokens=grid.tokens[:, :k], M=grid.M)
        recon = rvq_decode(partial, books[:k]).frames
        errs.append(float(np.mean(np.sum((frames.frames - recon) ** 2, axis=1))))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_energy_profile_nonincreasing_and_stage1_dominant():
    frames = synth_latents(2000, 8, seed=0)
    cfg = RVQConfig(K=4, M=64, d_latent=8)
    books = train_codebooks(frames, cfg, iterations=20, seed=0)
    profile = residual_energy_profile(frames, books)
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

