"""Synthetic residual vector quantizer producing correlated K-stream token grids.

Stage k of the cascade is a plain codebook fit by k-means on the residual
error left by stages 1..k-1, so streams are correlated and the first stage
carries most of the energy. Everything is deterministic given a seed:
nearest-neighbor ties break toward the lowest centroid index and empty
k-means clusters are reseeded from the farthest points.

Values are plain float arrays: latent frames are (T, d), a cascade is one
(K, M, d) array of K stages of M centroids, and synth_latents takes one seed
per walk and returns (n_seeds, T, d).

A k-means iteration takes its cluster sizes and per-column sums from
np.bincount over the labels, so each held centroid is its members' sum,
added in point order, over their count. For d_latent >= 2 that is bitwise
np.mean of the members; for d_latent = 1 np.mean sums the one column
pairwise, so the two may differ in the last bit or two. The update depends on
the labels alone (the rng is drawn only for the initial centroids), so the
fit stops as soon as an iteration's labels equal the previous ones: the
remaining iterations would rebuild the same centroids, and those labels are
already the returned centroids' nearest (a stage stopped by its iteration cap
searches once more). The points' squared norms, which every nearest-centroid
search adds, are computed once per fit. train_codebooks returns each stage's
labels as the frames' codes, which are the tokens rvq_encode would give, so
make_corpus splits them into its grids without encoding again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_array
from .patterns import TokenGrid


@dataclass(frozen=True)
class RVQConfig:
    """Quantizer cascade shape. Defaults are desk scale: 4 stages of 64 codes
    over 8-dim latents (production-scale systems run 4 x 2048 at 50 Hz)."""

    K: int = 4
    M: int = 64
    d_latent: int = 8

    def __post_init__(self) -> None:
        if self.K < 1 or self.M < 1 or self.d_latent < 1:
            raise ValidationError("RVQConfig requires K, M, d_latent >= 1")


AR1_COEFF = 0.95  # lag-1 autocorrelation of synthetic latents


def synth_latents(T: int, d_latent: int, seeds) -> np.ndarray:
    """(len(seeds), T, d_latent) stationary AR(1) walks, x_t = a x_{t-1} +
    sqrt(1-a^2) z_t with a = AR1_COEFF: unit marginal variance, lag-1
    autocorrelation ~= a. Walk i draws its normals from seeds[i], then one
    recursion steps all walks at once."""
    if T < 1 or d_latent < 1 or not len(seeds):
        raise ValidationError(f"T, d_latent and seed count must be >= 1, got {T}, {d_latent}, {len(seeds)}")
    z = np.stack([np.random.default_rng(s).standard_normal((T, d_latent)) for s in seeds])
    frames = np.empty_like(z)
    frames[:, 0] = z[:, 0]
    step_scale = np.sqrt(1.0 - AR1_COEFF**2)
    for t in range(1, T):
        frames[:, t] = AR1_COEFF * frames[:, t - 1] + step_scale * z[:, t]
    return frames


def _nearest(points: np.ndarray, centroids: np.ndarray, norms=None) -> np.ndarray:
    # squared distances via expansion, from the points' squared norms (n, 1)
    # where the caller holds them; argmin breaks ties toward the lowest index.
    # One (n, M) array, added to in place: bitwise norms - 2 * points @ c.T + |c|^2
    if norms is None:
        norms = np.sum(points**2, axis=1, keepdims=True)
    d2 = points @ (-2.0 * centroids.T)
    d2 += norms
    d2 += np.sum(centroids**2, axis=1)
    return np.argmin(d2, axis=1)


def _kmeans(
    points: np.ndarray, M: int, iterations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(centroids, labels): the labels are the returned centroids' nearest."""
    T, d = points.shape
    centroids = points[rng.choice(T, size=M, replace=False)].copy()
    norms = np.sum(points**2, axis=1, keepdims=True)
    previous = None
    for _ in range(iterations):
        labels = _nearest(points, centroids, norms)
        # the update below is a function of the labels alone, so equal labels
        # would rebuild these very centroids: a fixed point
        if previous is not None and np.array_equal(labels, previous):
            return centroids, labels
        previous = labels
        counts = np.bincount(labels, minlength=M)
        # bin (label, column) adds its column's entries in point order
        bins = (labels[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(bins, weights=points.ravel(), minlength=M * d).reshape(M, d)
        held = counts > 0
        centroids[held] = sums[held] / counts[held, None]
        empty = np.flatnonzero(~held)
        if empty.size:
            # hand each empty cluster the point currently worst served
            residual = np.linalg.norm(points - centroids[labels], axis=1)
            order = np.argsort(-residual, kind="stable")
            centroids[empty] = points[order[: empty.size]]
    return centroids, _nearest(points, centroids, norms)


def train_codebooks(
    frames: np.ndarray, config: RVQConfig, iterations: int = 25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Fit the (K, M, d) cascade to (T, d) frames, stage k by k-means on the
    residuals of 1..k-1. Returns it and the (T, K) codes rvq_encode would give."""
    frames = checked_array(frames, "latent frames", 2)
    T, d = frames.shape
    if T < config.M:
        raise ValidationError(f"insufficient data: {T} frames < {config.M} centroids per stage")
    if d != config.d_latent:
        raise ValidationError(f"frames are {d}-dim, config expects {config.d_latent}")
    rng = np.random.default_rng(seed)
    residual = frames.copy()
    books = np.empty((config.K, config.M, d))
    tokens = np.empty((T, config.K), dtype=np.int64)
    for k in range(config.K):
        books[k], labels = _kmeans(residual, config.M, iterations, rng)
        tokens[:, k] = labels + 1
        residual -= books[k][labels]
    return books, tokens


def _checked_books(books) -> np.ndarray:
    books = checked_array(books, "codebooks", 3)
    if 0 in books.shape:
        raise ValidationError(f"need at least one codebook stage, code and width; got (K, M, width) = {books.shape}")
    return books


def rvq_encode(frames: np.ndarray, books: np.ndarray) -> TokenGrid:
    """Greedy residual encoding of (T, d) frames; the grid holds 1-based token ids."""
    books = _checked_books(books)
    frames = checked_array(frames, "latent frames", 2)
    K, M, d = books.shape
    if frames.shape[1] != d:
        raise ValidationError(f"frames are {frames.shape[1]}-dim, codebooks are {d}-dim")
    residual = frames.copy()
    tokens = np.empty((len(frames), K), dtype=np.int64)
    for k, book in enumerate(books):
        idx = _nearest(residual, book)
        tokens[:, k] = idx + 1
        residual -= book[idx]
    return TokenGrid(tokens=tokens, M=M)


def rvq_decode(grid: TokenGrid, books: np.ndarray) -> np.ndarray:
    """(T, d) frames: the sum of the selected centroids per stage."""
    books = _checked_books(books)
    K, M, d = books.shape
    if grid.K > K:
        raise ValidationError(f"grid has {grid.K} streams but only {K} stages given")
    if grid.M > M:
        raise ValidationError(f"grid vocabulary {grid.M} exceeds codebook size {M}")
    out = np.zeros((grid.T, d))
    for k in range(grid.K):
        out += books[k][grid.tokens[:, k] - 1]
    return out


def residual_energy_profile(frames: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Mean squared residual norm after 0..K stages (entry 0 = raw energy).

    Nonincreasing whenever frames come from the corpus the cascade was fit on;
    out-of-distribution frames get no hard guarantee.
    """
    frames = checked_array(frames, "latent frames", 2)
    books = _checked_books(books)
    residual = frames.copy()
    profile = [float(np.mean(np.sum(residual**2, axis=1)))]
    for book, ids in zip(books, rvq_encode(frames, books).tokens.T):
        residual -= book[ids - 1]
        profile.append(float(np.mean(np.sum(residual**2, axis=1))))
    return np.asarray(profile)
