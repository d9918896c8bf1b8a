"""Synthetic residual vector quantizer producing correlated K-stream token grids.

Stage k of the cascade is a plain codebook fit by k-means on the residual
error left by stages 1..k-1, so streams are correlated and the first stage
carries most of the energy. Everything is deterministic given a seed:
nearest-neighbor ties break toward the lowest centroid index and empty
k-means clusters are reseeded from the farthest points.

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


@dataclass(frozen=True)
class Codebook:
    centroids: np.ndarray  # (M, d_latent)

    def __post_init__(self) -> None:
        object.__setattr__(self, "centroids", checked_array(self.centroids, "codebook centroids", 2))

    @property
    def M(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class LatentFrames:
    frames: np.ndarray  # (T, d_latent)

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", checked_array(self.frames, "latent frames", 2))

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def d(self) -> int:
        return self.frames.shape[1]


AR1_COEFF = 0.95  # lag-1 autocorrelation of synthetic latents


def _ar1_latents(T: int, d_latent: int, seeds) -> np.ndarray:
    """(len(seeds), T, d_latent) walks: each walk's normals come from its own
    seed, then one recursion steps all walks at once."""
    z = np.stack([np.random.default_rng(s).standard_normal((T, d_latent)) for s in seeds])
    frames = np.empty_like(z)
    frames[:, 0] = z[:, 0]
    step_scale = np.sqrt(1.0 - AR1_COEFF**2)
    for t in range(1, T):
        frames[:, t] = AR1_COEFF * frames[:, t - 1] + step_scale * z[:, t]
    return frames


def synth_latents(T: int, d_latent: int, seed: int) -> LatentFrames:
    """Stationary AR(1) walk: x_t = a x_{t-1} + sqrt(1-a^2) z_t with
    a = AR1_COEFF, unit marginal variance, lag-1 autocorrelation ~= a."""
    if T < 1:
        raise ValidationError("T must be >= 1")
    return LatentFrames(frames=_ar1_latents(T, d_latent, [seed])[0])


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
    frames: LatentFrames, config: RVQConfig, iterations: int = 25, seed: int = 0
) -> tuple[list[Codebook], np.ndarray]:
    """Fit the K-stage cascade: stage k runs k-means on the residuals of 1..k-1.
    Returns the books and the frames' (T, K) codes, rvq_encode's 1-based tokens."""
    if frames.T < config.M:
        raise ValidationError(
            f"insufficient data: {frames.T} frames < {config.M} centroids per stage"
        )
    if frames.d != config.d_latent:
        raise ValidationError(f"frames are {frames.d}-dim, config expects {config.d_latent}")
    rng = np.random.default_rng(seed)
    residual = frames.frames.copy()
    books: list[Codebook] = []
    tokens = np.empty((frames.T, config.K), dtype=np.int64)
    for k in range(config.K):
        centroids, labels = _kmeans(residual, config.M, iterations, rng)
        books.append(Codebook(centroids=centroids))
        tokens[:, k] = labels + 1
        residual -= centroids[labels]
    return books, tokens


def _check_books(codebooks: list[Codebook]) -> tuple[int, int]:
    if not codebooks:
        raise ValidationError("need at least one codebook stage")
    M, d = codebooks[0].M, codebooks[0].d
    for b in codebooks:
        if b.M != M or b.d != d:
            raise ValidationError("all codebook stages must share M and d_latent")
    return M, d


def rvq_encode(frames: LatentFrames, codebooks: list[Codebook]) -> TokenGrid:
    """Greedy residual encoding; the grid holds 1-based token ids."""
    M, d = _check_books(codebooks)
    if frames.d != d:
        raise ValidationError(f"frames are {frames.d}-dim, codebooks are {d}-dim")
    residual = frames.frames.copy()
    tokens = np.empty((frames.T, len(codebooks)), dtype=np.int64)
    for k, book in enumerate(codebooks):
        idx = _nearest(residual, book.centroids)
        tokens[:, k] = idx + 1
        residual -= book.centroids[idx]
    return TokenGrid(tokens=tokens, M=M)


def rvq_decode(grid: TokenGrid, codebooks: list[Codebook]) -> LatentFrames:
    """Reconstruct frames as the sum of the selected centroids per stage."""
    M, d = _check_books(codebooks)
    if grid.K > len(codebooks):
        raise ValidationError(f"grid has {grid.K} streams but only {len(codebooks)} stages given")
    if grid.M > M:
        raise ValidationError(f"grid vocabulary {grid.M} exceeds codebook size {M}")
    out = np.zeros((grid.T, d))
    for k in range(grid.K):
        out += codebooks[k].centroids[grid.tokens[:, k] - 1]
    return LatentFrames(frames=out)


def residual_energy_profile(frames: LatentFrames, codebooks: list[Codebook]) -> np.ndarray:
    """Mean squared residual norm after 0..K stages (entry 0 = raw energy).

    Nonincreasing whenever frames come from the corpus the cascade was fit on;
    out-of-distribution frames get no hard guarantee.
    """
    grid = rvq_encode(frames, codebooks)
    residual = frames.frames.copy()
    profile = [float(np.mean(np.sum(residual**2, axis=1)))]
    for book, ids in zip(codebooks, grid.tokens.T):
        residual -= book.centroids[ids - 1]
        profile.append(float(np.mean(np.sum(residual**2, axis=1))))
    return np.asarray(profile)

