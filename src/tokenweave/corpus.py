"""Synthetic training corpora: AR(1) latents quantized by a freshly fit cascade.

A corpus is built as whole-corpus arrays. Sequence i draws its normals from
seed + i, as synth_latents does, and one AR(1) recursion steps all sequences
at once. The cascade is fit on the pooled frames (each k-means fit computes
their squared norms once), and one encode of those frames is split into the
grids (at T = 1 a rounding tie may resolve otherwise than in a one-row encode
of the sequence alone).

share_first_frame forces every sequence to open with the same latent frame
(hence the same token row), which keeps 1-token prompts ambiguous in the
memorization experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .patterns import TokenGrid
from .rvq import Codebook, LatentFrames, RVQConfig, _ar1_latents, rvq_encode, train_codebooks

CODEBOOK_ITERATIONS = 20  # k-means iterations per stage of the corpus quantizer


@dataclass(frozen=True)
class Corpus:
    grids: tuple[TokenGrid, ...]
    latents: tuple[LatentFrames, ...]
    codebooks: tuple[Codebook, ...]


def make_corpus(
    n_sequences: int,
    T: int,
    config: RVQConfig,
    seed: int = 0,
    share_first_frame: bool = False,
) -> Corpus:
    for name, value in (("n_sequences", n_sequences), ("T", T)):
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    frames = _ar1_latents(T, config.d_latent, range(seed, seed + n_sequences))
    if share_first_frame:
        frames[1:, 0] = frames[0, 0]
    pooled = LatentFrames(frames=frames.reshape(-1, config.d_latent))
    codebooks = train_codebooks(pooled, config, iterations=CODEBOOK_ITERATIONS, seed=seed)
    tokens = rvq_encode(pooled, codebooks).tokens.reshape(n_sequences, T, config.K)
    return Corpus(
        grids=tuple(TokenGrid(tokens=t, M=config.M) for t in tokens),
        latents=tuple(LatentFrames(frames=f) for f in frames),
        codebooks=tuple(codebooks),
    )
