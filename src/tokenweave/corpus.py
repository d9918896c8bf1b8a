"""Synthetic training corpora: AR(1) latents quantized by a freshly fit cascade.

A corpus is built as whole-corpus arrays: its latents are one (n, T, d) array
from synth_latents, sequence i walking from seed + i, and its cascade is the
one (K, M, d) array train_codebooks fits on the pooled frames (each k-means
fit computes their squared norms once). The codes the fit returns for those
frames, the tokens an encode under the fitted books gives, are split into the
grids (at T = 1 a rounding tie may resolve otherwise than in a one-row encode
of the sequence alone).

share_first_frame forces every sequence to open with the same latent frame
(hence the same token row), which keeps 1-token prompts ambiguous in the
memorization experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .patterns import TokenGrid
from .rvq import RVQConfig, synth_latents, train_codebooks

CODEBOOK_ITERATIONS = 20  # k-means iterations per stage of the corpus quantizer


@dataclass(frozen=True)
class Corpus:
    grids: tuple[TokenGrid, ...]
    latents: np.ndarray  # (n, T, d_latent)
    codebooks: np.ndarray  # (K, M, d_latent)


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
    latents = synth_latents(T, config.d_latent, range(seed, seed + n_sequences))
    if share_first_frame:
        latents[1:, 0] = latents[0, 0]
    pooled = latents.reshape(-1, config.d_latent)
    codebooks, codes = train_codebooks(pooled, config, iterations=CODEBOOK_ITERATIONS, seed=seed)
    tokens = codes.reshape(n_sequences, T, config.K)
    return Corpus(
        grids=tuple(TokenGrid(tokens=t, M=config.M) for t in tokens),
        latents=latents,
        codebooks=codebooks,
    )
