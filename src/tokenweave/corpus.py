"""Synthetic training corpora: AR(1) latents quantized by a freshly fit cascade.

share_first_frame forces every sequence to open with the same latent frame
(hence the same token row), which keeps 1-token prompts ambiguous in the
memorization experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import TokenGrid
from .rvq import Codebook, LatentFrames, RVQConfig, rvq_encode, synth_latents, train_codebooks

CODEBOOK_ITERATIONS = 20  # k-means iterations per stage of the corpus quantizer


@dataclass(frozen=True)
class Corpus:
    grids: tuple[TokenGrid, ...]
    latents: tuple[LatentFrames, ...]
    codebooks: tuple[Codebook, ...]
    config: RVQConfig


def make_corpus(
    n_sequences: int,
    T: int,
    config: RVQConfig,
    seed: int = 0,
    share_first_frame: bool = False,
) -> Corpus:
    latents = [synth_latents(T, config.d_latent, seed=seed + i) for i in range(n_sequences)]
    if share_first_frame and n_sequences > 1:
        first = latents[0].frames[0]
        latents = [
            LatentFrames(frames=np.vstack([first[None, :], lf.frames[1:]])) for lf in latents
        ]
    pooled = LatentFrames(frames=np.vstack([lf.frames for lf in latents]))
    codebooks = train_codebooks(pooled, config, iterations=CODEBOOK_ITERATIONS, seed=seed)
    grids = [rvq_encode(lf, codebooks) for lf in latents]
    return Corpus(
        grids=tuple(grids),
        latents=tuple(latents),
        codebooks=tuple(codebooks),
        config=config,
    )
