import itertools

import numpy as np
import pytest

from tokenweave import corpus
from tokenweave.corpus import CODEBOOK_ITERATIONS, make_corpus
from tokenweave.errors import ValidationError
from tokenweave.rvq import (
    AR1_COEFF,
    RVQConfig,
    rvq_decode,
    rvq_encode,
    synth_latents,
    train_codebooks,
)


def _per_step_latents(T, d_latent, seed):
    """One sequence's AR(1) walk, one frame per loop step."""
    z = np.random.default_rng(seed).standard_normal((T, d_latent))
    frames = np.empty_like(z)
    frames[0] = z[0]
    step_scale = np.sqrt(1.0 - AR1_COEFF**2)
    for t in range(1, T):
        frames[t] = AR1_COEFF * frames[t - 1] + step_scale * z[t]
    return frames


def _per_sequence_corpus(n, T, config, seed, share_first_frame):
    """The corpus built one sequence at a time: per-seed walks, vstack,
    train_codebooks for the books alone (its codes set aside), then one
    rvq_encode per sequence."""
    latents = [_per_step_latents(T, config.d_latent, seed + i) for i in range(n)]
    if share_first_frame and n > 1:
        first = latents[0][0]
        latents = [np.vstack([first[None, :], lf[1:]]) for lf in latents]
    pooled = np.vstack(latents)
    books, _ = train_codebooks(pooled, config, iterations=CODEBOOK_ITERATIONS, seed=seed)
    return latents, books, [rvq_encode(lf, books) for lf in latents]


@pytest.mark.parametrize("share_first_frame", [False, True])
@pytest.mark.parametrize("d", [1, 4, 8])
def test_whole_corpus_arrays_equal_the_per_sequence_construction(d, share_first_frame):
    """Latents and codebooks are bitwise those of the per-sequence build at
    every shape, and so are the grids for T >= 2.

    At T = 1 the per-sequence build encodes each frame as a one-row product,
    which rounds differently from the same row among others, so the pooled
    distances may differ in the last bits. Without share_first_frame the
    grids matched in every case tried and are pinned bitwise. With it every
    frame is one point, some centroids lie within rounding of it, and the
    pooled encode may pick another of them: there the grids are held to the
    same reconstruction up to rounding.
    """
    for n, T, seed in itertools.product((1, 5, 32), (1, 2, 24, 50), (0, 3)):
        for M in sorted({min(4, n * T), min(64, n * T)}):
            config = RVQConfig(K=3, M=M, d_latent=d)
            got = make_corpus(n, T, config, seed=seed, share_first_frame=share_first_frame)
            latents, books, grids = _per_sequence_corpus(n, T, config, seed, share_first_frame)
            case = (n, T, seed, M)
            assert got.latents.shape == (n, T, d) and got.codebooks.shape == (3, M, d), case
            assert all(np.array_equal(a, b) for a, b in zip(got.latents, latents)), case
            assert np.array_equal(got.codebooks, books), case
            assert len(got.grids) == n and all(g.tokens.shape == (T, 3) for g in got.grids)
            if T > 1 or not share_first_frame:
                assert all(np.array_equal(a.tokens, b.tokens)
                           for a, b in zip(got.grids, grids)), case
            else:
                for a, b in zip(got.grids, grids):
                    np.testing.assert_allclose(
                        rvq_decode(a, books), rvq_decode(b, books),
                        rtol=0.0, atol=1e-14,
                    )


@pytest.mark.parametrize("n,T,name", [(0, 4, "n_sequences"), (-2, 4, "n_sequences"),
                                      (3, 0, "T"), (3, -1, "T")])
def test_make_corpus_rejects_empty_shapes_before_drawing(monkeypatch, n, T, name):
    def no_draws(*args):
        raise AssertionError("latents drawn for an invalid shape")

    monkeypatch.setattr(corpus, "synth_latents", no_draws)
    with pytest.raises(ValidationError, match=name):
        make_corpus(n, T, RVQConfig(K=1, M=1, d_latent=2))


def test_synth_latents_equal_the_per_step_walk():
    for T, d, seed in itertools.product((1, 2, 24, 50), (1, 4, 8), (0, 7)):
        # one seed per walk: each walk of a batch is the walk its seed gives alone
        want = np.stack([_per_step_latents(T, d, s) for s in (seed, seed + 3)])
        assert np.array_equal(synth_latents(T, d, [seed, seed + 3]), want)
        assert np.array_equal(synth_latents(T, d, [seed])[0], want[0])
