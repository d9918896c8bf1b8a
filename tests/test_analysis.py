import numpy as np
import pytest

from tokenweave.analysis import (
    MemorizationReport,
    MemorizationRow,
    chroma_adherence,
    chroma_of_sonified,
    class_anchor_latents,
    latents_to_classes,
    memorization_report,
    pitch_class_frequency,
    sonify_classes,
)
from tokenweave.conditioning import (
    QuantizedChroma,
    chroma_cosine_similarity,
    chroma_to_condition,
    pitch_class_of_frequency,
)
from tokenweave.corpus import make_corpus
from tokenweave.errors import ValidationError
from tokenweave.model import ModelConfig, init_params
from tokenweave.patterns import PatternKind, TokenGrid
from tokenweave.rvq import Codebook, LatentFrames, RVQConfig, rvq_decode


def random_dataset(n=4, T=12, K=2, M=16, seed=0):
    rng = np.random.default_rng(seed)
    return [(TokenGrid(tokens=rng.integers(1, M + 1, size=(T, K)), M=M), None) for _ in range(n)]


def test_gen_len_zero_scores_one_by_convention():
    params = init_params(ModelConfig(K=2, M=16, D=16, L=1, H=2, max_steps=64), seed=0)
    report = memorization_report(params, random_dataset(), prompt_lens=[1, 4], gen_len=0)
    for row in report.rows:
        assert row.exact_match == 1.0
        assert row.partial_match == 1.0


def test_random_model_never_matches():
    # chance of 50 greedy hits on a 64-way vocabulary is ~64^-50
    params = init_params(ModelConfig(K=2, M=64, D=16, L=1, H=2, max_steps=128), seed=1)
    dataset = random_dataset(n=4, T=60, K=2, M=64, seed=2)
    report = memorization_report(params, dataset, prompt_lens=[1, 5], gen_len=50)
    for row in report.rows:
        assert row.exact_match == 0.0
        assert row.partial_match == 0.0


def test_partial_at_least_exact_and_structure():
    params = init_params(ModelConfig(K=2, M=8, D=16, L=1, H=2, max_steps=64), seed=3)
    dataset = random_dataset(n=3, T=10, K=2, M=8, seed=4)
    report = memorization_report(params, dataset, prompt_lens=[1, 2, 4], gen_len=4)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.partial_match >= row.exact_match
        assert row.n_examples == 3
    assert isinstance(report.exact_monotone, bool)


def test_report_rejects_oversized_spans():
    params = init_params(ModelConfig(K=2, M=8, D=16, L=1, H=2, max_steps=64), seed=0)
    with pytest.raises(ValidationError, match="exceeds"):
        memorization_report(params, random_dataset(T=6), prompt_lens=[4], gen_len=4)
    with pytest.raises(ValidationError, match="at least one"):
        memorization_report(params, [], prompt_lens=[1], gen_len=1)


def test_report_invariant_guard():
    with pytest.raises(ValidationError):
        MemorizationReport(
            rows=(MemorizationRow(prompt_len=1, exact_match=0.5, partial_match=0.25, n_examples=4),),
            exact_monotone=True,
            partial_monotone=True,
        )


def test_sonified_reference_is_recovered_exactly():
    rng = np.random.default_rng(0)
    ref = QuantizedChroma(classes=rng.integers(0, 12, size=40))
    measured = chroma_of_sonified(ref)
    assert np.array_equal(measured.classes, ref.classes)
    assert chroma_cosine_similarity(measured, ref) == 1.0


def test_transposed_sonification_scores_zero():
    rng = np.random.default_rng(1)
    ref = QuantizedChroma(classes=rng.integers(0, 12, size=25))
    shifted = QuantizedChroma(classes=(ref.classes + 1) % 12)
    assert chroma_cosine_similarity(chroma_of_sonified(shifted), ref) == 0.0


def test_pitch_class_frequency_inverts_classifier():
    for c in range(12):
        assert pitch_class_of_frequency(pitch_class_frequency(c)) == c


def test_sonify_shapes():
    q = QuantizedChroma(classes=np.array([0, 9, 5]))
    audio = sonify_classes(q)
    assert audio.samples.shape == (3 * 4096,)
    with pytest.raises(ValidationError):
        sonify_classes(QuantizedChroma(classes=np.zeros(0, dtype=int)))


def test_latents_to_classes_snaps_to_anchor():
    anchors = class_anchor_latents(6)
    latents = LatentFrames(frames=np.stack([anchors[3] * 1.01, anchors[7] * 0.97]))
    out = latents_to_classes(latents, anchors)
    assert out.classes.tolist() == [3, 7]


def test_class_tables_and_snap_match_their_reference_formulas():
    # test-local copies of the two seeded tables and the snap, as each module
    # spelled them before they shared one builder and rvq's nearest search
    def table(width, seed_base):
        rows = np.stack([np.random.default_rng(seed_base + c).standard_normal(width)
                         for c in range(12)])
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    for width in (1, 4, 16):
        anchors = class_anchor_latents(width)
        assert np.array_equal(anchors, table(width, 7000))
        assert np.array_equal(chroma_to_condition(np.arange(12), width).rows, table(width, 1000))
        frames = np.random.default_rng(width).standard_normal((300, width))
        d2 = (np.sum(frames**2, axis=1, keepdims=True) - 2.0 * frames @ anchors.T
              + np.sum(anchors**2, axis=1))
        got = latents_to_classes(LatentFrames(frames=frames), anchors).classes
        assert np.array_equal(got, np.argmin(d2, axis=1))


def test_chroma_adherence_closed_loop_through_rvq():
    # build codebooks whose stage-1 centroids sit exactly on the anchors, so a
    # grid of stage-1 tokens decodes onto the anchor lattice
    anchors = class_anchor_latents(4)
    books = [Codebook(centroids=anchors.copy())]
    classes = np.array([2, 2, 7, 11, 0])
    grid = TokenGrid(tokens=(classes + 1)[:, None], M=12)
    decoded = rvq_decode(grid, books)
    assert np.allclose(decoded.frames, anchors[classes])
    ref = QuantizedChroma(classes=classes)
    sim = chroma_adherence(grid, books, anchors, ref)
    assert sim == 1.0


def test_chroma_adherence_truncates_on_length_mismatch():
    anchors = class_anchor_latents(4)
    books = [Codebook(centroids=anchors.copy())]
    classes = np.array([2, 7, 11])
    grid = TokenGrid(tokens=(classes + 1)[:, None], M=12)
    ref = QuantizedChroma(classes=np.array([2, 7]))
    assert chroma_adherence(grid, books, anchors, ref) == 1.0


def test_corpus_share_first_frame():
    corpus = make_corpus(4, T=10, config=RVQConfig(K=2, M=8, d_latent=4), seed=0,
                         share_first_frame=True)
    first_rows = {tuple(g.tokens[0]) for g in corpus.grids}
    assert len(first_rows) == 1
    assert len({tuple(g.tokens[1]) for g in corpus.grids}) > 1
    assert len(corpus.grids) == 4 and corpus.grids[0].K == 2
