"""Every value that holds an array, and every entry that takes one (codec,
pitch classes, conditions), checks it through errors.checked_array: text,
ragged nesting, the wrong rank, NaN, inf and (for ids) fractions all raise
ValidationError, never a numpy error or a silent cast."""

from dataclasses import replace

import numpy as np
import pytest

from tokenweave.conditioning import (
    AudioBuffer,
    chroma_cosine_similarity,
    chroma_to_condition,
    latents_to_classes,
    quantized_chroma_to_json,
    sonify_classes,
)
from tokenweave.errors import ValidationError, checked_array
from tokenweave.model import ModelConfig, TrainExample, forward, grad, init_params
from tokenweave.oracle import JointDistribution
from tokenweave.patterns import Pattern, PatternKind, TokenGrid, build_pattern, revert_pattern
from tokenweave.rvq import RVQConfig, rvq_decode, rvq_encode, train_codebooks

TINY = ModelConfig(K=2, M=5, D=8, L=1, H=2, max_steps=8)
PARAMS = init_params(TINY, seed=0)
CROSS, PREFIX = (init_params(replace(TINY, conditioning_mode=m), seed=0)
                 for m in ("cross_attention", "prefix"))
PARALLEL = build_pattern(PatternKind.PARALLEL, 1, 2)
FRAMES = np.arange(6.0).reshape(3, 2)  # (T, d) latent frames
BOOKS = np.arange(8.0).reshape(2, 2, 2)  # (K, M, d) cascade

# name -> (build from an array, a good array, whether it holds whole ids)
HOLDERS = {
    "TokenGrid": (lambda a: TokenGrid(a, M=5), np.array([[1, 2], [3, 4]]), True),
    "Pattern": (Pattern, np.array([[1, 2], [2, 3]]), True),
    "revert_pattern": (lambda a: revert_pattern(PARALLEL, a, 5), np.array([[0, 0], [1, 2]]), True),
    "forward": (lambda a: forward(PARAMS, a), np.array([[0, 0], [1, 2]]), True),
    "grad": (lambda a: grad(PARAMS, [TrainExample(slots=a)]), np.array([[0, 0], [1, 2]]), True),
    "chroma_to_condition": (lambda a: chroma_to_condition(a, 4), np.array([1, 11]), True),
    "sonify_classes": (sonify_classes, np.array([1, 11]), True),
    "chroma_cosine_similarity-a": (lambda a: chroma_cosine_similarity(a, [1, 11]),
                                   np.array([1, 11]), True),
    "chroma_cosine_similarity-b": (lambda a: chroma_cosine_similarity([1, 11], a),
                                   np.array([1, 11]), True),
    "quantized_chroma_to_json": (quantized_chroma_to_json, np.array([1, 11]), True),
    "train_codebooks-frames": (lambda a: train_codebooks(a, RVQConfig(K=1, M=2, d_latent=2)),
                               FRAMES, False),
    "train_codebooks-index": (lambda a: train_codebooks(FRAMES, RVQConfig(K=1, M=2, d_latent=2),
                                                        index=a), np.array([0, 1, 2]), True),
    "rvq_encode-frames": (lambda a: rvq_encode(a, BOOKS), FRAMES, False),
    "rvq_encode-books": (lambda a: rvq_encode(FRAMES, a), BOOKS, False),
    "rvq_decode-books": (lambda a: rvq_decode(TokenGrid([[1, 2], [2, 1]], M=2), a), BOOKS, False),
    "latents_to_classes": (latents_to_classes, FRAMES, False),
    "AudioBuffer": (lambda a: AudioBuffer(a, sample_rate=8000), np.zeros(8), False),
    "forward-cross-condition": (lambda a: forward(CROSS, [[1, 2]], condition=a),
                                np.ones((2, 8)), False),
    "forward-prefix-condition": (lambda a: forward(PREFIX, [[1, 2]], condition=a),
                                 np.ones((2, 8)), False),
    "grad-condition": (lambda a: grad(CROSS, [TrainExample(slots=[[0, 0], [1, 2]], condition=a)]),
                       np.ones((2, 8)), False),
    "JointDistribution": (lambda a: JointDistribution(1, 1, 2, a), np.array([0.5, 0.5]), False),
}


def _ragged(good):
    rows = good.tolist()
    return [rows[0], rows[1:]] if good.ndim == 1 else [rows[0], rows[1][:-1]]


def _poisoned(good, value):
    bad = good.astype(np.float64)
    bad.flat[-1] = value
    return bad


BAD = {
    "text": lambda good: good.astype(str),
    "ragged": _ragged,
    "ndim": lambda good: good[None],
    "nan": lambda good: _poisoned(good, np.nan),
    "inf": lambda good: _poisoned(good, np.inf),
    "fraction": lambda good: good + 0.5,
}


@pytest.mark.parametrize("holder", HOLDERS)
def test_holder_accepts_its_good_array(holder):
    build, good, _ = HOLDERS[holder]
    build(good)


@pytest.mark.parametrize(
    "holder,bad",
    # real-valued holders take fractions
    [(h, b) for h, (_, _, whole) in HOLDERS.items() for b in BAD if whole or b != "fraction"],
)
def test_holder_rejects_malformed_arrays(holder, bad):
    build, good, _ = HOLDERS[holder]
    with pytest.raises(ValidationError):
        build(BAD[bad](good))


def test_fractional_ids_are_rejected_not_truncated():
    with pytest.raises(ValidationError, match="whole numbers"):
        forward(PARAMS, [[0, 0], [1.7, 2.2]])
    with pytest.raises(ValidationError, match="whole numbers"):
        chroma_to_condition([1.7, 11.9], 4)
    # whole floats are still ids
    assert np.array_equal(chroma_to_condition([1.0, 11.0], 4), chroma_to_condition([1, 11], 4))


def test_checked_array_returns_target_dtype_input_as_is():
    ids = np.array([[1, 2]], dtype=np.int64)
    rows = np.ones((2, 3))
    assert checked_array(ids, "ids", 2, whole=True, low=0, high=2) is ids
    assert checked_array(rows, "rows", 2) is rows
    assert checked_array([[1, 2]], "ids", 2, whole=True).dtype == np.int64
    assert checked_array(np.ones((1, 2), dtype=np.float32), "rows", 2).dtype == np.float64


@pytest.mark.parametrize(
    "kwargs,text",
    [({"low": 0, "high": 2}, r"lie in 0\.\.2"), ({"low": 3}, "be >= 3"), ({"high": 0}, "be <= 0")],
)
def test_checked_array_names_the_bounds_it_enforces(kwargs, text):
    with pytest.raises(ValidationError, match=f"ids must {text}"):
        checked_array([1, 3], "ids", 1, whole=True, **kwargs)
