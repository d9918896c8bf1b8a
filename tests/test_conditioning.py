import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenweave import conditioning
from tokenweave.conditioning import (
    Chromagram,
    AudioBuffer,
    Chromagram,
    ConditioningTensor,
    QuantizedChroma,
    chroma_cosine_similarity,
    chroma_to_condition,
    compute_chromagram,
    draw_condition_drop,
    encode_text_toy,
    load_wav,
    merge_conditions,
    pitch_class_of_frequency,
    quantize_chroma,
    quantized_chroma_to_json,
    save_wav,
    text_normalize,
    word_dropout,
)
from tokenweave.errors import ValidationError


def sine(freq, seconds=2.0, rate=32000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioBuffer(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate)


def test_pitch_class_formula_anchors():
    # independent closed-form oracle values for common tunings
    assert pitch_class_of_frequency(440.0) == 9  # A4
    assert pitch_class_of_frequency(880.0) == 9  # octave above
    assert pitch_class_of_frequency(261.626) == 0  # C4
    assert pitch_class_of_frequency(329.628) == 4  # E4
    assert pitch_class_of_frequency(32.7) == 0  # C1
    # an array of frequencies maps element by element, as the chromagram's
    # bins use it
    freqs = np.array([440.0, 880.0, 261.626, 329.628, 32.7])
    assert pitch_class_of_frequency(freqs).tolist() == [9, 9, 0, 4, 0]
    for bad in (0.0, -1.0, np.nan, np.inf, freqs - 100.0):
        with pytest.raises(ValidationError, match="positive and finite"):
            pitch_class_of_frequency(bad)


@pytest.mark.parametrize("freq", [440.0, 880.0])
def test_pure_tone_maps_every_frame_to_class_9(freq):
    chroma = compute_chromagram(sine(freq))
    classes = quantize_chroma(chroma).classes
    assert chroma.F >= 10
    assert (classes == 9).all()


def test_tone_matches_formula_for_other_pitches():
    for freq in (261.626, 329.628, 523.25):
        classes = quantize_chroma(compute_chromagram(sine(freq))).classes
        assert (classes == pitch_class_of_frequency(freq)).all()


def test_octave_invariance():
    a = quantize_chroma(compute_chromagram(sine(220.0)))
    b = quantize_chroma(compute_chromagram(sine(440.0)))
    assert np.array_equal(a.classes, b.classes)


def test_silence_gives_zero_chromagram():
    silent = AudioBuffer(samples=np.zeros(2**15), sample_rate=32000)
    chroma = compute_chromagram(silent)
    assert np.all(chroma.frames == 0.0)
    # tie rule: all-zero frames quantize to class 0
    assert (quantize_chroma(chroma).classes == 0).all()


def test_chromagram_rejects_short_audio():
    short = AudioBuffer(samples=np.zeros(100), sample_rate=32000)
    with pytest.raises(ValidationError, match="shorter"):
        compute_chromagram(short)


def test_quantize_single_peak_and_tie():
    frames = np.zeros((2, 12))
    frames[0, 9] = 5.0
    q = quantize_chroma(Chromagram(frames=frames))
    assert q.classes.tolist() == [9, 0]


def test_similarity_self_and_disjoint():
    a = QuantizedChroma(classes=np.array([0, 5, 9, 9]))
    b = QuantizedChroma(classes=np.array([1, 6, 10, 10]))
    assert chroma_cosine_similarity(a, a) == 1.0
    assert chroma_cosine_similarity(a, b) == 0.0
    assert chroma_cosine_similarity(a, b) == chroma_cosine_similarity(b, a)


def test_similarity_truncates_to_shorter():
    a = QuantizedChroma(classes=np.array([3, 3, 3, 3]))
    b = QuantizedChroma(classes=np.array([3, 3]))
    assert chroma_cosine_similarity(a, b) == 1.0


def test_similarity_empty_error():
    empty = QuantizedChroma(classes=np.zeros(0, dtype=int))
    with pytest.raises(ValidationError):
        chroma_cosine_similarity(empty, empty)


def test_similarity_random_sequences_near_one_twelfth():
    rng = np.random.default_rng(0)
    a = QuantizedChroma(classes=rng.integers(0, 12, size=10000))
    b = QuantizedChroma(classes=rng.integers(0, 12, size=10000))
    assert abs(chroma_cosine_similarity(a, b) - 1.0 / 12.0) < 0.01


def test_merge_no_tags_identity():
    for seed in range(20):
        assert merge_conditions("calm piano piece", {}, np.random.default_rng(seed)) == "calm piano piece"


def test_merge_tags_only_when_description_dropped(monkeypatch):
    monkeypatch.setattr(conditioning, "MERGE_PROB", 1.0)
    monkeypatch.setattr(conditioning, "DESCRIPTION_DROPOUT", 1.0)
    out = merge_conditions("calm piano", {"bpm": "90", "key": "C"}, np.random.default_rng(0))
    assert out == "bpm: 90, key: C"


def test_merge_appends_sorted_tags(monkeypatch):
    monkeypatch.setattr(conditioning, "MERGE_PROB", 1.0)
    monkeypatch.setattr(conditioning, "DESCRIPTION_DROPOUT", 0.0)
    out = merge_conditions("calm piano", {"key": "C", "bpm": "90"}, np.random.default_rng(0))
    assert out == "calm piano, bpm: 90, key: C"


def test_merge_frequency_monte_carlo():
    fired = sum(
        merge_conditions("desc", {"bpm": "90"}, np.random.default_rng(seed)) != "desc"
        for seed in range(100000)
    )
    assert abs(fired / 100000 - 0.25) < 0.01


def test_word_dropout_identities(monkeypatch):
    monkeypatch.setattr(conditioning, "WORD_DROPOUT", 0.0)
    assert word_dropout("a  b   c", np.random.default_rng(0)) == "a b c"
    monkeypatch.setattr(conditioning, "WORD_DROPOUT", 1.0)
    assert word_dropout("one two three", np.random.default_rng(0)) == ""


def test_word_dropout_deterministic():
    text = " ".join(f"w{i}" for i in range(20))
    a = word_dropout(text, np.random.default_rng(5))
    b = word_dropout(text, np.random.default_rng(5))
    assert a == b


def test_word_dropout_binomial_expectation():
    text = " ".join(f"w{i}" for i in range(10))
    total = 0
    trials = 100000
    for seed in range(trials):
        total += len(word_dropout(text, np.random.default_rng(seed)).split())
    assert abs(total / trials - 7.0) < 0.05


def _parent_pipeline(description, tags, rng):
    """The text pipeline as it ran when its rates were settings, at their
    defaults (merge 0.25, description drop 0.5, word drop 0.3)."""
    text = description
    if tags and rng.random() < 0.25:
        tag_parts = [f"{k}: {tags[k]}" for k in sorted(tags)]
        if rng.random() < 0.5 or not description:
            text = ", ".join(tag_parts)
        else:
            text = ", ".join([description] + tag_parts)
    return " ".join([w for w in text_normalize(text).split() if rng.random() >= 0.3])


def test_text_pipeline_keeps_the_draws_of_the_configurable_rates():
    cases = [
        ("synthetic ar1 clip 3", {"index": "3", "family": "ar1"}),
        ("calm piano, the strings are playing", {"bpm": "90", "key": "C"}),
        ("", {"mood": "dark"}),
        ("no tags at all", {}),
    ]
    for seed in range(200):
        for description, tags in cases:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = word_dropout(text_normalize(merge_conditions(description, tags, rng)), rng)
            assert got == _parent_pipeline(description, tags, ref_rng), (seed, description)
            # the generators stand at the same place, so the next draws agree too
            assert rng.random() == ref_rng.random()


def test_text_normalize_example():
    assert text_normalize("the guitars are playing") == "guitar play"


def test_text_normalize_empty_and_punct():
    assert text_normalize("") == ""
    assert text_normalize("The Drums, loudly!") == "drum loudly"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_text_normalize_idempotent(text):
    once = text_normalize(text)
    assert text_normalize(once) == once


def test_encode_text_toy_deterministic_and_unit():
    a = encode_text_toy("warm analog synth", D=16)
    b = encode_text_toy("warm analog synth", D=16)
    assert np.array_equal(a.rows, b.rows)
    assert a.T_C == 3
    assert np.allclose(np.linalg.norm(a.rows, axis=1), 1.0, atol=1e-9)
    # same token anywhere gives the same row
    c = encode_text_toy("synth synth", D=16)
    assert np.array_equal(c.rows[0], c.rows[1])


def uncached_token_unit_vector(token, D):
    """The per-occurrence draw the cached one must reproduce bit for bit."""
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
    v = np.random.default_rng(seed).standard_normal(D)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v[0] = 1.0
        norm = 1.0
    return v / norm


@pytest.mark.parametrize("D", [1, 2, 16, 48, 64])
def test_encode_text_toy_rows_are_the_uncached_draws(D):
    text = "warm analog synth warm pad index: 7 ünïcode synth 42"
    rows = encode_text_toy(text, D).rows
    assert rows.flags.writeable
    for row, token in zip(rows, text.split(), strict=True):
        assert row.tobytes() == uncached_token_unit_vector(token, D).tobytes()
    # a caller that writes to its rows changes no later encoding
    rows[:] = 0.0
    again = encode_text_toy(text, D).rows
    assert again.tobytes() == np.stack(
        [uncached_token_unit_vector(t, D) for t in text.split()]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        conditioning._token_unit_vector("warm", D)[0] = 0.0


def test_token_cache_is_bounded():
    bound = conditioning._TOKEN_CACHE_SIZE
    assert conditioning._token_unit_vector.cache_info().maxsize == bound
    words = [f"w{i}" for i in range(bound + 5)]
    rows = encode_text_toy(" ".join(words), D=2).rows
    assert conditioning._token_unit_vector.cache_info().currsize == bound
    # the evicted first words are drawn again, to the same bits
    first = encode_text_toy(" ".join(words[:5]), D=2).rows
    assert first.tobytes() == rows[:5].tobytes()


def test_encode_text_toy_empty_is_null_condition():
    t = encode_text_toy("", D=8)
    assert t.T_C == 0
    assert t.D == 8


def test_chroma_to_condition_shapes_and_null_row():
    q = QuantizedChroma(classes=np.array([4, 4, 9]))
    t = chroma_to_condition(q, D=12)
    assert t.rows.shape == (3, 12)
    assert np.array_equal(t.rows[0], t.rows[1])
    assert not np.array_equal(t.rows[0], t.rows[2])
    # no class id stands for "condition dropped": the null condition is None
    with pytest.raises(ValidationError):
        chroma_to_condition([12], D=12)


def test_apply_condition_dropout_frequency():
    dropped = sum(draw_condition_drop(0.2, np.random.default_rng(seed)) for seed in range(100000))
    assert abs(dropped / 100000 - 0.2) < 0.01
    # p = 0 draws nothing, so seeded training without dropout keeps its stream
    rng = np.random.default_rng(5)
    assert not draw_condition_drop(0.0, rng)
    assert rng.random() == np.random.default_rng(5).random()


def test_wav_roundtrip_mono_and_stereo_downmix(tmp_path):
    buf = sine(440.0, seconds=0.1)
    path = tmp_path / "tone.wav"
    save_wav(path, buf)
    back = load_wav(path)
    assert back.sample_rate == 32000
    assert np.allclose(back.samples, buf.samples, atol=1.0 / 32768.0)

    import wave

    stereo_path = tmp_path / "stereo.wav"
    left = np.round(0.5 * 32768.0 * np.ones(100)).astype("<i2")
    right = np.zeros(100, dtype="<i2")
    inter = np.empty(200, dtype="<i2")
    inter[0::2] = left
    inter[1::2] = right
    with wave.open(str(stereo_path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(inter.tobytes())
    mixed = load_wav(stereo_path)
    assert np.allclose(mixed.samples, 0.25, atol=1e-4)


def test_load_wav_rejects_non_16bit(tmp_path):
    import wave

    path = tmp_path / "bad.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(8000)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(ValidationError, match="16-bit"):
        load_wav(path)


def test_quantized_chroma_json_roundtrip():
    q = QuantizedChroma(classes=np.array([0, 9, 11, 3]))
    assert quantized_chroma_to_json(q) == "[0, 9, 11, 3]"


def test_conditioning_tensor_validation():
    with pytest.raises(ValidationError):
        ConditioningTensor(rows=np.array([[np.inf, 0.0]]))


def test_chromagram_at_non_default_sample_rate():
    rate = 22050
    t = np.arange(2 * rate) / rate
    audio = AudioBuffer(samples=0.4 * np.sin(2 * np.pi * 329.628 * t), sample_rate=rate)
    q = quantize_chroma(compute_chromagram(audio, window=8192, hop=2048))
    assert (q.classes == 4).all()  # E, by the closed-form mapping
