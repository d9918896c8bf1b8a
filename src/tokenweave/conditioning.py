"""Melody and text conditioning.

Melody: short-time chromagrams (12 pitch classes, A4 = 440 Hz reference)
quantized to the per-frame argmax class, which is the information bottleneck
fed to the decoder. Text: the normalization / condition-merging / word-dropout
pipeline plus a deterministic hash-seeded toy embedder standing in for a
pretrained encoder. The three augmentation rates are module constants
(MERGE_PROB, DESCRIPTION_DROPOUT, WORD_DROPOUT), not settings. All stochastic
ops take an explicit numpy Generator and are reproducible from its seed.
"""

from __future__ import annotations

import functools
import hashlib
import string
import wave
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_array

PITCH_CLASSES = 12
A4_HZ = 440.0
MIN_CHROMA_HZ = 32.7  # C1; spectral bins below this are ignored

DEFAULT_WINDOW = 2**14
DEFAULT_HOP = 2**12


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")
        object.__setattr__(self, "samples", checked_array(self.samples, "audio samples (mono)", 1))


@dataclass(frozen=True)
class Chromagram:
    frames: np.ndarray  # (F, 12) nonnegative energies, C..B

    def __post_init__(self) -> None:
        f = checked_array(self.frames, "chromagram energies", 2, low=0)
        if f.shape[1] != PITCH_CLASSES:
            raise ValidationError(f"chromagram needs shape (F, {PITCH_CLASSES})")
        object.__setattr__(self, "frames", f)

    @property
    def F(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class QuantizedChroma:
    classes: np.ndarray  # (F,) ints in 0..11

    def __post_init__(self) -> None:
        c = checked_array(self.classes, "pitch classes", 1, whole=True,
                          low=0, high=PITCH_CLASSES - 1)
        object.__setattr__(self, "classes", c)

    @property
    def F(self) -> int:
        return self.classes.shape[0]


@dataclass(frozen=True)
class ConditioningTensor:
    """T_C rows of dimension D. Zero rows condition on nothing, exactly like
    the null condition None."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", checked_array(self.rows, "conditioning tensor", 2))

    @property
    def T_C(self) -> int:
        return self.rows.shape[0]

    @property
    def D(self) -> int:
        return self.rows.shape[1]


def pitch_class_of_frequency(freq_hz):
    """Closed-form bin mapping: round(12*log2(f/440)) + 9 mod 12 (A = 9, C = 0);
    an int for one frequency, an int64 array for an array of them."""
    freq = np.asarray(freq_hz, dtype=np.float64)
    if not np.all((freq > 0) & np.isfinite(freq)):
        raise ValidationError("frequency must be positive and finite")
    semitones = np.round(PITCH_CLASSES * np.log2(freq / A4_HZ)).astype(np.int64)
    classes = (semitones + 9) % PITCH_CLASSES
    return int(classes) if classes.ndim == 0 else classes


def compute_chromagram(
    audio: AudioBuffer, window: int = DEFAULT_WINDOW, hop: int = DEFAULT_HOP
) -> Chromagram:
    """Hann-windowed STFT energy folded onto the 12 pitch classes per frame."""
    if window < 1 or hop < 1:
        raise ValidationError(f"window and hop must be >= 1, got window={window} hop={hop}")
    n = audio.samples.shape[0]
    if n < window:
        raise ValidationError(f"audio has {n} samples, shorter than one window of {window}")
    freqs = np.arange(window // 2 + 1) * (audio.sample_rate / window)
    valid = (freqs >= MIN_CHROMA_HZ) & (freqs < audio.sample_rate / 2)
    classes = pitch_class_of_frequency(freqs[valid])
    fold = np.zeros((int(valid.sum()), PITCH_CLASSES))
    fold[np.arange(len(classes)), classes] = 1.0

    hann = np.hanning(window)
    n_frames = 1 + (n - window) // hop
    starts = np.arange(n_frames) * hop
    segments = np.stack([audio.samples[s : s + window] for s in starts]) * hann
    energy = np.abs(np.fft.rfft(segments, axis=1)) ** 2
    frames = energy[:, valid] @ fold
    return Chromagram(frames=frames)


def quantize_chroma(c: Chromagram) -> QuantizedChroma:
    """Argmax pitch class per frame; ties (and all-zero frames) take the lowest index."""
    return QuantizedChroma(classes=np.argmax(c.frames, axis=1))


def chroma_cosine_similarity(a: QuantizedChroma, b: QuantizedChroma) -> float:
    """Mean one-hot frame agreement over the overlapping prefix, in [0, 1].

    One-hot frames make per-frame cosine either 1 (same class) or 0, so the
    metric reduces to the fraction of matching frames. The longer sequence is
    truncated to the shorter.
    """
    n = min(a.F, b.F)
    if n == 0:
        raise ValidationError("similarity of empty chroma sequences is undefined")
    return float(np.mean(a.classes[:n] == b.classes[:n]))


def merge_conditions(description: str, tags: dict[str, str], rng: np.random.Generator) -> str:
    """With probability MERGE_PROB, append "key: value" tags (sorted by key) to
    the description; upon merging, drop the description itself with probability
    DESCRIPTION_DROPOUT. Without tags the description passes through unchanged."""
    if not tags:
        return description
    if rng.random() >= MERGE_PROB:
        return description
    tag_parts = [f"{k}: {tags[k]}" for k in sorted(tags)]
    if rng.random() < DESCRIPTION_DROPOUT or not description:
        return ", ".join(tag_parts)
    return ", ".join([description] + tag_parts)


def word_dropout(text: str, rng: np.random.Generator) -> str:
    """Drop each whitespace-delimited word independently with probability WORD_DROPOUT."""
    return " ".join(w for w in text.split() if rng.random() >= WORD_DROPOUT)


# text augmentation rates: merge the tags, then drop the description; drop each word
MERGE_PROB = 0.25
DESCRIPTION_DROPOUT = 0.5
WORD_DROPOUT = 0.3

# fixed stop-word list; part of the text_normalize interface
STOP_WORDS = frozenset(
    """a an the and or but of in on at to with is are was were be being been
    it its this that these those for by from as so very""".split()
)

# suffix rewrite rules (suffix, replacement, minimum stem length), applied in
# order to a fixed point per word; also part of the interface
LEMMA_RULES: tuple[tuple[str, str, int], ...] = (
    ("ies", "y", 3),
    ("sses", "ss", 2),
    ("ing", "", 3),
    ("ed", "", 3),
    ("s", "", 3),
)

_PUNCT = string.punctuation


def _lemmatize_once(word: str) -> str:
    for suffix, repl, min_stem in LEMMA_RULES:
        if suffix == "s" and (word.endswith("ss") or word.endswith("us") or word.endswith("is")):
            continue
        if word.endswith(suffix) and len(word) - len(suffix) >= min_stem:
            return word[: -len(suffix)] + repl
    return word


def _strip_lemma_fixpoint(word: str) -> str:
    # alternate edge-punctuation stripping and suffix rewriting until stable;
    # every applied rule shortens the word, so this terminates
    while True:
        new = _lemmatize_once(word.strip(_PUNCT))
        if new == word:
            return word
        word = new


def text_normalize(text: str) -> str:
    """Lowercase, strip edge punctuation, drop stop words, lemmatize by the
    suffix rule table. Idempotent: stripping and rules run to a joint fixed
    point and stop words are filtered again after lemmatization."""
    out: list[str] = []
    for raw in text.split():
        word = raw.lower().strip(_PUNCT)
        if not word or word in STOP_WORDS:
            continue
        word = _strip_lemma_fixpoint(word)
        if word and word not in STOP_WORDS:
            out.append(word)
    return " ".join(out)


# distinct (word, D) pairs held; at D = 64 a full cache is about 0.6 MB
_TOKEN_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _token_unit_vector(token: str, D: int) -> np.ndarray:
    # cached: read-only, so no caller can change the row a later caller gets
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
    v = np.random.default_rng(seed).standard_normal(D)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


def encode_text_toy(text: str, D: int) -> ConditioningTensor:
    """One deterministic unit row per whitespace token, seeded by a hash of the
    token string and drawn once per process for each (token, D); the rows are
    stacked copies. Empty text yields the T_C = 0 null condition."""
    if D < 1:
        raise ValidationError("D must be >= 1")
    tokens = text.split()
    if not tokens:
        return ConditioningTensor(rows=np.zeros((0, D)))
    return ConditioningTensor(rows=np.stack([_token_unit_vector(t, D) for t in tokens]))


def _class_unit_rows(width: int, base: int) -> np.ndarray:
    # row c is a unit vector drawn from seed base + c; a stand-in for a learned table
    rows = [np.random.default_rng(base + c).standard_normal(width) for c in range(PITCH_CLASSES)]
    table = np.stack(rows)
    return table / np.linalg.norm(table, axis=1, keepdims=True)


def chroma_to_condition(q: "QuantizedChroma | np.ndarray | list[int]", D: int) -> ConditioningTensor:
    """Embedding-table lookup of pitch classes 0..11, one row per frame."""
    if D < 1:
        raise ValidationError("D must be >= 1")
    classes = (q if isinstance(q, QuantizedChroma) else QuantizedChroma(q)).classes
    table = _class_unit_rows(D, base=1000)
    return ConditioningTensor(rows=table[classes])


def draw_condition_drop(p: float, rng: np.random.Generator) -> bool:
    """True with probability p: the step trains on the null condition (None),
    which gives classifier-free guidance its unconditional branch. Draws from
    rng only when p > 0, so p = 0 leaves the stream untouched."""
    return p > 0.0 and rng.random() < p


def load_wav(path) -> AudioBuffer:
    """Read 16-bit PCM WAV; stereo is downmixed to mono by averaging."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise ValidationError(
                    f"only 16-bit PCM WAV is supported, got sample width {wf.getsampwidth()}"
                )
            channels = wf.getnchannels()
            if channels not in (1, 2):
                raise ValidationError(f"only mono or stereo WAV is supported, got {channels}")
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError, RuntimeError) as exc:
        # EOFError: the file ends inside its header; a bare RuntimeError: a chunk
        # size runs past the chunk, so wave's seek to the next chunk fails
        reason = str(exc) or ("truncated header" if isinstance(exc, EOFError) else "bad chunk size")
        raise ValidationError(f"malformed WAV file {path}: {reason}") from exc
    # a file cut inside its data keeps its whole frames
    raw = raw[: len(raw) - len(raw) % (2 * channels)]
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(samples=data, sample_rate=rate)


def save_wav(path, audio: AudioBuffer) -> None:
    clipped = np.clip(audio.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())


def quantized_chroma_to_json(q: QuantizedChroma) -> str:
    import json

    return json.dumps(q.classes.tolist())
