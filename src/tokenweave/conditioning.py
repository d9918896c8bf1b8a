"""Melody and text conditioning.

Melody: short-time chromagrams (12 pitch classes, A4 = 440 Hz reference)
quantized to the per-frame argmax class, which is the information bottleneck
fed to the decoder. Text: the normalization / condition-merging / word-dropout
pipeline plus a deterministic hash-seeded toy embedder standing in for a
pretrained encoder. All stochastic ops take an explicit numpy Generator and
are reproducible from its seed.
"""

from __future__ import annotations

import hashlib
import string
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

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
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValidationError("audio samples must be 1-D (mono)")
        if not np.isfinite(s).all():
            raise ValidationError("audio samples must be finite")
        if self.sample_rate <= 0:
            raise ValidationError("sample_rate must be positive")
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class Chromagram:
    frames: np.ndarray  # (F, 12) nonnegative energies, C..B
    frame_hop_seconds: float

    def __post_init__(self) -> None:
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != PITCH_CLASSES:
            raise ValidationError(f"chromagram needs shape (F, {PITCH_CLASSES})")
        if f.size and f.min() < 0:
            raise ValidationError("chromagram energies must be nonnegative")
        object.__setattr__(self, "frames", f)

    @property
    def F(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class QuantizedChroma:
    classes: np.ndarray  # (F,) ints in 0..11

    def __post_init__(self) -> None:
        c = np.asarray(self.classes, dtype=np.int64)
        if c.ndim != 1:
            raise ValidationError("quantized chroma must be 1-D")
        if c.size and (c.min() < 0 or c.max() >= PITCH_CLASSES):
            raise ValidationError(f"pitch classes must lie in 0..{PITCH_CLASSES - 1}")
        object.__setattr__(self, "classes", c)

    @property
    def F(self) -> int:
        return self.classes.shape[0]


@dataclass(frozen=True)
class TextAnnotation:
    description: str = ""
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PreprocessConfig:
    merge_prob: float = 0.25
    description_dropout: float = 0.5
    word_dropout: float = 0.3

    def __post_init__(self) -> None:
        for name in ("merge_prob", "description_dropout", "word_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class ConditioningTensor:
    """T_C rows of dimension D. Zero rows condition on nothing, exactly like
    the null condition None."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=np.float64)
        if r.ndim != 2:
            raise ValidationError("conditioning tensor must be 2-D")
        if not np.isfinite(r).all():
            raise ValidationError("conditioning tensor must be finite")
        object.__setattr__(self, "rows", r)

    @property
    def T_C(self) -> int:
        return self.rows.shape[0]

    @property
    def D(self) -> int:
        return self.rows.shape[1]


def pitch_class_of_frequency(freq_hz: float) -> int:
    """Closed-form bin mapping: round(12*log2(f/440)) + 9 mod 12 (A = 9, C = 0)."""
    if freq_hz <= 0:
        raise ValidationError("frequency must be positive")
    return int(np.round(PITCH_CLASSES * np.log2(freq_hz / A4_HZ)) + 9) % PITCH_CLASSES


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
    classes = (
        np.round(PITCH_CLASSES * np.log2(freqs[valid] / A4_HZ)).astype(np.int64) + 9
    ) % PITCH_CLASSES
    fold = np.zeros((int(valid.sum()), PITCH_CLASSES))
    fold[np.arange(len(classes)), classes] = 1.0

    hann = np.hanning(window)
    n_frames = 1 + (n - window) // hop
    starts = np.arange(n_frames) * hop
    segments = np.stack([audio.samples[s : s + window] for s in starts]) * hann
    energy = np.abs(np.fft.rfft(segments, axis=1)) ** 2
    frames = energy[:, valid] @ fold
    return Chromagram(frames=frames, frame_hop_seconds=hop / audio.sample_rate)


def quantize_chroma(c: Chromagram) -> QuantizedChroma:
    """Argmax pitch class per frame; ties (and all-zero frames) take the lowest index."""
    if c.F == 0:
        return QuantizedChroma(classes=np.zeros(0, dtype=np.int64))
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


def merge_conditions(ann: TextAnnotation, cfg: PreprocessConfig, rng: np.random.Generator) -> str:
    """With probability merge_prob, append "key: value" tags (sorted by key) to
    the description; upon merging, drop the description itself with probability
    description_dropout. Without tags the description passes through unchanged."""
    if not ann.tags:
        return ann.description
    if rng.random() >= cfg.merge_prob:
        return ann.description
    tag_parts = [f"{k}: {ann.tags[k]}" for k in sorted(ann.tags)]
    if rng.random() < cfg.description_dropout or not ann.description:
        return ", ".join(tag_parts)
    return ", ".join([ann.description] + tag_parts)


def word_dropout(text: str, p: float = 0.3, rng: np.random.Generator | None = None) -> str:
    """Drop each whitespace-delimited word independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"dropout probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return text
    if rng is None:
        raise ValidationError("word_dropout with p > 0 needs a random generator")
    words = text.split()
    kept = [w for w in words if rng.random() >= p]
    return " ".join(kept)


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


def _token_unit_vector(token: str, D: int) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
    v = np.random.default_rng(seed).standard_normal(D)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # astronomically unlikely; keep the unit-norm contract anyway
        v[0] = 1.0
        norm = 1.0
    return v / norm


def encode_text_toy(text: str, D: int) -> ConditioningTensor:
    """One deterministic unit row per whitespace token, seeded by a hash of the
    token string. Empty text yields the T_C = 0 null condition."""
    if D < 1:
        raise ValidationError("D must be >= 1")
    tokens = text.split()
    if not tokens:
        return ConditioningTensor(rows=np.zeros((0, D)))
    return ConditioningTensor(rows=np.stack([_token_unit_vector(t, D) for t in tokens]))


def _class_embedding_table(D: int) -> np.ndarray:
    # one row per pitch class; a fixed seeded stand-in for a learned table
    rows = [np.random.default_rng(1000 + c).standard_normal(D) for c in range(PITCH_CLASSES)]
    table = np.stack(rows)
    return table / np.linalg.norm(table, axis=1, keepdims=True)


def chroma_to_condition(q: "QuantizedChroma | np.ndarray | list[int]", D: int) -> ConditioningTensor:
    """Embedding-table lookup of pitch classes 0..11, one row per frame."""
    if D < 1:
        raise ValidationError("D must be >= 1")
    classes = q.classes if isinstance(q, QuantizedChroma) else np.asarray(q, dtype=np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= PITCH_CLASSES):
        raise ValidationError(f"class ids must lie in 0..{PITCH_CLASSES - 1}")
    table = _class_embedding_table(D)
    return ConditioningTensor(rows=table[classes].reshape(len(classes), D))


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
    except wave.Error as exc:
        raise ValidationError(f"malformed WAV file: {exc}") from exc
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
