"""Memorization analysis and sonification of generated grids.

Memorization: greedy-continue each training example from prompts of varying
length and report the fraction whose first-codebook continuation matches the
source exactly, and the fraction matching at least 80% of tokens. Monotone
trends across prompt lengths are reported (flagged on the report), never
asserted.

Sonification stands in for a neural vocoder: decoded latents snap to the
nearest of 12 fixed pitch-class anchor vectors and each class sounds as its
pure sine for one analysis window; it serves `generate --wav` and the
chromagram round trip of acceptance criterion 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import (
    A4_HZ,
    AudioBuffer,
    QuantizedChroma,
    _class_unit_rows,
    compute_chromagram,
)
from .errors import ValidationError
from .model import Parameters
from .patterns import PatternKind, TokenGrid, build_pattern
from .rvq import LatentFrames, _nearest
from .sampling import SamplerConfig, continue_from_prompt

PARTIAL_MATCH_THRESHOLD = 0.8
SONIFY_RATE = 32000
SONIFY_SEGMENT = 4096  # samples per frame; analysis uses window = hop = segment


@dataclass(frozen=True)
class MemorizationRow:
    prompt_len: int
    exact_match: float
    partial_match: float
    n_examples: int


@dataclass(frozen=True)
class MemorizationReport:
    rows: tuple[MemorizationRow, ...]
    exact_monotone: bool
    partial_monotone: bool

    def __post_init__(self) -> None:
        for row in self.rows:
            if not 0.0 <= row.exact_match <= row.partial_match <= 1.0:
                raise ValidationError("match fractions must satisfy 0 <= exact <= partial <= 1")


def memorization_report(
    params: Parameters,
    dataset: list[tuple[TokenGrid, object]],
    prompt_lens: list[int],
    gen_len: int,
    pattern_kind: PatternKind | str = PatternKind.DELAY,
) -> MemorizationReport:
    """Greedy prompted continuation; only codebook-1 tokens are compared.

    All K codebooks of the prompt region are teacher-forced. gen_len = 0 rows
    score 1.0 by convention (empty comparison).
    """
    if not dataset:
        raise ValidationError("memorization needs at least one example")
    if not prompt_lens:
        raise ValidationError("memorization needs at least one prompt length")
    if gen_len < 0 or min(prompt_lens, default=0) < 0:
        raise ValidationError("prompt lengths and gen_len must be nonnegative")
    # checked once, before any pattern table is laid out
    longest, shortest = max(prompt_lens), min(grid.T for grid, _ in dataset)
    if longest + gen_len > shortest:
        raise ValidationError(
            f"prompt {longest} + continuation {gen_len} exceeds grid length {shortest}"
        )
    greedy = SamplerConfig(temperature=0.0, guidance_scale=1.0)
    rows = []
    for prompt_len in prompt_lens:
        span = prompt_len + gen_len
        pattern = build_pattern(pattern_kind, span, params.config.K) if gen_len else None
        exact = 0
        partial = 0
        for grid, condition in dataset:
            if gen_len == 0:
                exact += 1
                partial += 1
                continue
            prompt = TokenGrid(tokens=grid.tokens[:prompt_len], M=grid.M)
            out = continue_from_prompt(params, pattern, prompt, condition=condition, cfg=greedy)
            got = out.tokens[prompt_len:span, 0]
            want = grid.tokens[prompt_len:span, 0]
            matches = int(np.sum(got == want))
            exact += int(matches == gen_len)
            partial += int(matches / gen_len >= PARTIAL_MATCH_THRESHOLD - 1e-12)
        n = len(dataset)
        rows.append(
            MemorizationRow(
                prompt_len=prompt_len,
                exact_match=exact / n,
                partial_match=partial / n,
                n_examples=n,
            )
        )
    ordered = sorted(rows, key=lambda r: r.prompt_len)
    exact_mono = all(b.exact_match >= a.exact_match for a, b in zip(ordered, ordered[1:]))
    partial_mono = all(b.partial_match >= a.partial_match for a, b in zip(ordered, ordered[1:]))
    return MemorizationReport(
        rows=tuple(rows),
        exact_monotone=exact_mono,
        partial_monotone=partial_mono,
    )


def class_anchor_latents(d_latent: int) -> np.ndarray:
    """12 fixed unit vectors, one per pitch class, for the latent -> class snap."""
    return _class_unit_rows(d_latent, base=7000)


def latents_to_classes(latents: LatentFrames) -> QuantizedChroma:
    """Nearest of the class_anchor_latents(latents.d) anchors per frame
    (Euclidean, ties to the lowest class)."""
    return QuantizedChroma(classes=_nearest(latents.frames, class_anchor_latents(latents.d)))


def pitch_class_frequency(pitch_class: int) -> float:
    """Render class c in the octave around A4: 440 * 2^((c-9)/12)."""
    return float(A4_HZ * 2.0 ** ((pitch_class - 9) / 12.0))


def sonify_classes(q: QuantizedChroma) -> AudioBuffer:
    """One pure-sine segment of SONIFY_SEGMENT samples per frame; the segment
    equals the analysis window so each chroma frame sees exactly one class."""
    if q.F == 0:
        raise ValidationError("nothing to sonify")
    pieces = []
    t = np.arange(SONIFY_SEGMENT) / SONIFY_RATE
    for c in q.classes:
        freq = pitch_class_frequency(int(c))
        pieces.append(0.5 * np.sin(2.0 * np.pi * freq * t))
    return AudioBuffer(samples=np.concatenate(pieces), sample_rate=SONIFY_RATE)


def chroma_of_sonified(q: QuantizedChroma) -> QuantizedChroma:
    audio = sonify_classes(q)
    return compute_chromagram(audio, window=SONIFY_SEGMENT, hop=SONIFY_SEGMENT)
