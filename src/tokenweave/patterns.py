"""Codebook interleaving patterns over multi-stream token grids.

A token grid holds T timesteps x K codebooks of discrete tokens. A pattern is
an ordered partition of the grid's coordinates into steps; an autoregressive
model predicts every coordinate of step s in parallel, conditioned on all
earlier steps. This module builds the standard pattern family (parallel,
delay, flatten and their partial/stereo variants), validates arbitrary
patterns, and applies/reverts them between grids and slot sequences.

Coordinates are 1-based. Token ids live in 1..M; id 0 is the reserved special
token that fills slots where a codebook is absent from a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

SPECIAL_TOKEN = 0


class Coord(NamedTuple):
    """1-based (timestep, codebook) position in a T x K grid."""

    t: int
    k: int


@dataclass(frozen=True)
class PatternStep:
    """One step of a pattern.

    Invariant (enforced by the builders and checked by validate_pattern, not
    by this constructor): no two coordinates share a codebook index.
    """

    coords: frozenset[Coord]


class PatternKind(str, Enum):
    PARALLEL = "parallel"
    DELAY = "delay"
    PARTIAL_DELAY = "partial_delay"
    FLATTEN = "flatten"
    PARTIAL_FLATTEN = "partial_flatten"
    COARSE_FIRST = "coarse_first"
    STEREO_DELAY = "stereo_delay"
    STEREO_PARTIAL_DELAY = "stereo_partial_delay"


STEREO_KINDS = frozenset({PatternKind.STEREO_DELAY, PatternKind.STEREO_PARTIAL_DELAY})

# Nominal step counts per kind, in units of T (flatten scales with K instead).
_NOMINAL_T_MULT = {
    PatternKind.PARALLEL: 1,
    PatternKind.DELAY: 1,
    PatternKind.PARTIAL_DELAY: 1,
    PatternKind.STEREO_DELAY: 1,
    PatternKind.STEREO_PARTIAL_DELAY: 1,
    PatternKind.PARTIAL_FLATTEN: 2,
    PatternKind.COARSE_FIRST: 2,
}


@dataclass(frozen=True, eq=False)
class Pattern:
    """Ordered partition of {1..T} x {1..K} into steps; steps[0] is empty.

    Immutable after construction. Flat coordinate index arrays are precomputed
    so apply/revert are single vectorized gathers.
    """

    steps: tuple[PatternStep, ...]
    T: int
    K: int
    kind: PatternKind | None = None
    _s_idx: np.ndarray = field(init=False, repr=False, compare=False)
    _t0: np.ndarray = field(init=False, repr=False, compare=False)
    _k0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s_idx: list[int] = []
        t0: list[int] = []
        k0: list[int] = []
        for s, step in enumerate(self.steps):
            for c in sorted(step.coords):
                s_idx.append(s)
                t0.append(c.t - 1)
                k0.append(c.k - 1)
        object.__setattr__(self, "_s_idx", np.asarray(s_idx, dtype=np.int64))
        object.__setattr__(self, "_t0", np.asarray(t0, dtype=np.int64))
        object.__setattr__(self, "_k0", np.asarray(k0, dtype=np.int64))

    @property
    def S(self) -> int:
        """Number of steps after the initial empty step."""
        return len(self.steps) - 1

    def presence_mask(self) -> np.ndarray:
        """Bool array of shape (S+1, K): True where codebook k occurs in step s."""
        mask = np.zeros((len(self.steps), self.K), dtype=bool)
        mask[self._s_idx, self._k0] = True
        return mask


@dataclass(frozen=True)
class TokenGrid:
    """T x K matrix of token ids in 1..M. Id 0 never appears in a grid."""

    tokens: np.ndarray
    M: int

    def __post_init__(self) -> None:
        tok = np.asarray(self.tokens, dtype=np.int64)
        if tok.ndim != 2:
            raise ValidationError(f"grid tokens must be 2-D, got shape {tok.shape}")
        if self.M < 1:
            raise ValidationError("M must be >= 1")
        if tok.size and (tok.min() < 1 or tok.max() > self.M):
            raise ValidationError(f"grid tokens must lie in 1..{self.M}")
        object.__setattr__(self, "tokens", tok)

    @property
    def T(self) -> int:
        return self.tokens.shape[0]

    @property
    def K(self) -> int:
        return self.tokens.shape[1]


@dataclass(frozen=True)
class InterleavedSequence:
    """(S+1) x K slot layout produced by a pattern; row 0 is all-special.

    Slot (s, k) holds the grid token when codebook k occurs in step s and the
    special token SPECIAL_TOKEN = 0 otherwise, so every slot lies in 0..M.
    """

    slots: np.ndarray
    M: int

    def __post_init__(self) -> None:
        slots = np.asarray(self.slots, dtype=np.int64)
        if slots.ndim != 2:
            raise ValidationError(f"slots must be 2-D, got shape {slots.shape}")
        if slots.size and (slots.min() < SPECIAL_TOKEN or slots.max() > self.M):
            raise ValidationError(f"slots must lie in {SPECIAL_TOKEN}..{self.M}")
        object.__setattr__(self, "slots", slots)

    @property
    def S(self) -> int:
        return self.slots.shape[0] - 1

    @property
    def K(self) -> int:
        return self.slots.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


class StepCounts(NamedTuple):
    exact: int
    nominal: int


def _delay_profile(kind: PatternKind, K: int) -> list[int]:
    """Per-codebook step delay for the delay-style kinds."""
    if kind is PatternKind.PARALLEL:
        return [0] * K
    if kind is PatternKind.DELAY:
        return [k - 1 for k in range(1, K + 1)]
    if kind is PatternKind.PARTIAL_DELAY:
        return [0] + [1] * (K - 1)
    if kind is PatternKind.STEREO_PARTIAL_DELAY:
        # channels interleave [L1, R1, L2, R2, ...]; both channels of level l
        # are delayed by l-1
        return [(k + 1) // 2 - 1 for k in range(1, K + 1)]
    if kind is PatternKind.STEREO_DELAY:
        # left channel of level l delayed by l-1, right channel by l
        return [(k + 1) // 2 - 1 if k % 2 == 1 else (k + 1) // 2 for k in range(1, K + 1)]
    raise ValidationError(f"{kind} is not a delay-style pattern")


def build_pattern(kind: PatternKind | str, T: int, K: int) -> Pattern:
    """Construct one of the standard interleaving patterns for a T x K grid."""
    kind = PatternKind(kind)
    if T < 1:
        raise ValidationError(f"cannot build {kind.value} pattern: T must be >= 1, got {T}")
    if K < 1:
        raise ValidationError(f"cannot build {kind.value} pattern: K must be >= 1, got {K}")
    if kind in STEREO_KINDS and K % 2 != 0:
        raise ValidationError(
            f"cannot build {kind.value} pattern: stereo kinds need an even K, got {K}"
        )

    raw_steps: list[set[Coord]]
    if kind is PatternKind.FLATTEN:
        raw_steps = [{Coord(t, k)} for t in range(1, T + 1) for k in range(1, K + 1)]
    elif kind is PatternKind.PARTIAL_FLATTEN:
        raw_steps = []
        for t in range(1, T + 1):
            raw_steps.append({Coord(t, 1)})
            raw_steps.append({Coord(t, k) for k in range(2, K + 1)})
    elif kind is PatternKind.COARSE_FIRST:
        raw_steps = [{Coord(t, 1)} for t in range(1, T + 1)]
        raw_steps += [{Coord(t, k) for k in range(2, K + 1)} for t in range(1, T + 1)]
    else:
        delays = _delay_profile(kind, K)
        S = T + max(delays)
        raw_steps = []
        for s in range(1, S + 1):
            coords = {Coord(s - d, k + 1) for k, d in enumerate(delays) if 1 <= s - d <= T}
            raw_steps.append(coords)

    steps = [PatternStep(frozenset())]
    steps += [PatternStep(frozenset(c)) for c in raw_steps if c]
    return Pattern(steps=tuple(steps), T=T, K=K, kind=kind)


def validate_pattern(pattern: Pattern) -> ValidationReport:
    """Check every pattern invariant; violations are data, not exceptions."""
    violations: list[str] = []
    if not pattern.steps:
        return ValidationReport(False, ("pattern has no steps at all",))
    if pattern.steps[0].coords:
        violations.append("step 0 is not the empty set")

    seen: dict[Coord, int] = {}
    for s, step in enumerate(pattern.steps):
        for c in step.coords:
            if not (1 <= c.t <= pattern.T and 1 <= c.k <= pattern.K):
                violations.append(f"coordinate {tuple(c)} out of range at step {s}")
            elif c in seen:
                violations.append(f"coordinate {tuple(c)} appears in steps {seen[c]} and {s}")
            else:
                seen[c] = s
        ks = sorted(c.k for c in step.coords)
        for a, b in zip(ks, ks[1:]):
            if a == b:
                violations.append(f"duplicate codebook {a} in step {s}")

    missing = pattern.T * pattern.K - len(
        {c for c in seen if 1 <= c.t <= pattern.T and 1 <= c.k <= pattern.K}
    )
    if missing > 0:
        violations.append(f"not a partition of the grid: {missing} coordinate(s) missing")

    for k in range(1, pattern.K + 1):
        stream = [c.t for step in pattern.steps for c in sorted(step.coords) if c.k == k]
        if any(b <= a for a, b in zip(stream, stream[1:])):
            violations.append(f"codebook {k} timesteps are not strictly increasing across steps")

    return ValidationReport(not violations, tuple(violations))


def apply_pattern(pattern: Pattern, grid: TokenGrid) -> InterleavedSequence:
    """Lay a grid out as the pattern's slot sequence (row 0 all-special)."""
    if (pattern.T, pattern.K) != (grid.T, grid.K):
        raise ValidationError(
            f"pattern is {pattern.T}x{pattern.K} but grid is {grid.T}x{grid.K}"
        )
    slots = np.full((len(pattern.steps), pattern.K), SPECIAL_TOKEN, dtype=np.int64)
    slots[pattern._s_idx, pattern._k0] = grid.tokens[pattern._t0, pattern._k0]
    return InterleavedSequence(slots=slots, M=grid.M)


def revert_pattern(pattern: Pattern, seq: InterleavedSequence) -> TokenGrid:
    """Recover the grid from a slot sequence; exact inverse of apply_pattern."""
    expected = (len(pattern.steps), pattern.K)
    if seq.slots.shape != expected:
        raise ValidationError(f"sequence shape {seq.slots.shape} != expected {expected}")
    mask = pattern.presence_mask()
    stray = (seq.slots != SPECIAL_TOKEN) & ~mask
    if stray.any():
        s, k = np.argwhere(stray)[0]
        raise ValidationError(
            f"real token at slot (step {s}, codebook {k + 1}) which the pattern marks absent"
        )
    tokens = np.zeros((pattern.T, pattern.K), dtype=np.int64)
    tokens[pattern._t0, pattern._k0] = seq.slots[pattern._s_idx, pattern._k0]
    return TokenGrid(tokens=tokens, M=seq.M)


def step_counts(pattern: Pattern) -> StepCounts:
    """Exact step count S plus the nominal count used in headline comparisons.

    Nominal counts round the delay-style tails away: T for the parallel/delay
    family, 2T for partial flattening and coarse-first, T*K for flattening.
    Patterns without a known kind report nominal = exact.
    """
    exact = sum(1 for step in pattern.steps[1:] if step.coords)
    if pattern.kind is None:
        return StepCounts(exact, exact)
    if pattern.kind is PatternKind.FLATTEN:
        return StepCounts(exact, pattern.T * pattern.K)
    return StepCounts(exact, pattern.T * _NOMINAL_T_MULT[pattern.kind])


def pattern_to_json(pattern: Pattern) -> str:
    doc = {
        "kind": pattern.kind.value if pattern.kind is not None else None,
        "T": pattern.T,
        "K": pattern.K,
        "steps": [[[c.t, c.k] for c in sorted(step.coords)] for step in pattern.steps],
    }
    return json.dumps(doc)


def pattern_from_json(text: str) -> Pattern:
    """Parse a pattern document. Structure is checked here; invariants are not,
    so a loaded pattern can be handed to validate_pattern for a report."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"pattern document is not valid JSON: {exc}") from exc
    try:
        kind = doc["kind"]
        steps = tuple(
            PatternStep(frozenset(Coord(int(t), int(k)) for t, k in step))
            for step in doc["steps"]
        )
        return Pattern(
            steps=steps,
            T=int(doc["T"]),
            K=int(doc["K"]),
            kind=PatternKind(kind) if kind is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed pattern document: {exc}") from exc


def grid_to_csv(grid: TokenGrid) -> str:
    """CSV text: one row per timestep, one column per codebook."""
    return "".join(",".join(str(v) for v in row) + "\n" for row in grid.tokens)


def random_grid(T: int, K: int, M: int, rng: np.random.Generator) -> TokenGrid:
    """Uniform random grid, mainly for tests and synthetic corpora."""
    return TokenGrid(tokens=rng.integers(1, M + 1, size=(T, K)), M=M)


def format_pattern(pattern: Pattern) -> str:
    """Human-readable layout: codebooks as rows, steps as columns, cells are
    the revealed timestep or '.' when the codebook is absent."""
    cells = {(c.k, s): c.t for s, step in enumerate(pattern.steps) for c in step.coords}
    width = max(2, len(str(pattern.T)))
    header = "step".ljust(6) + " ".join(f"s{s}".rjust(width) for s in range(1, len(pattern.steps)))
    lines = [header]
    for k in range(1, pattern.K + 1):
        row = [str(cells.get((k, s), ".")).rjust(width) for s in range(1, len(pattern.steps))]
        lines.append(f"k{k}".ljust(6) + " ".join(row))
    return "\n".join(lines)
