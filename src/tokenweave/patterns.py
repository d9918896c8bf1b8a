"""Interleaving patterns over the codebook streams of multi-stream token grids.

A token grid holds T timesteps x K codebooks of discrete tokens. A pattern is
an ordered partition of the grid's coordinates into steps; an autoregressive
model predicts every coordinate of step s in parallel, conditioned on all
earlier steps. A pattern is held as its (T, K) step table, the inverse of the
partition: step[t-1, k-1] is the step that reveals coordinate (t, k). So every
coordinate is revealed exactly once by construction, and the constructor
checks the rest: each entry is >= 1, each codebook's steps strictly increase
down its timesteps (at most once per step, in timestep order), and each step
1..S reveals something. This module builds the standard pattern family
(parallel, delay, flatten and their partial/stereo variants), reads the
coordinate-list JSON format, and applies/reverts patterns between
grids and slot sequences, plain (S+1, K) int64 arrays whose row 0 is special.

Coordinates are 1-based. Token ids live in 1..M; id 0 is the reserved special
token that fills slots where a codebook is absent from a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, checked_array

SPECIAL_TOKEN = 0


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

# the parallel/delay family: each codebook runs at a fixed delay, so S = T + the largest delay
_DELAY_KINDS = STEREO_KINDS | {PatternKind.PARALLEL, PatternKind.DELAY, PatternKind.PARTIAL_DELAY}


def _table_violations(step: np.ndarray) -> list[str]:
    """Every way a (T, K) step table fails to be a pattern."""
    violations = [
        f"step {step[t, k]} of coordinate {(int(t) + 1, int(k) + 1)} is below 1"
        for t, k in np.argwhere(step < 1)
    ]
    rises = np.diff(step, axis=0)
    for k, s in sorted({(int(k) + 1, int(step[t, k])) for t, k in np.argwhere(rises == 0)}):
        violations.append(f"duplicate codebook {k} in step {s}")
    for k in np.flatnonzero((rises < 0).any(axis=0)) + 1:
        violations.append(f"codebook {k} timesteps are not strictly increasing across steps")
    # sorted, repeats kept: a step that reveals nothing is a rise of more than 1
    revealed = np.sort(step, axis=None)
    revealed = revealed[revealed >= 1]
    rise = np.diff(revealed, prepend=0)
    for a, b in zip((revealed - rise)[rise > 1] + 1, revealed[rise > 1] - 1):
        span = f"step {a}" if a == b else f"steps {a}-{b}"
        violations.append(f"nothing is revealed at {span}")
    return violations


@dataclass(frozen=True, eq=False)
class Pattern:
    """Interleaving pattern held as its read-only int64 (T, K) step table.

    step[t-1, k-1] = s means step s reveals coordinate (t, k); step 0 reveals
    nothing and S = step.max() is the last step. The constructor enforces the
    invariant that makes the table an ordered partition of the grid with each
    codebook at most once per step: every entry is >= 1, every column strictly
    increases, and every step in 1..S reveals at least one coordinate. A table
    that breaks it raises ValidationError naming each violation.
    """

    step: np.ndarray
    kind: PatternKind | None = None
    S: int = field(init=False)

    def __post_init__(self) -> None:
        step = checked_array(self.step, "step table", 2, whole=True).copy()
        if 0 in step.shape:
            raise ValidationError(f"step table must be 2-D with T, K >= 1, got shape {step.shape}")
        violations = _table_violations(step)
        if violations:
            raise ValidationError("pattern is invalid: " + "; ".join(violations))
        step.flags.writeable = False
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "S", int(step.max()))

    @property
    def T(self) -> int:
        return self.step.shape[0]

    @property
    def K(self) -> int:
        return self.step.shape[1]


@dataclass(frozen=True)
class TokenGrid:
    """T x K matrix of token ids in 1..M. Id 0 never appears in a grid."""

    tokens: np.ndarray
    M: int

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValidationError("M must be >= 1")
        tok = checked_array(self.tokens, "grid tokens", 2, whole=True, low=1, high=self.M)
        object.__setattr__(self, "tokens", tok)

    @property
    def T(self) -> int:
        return self.tokens.shape[0]

    @property
    def K(self) -> int:
        return self.tokens.shape[1]


class StepCounts(NamedTuple):
    exact: int
    nominal: int


def _delay_profile(kind: PatternKind, k: np.ndarray) -> np.ndarray:
    """Step delay of each 0-based codebook index k for the delay-style kinds."""
    if kind is PatternKind.PARALLEL:
        return 0 * k
    if kind is PatternKind.DELAY:
        return k
    if kind is PatternKind.PARTIAL_DELAY:
        return k > 0
    if kind is PatternKind.STEREO_PARTIAL_DELAY:
        # channels interleave [L1, R1, L2, R2, ...]; both channels of level l
        # are delayed by l-1
        return k // 2
    # STEREO_DELAY: left channel of level l delayed by l-1, right channel by l
    return (k + 1) // 2


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

    t, k = np.indices((T, K))  # 0-based timestep and codebook of every cell
    if kind is PatternKind.FLATTEN:
        step = t * K + k + 1
    elif kind is PatternKind.PARTIAL_FLATTEN:
        step = t * min(K, 2) + (k > 0) + 1
    elif kind is PatternKind.COARSE_FIRST:
        step = t + T * (k > 0) + 1
    else:
        step = t + _delay_profile(kind, k) + 1
    return Pattern(step=step, kind=kind)


def apply_pattern(pattern: Pattern, grid: TokenGrid) -> np.ndarray:
    """Lay a grid out as the pattern's (S+1, K) int64 slot sequence: slot
    (s, k) holds the token step s reveals in codebook k+1, SPECIAL_TOKEN where
    step s reveals nothing there, so row 0 is all-special."""
    if (pattern.T, pattern.K) != (grid.T, grid.K):
        raise ValidationError(
            f"pattern is {pattern.T}x{pattern.K} but grid is {grid.T}x{grid.K}"
        )
    slots = np.full((pattern.S + 1, pattern.K), SPECIAL_TOKEN, dtype=np.int64)
    slots[pattern.step, np.arange(pattern.K)] = grid.tokens
    return slots


def revert_pattern(pattern: Pattern, slots: np.ndarray, M: int) -> TokenGrid:
    """Recover the grid from a slot sequence; exact inverse of apply_pattern.
    Absent slots must hold SPECIAL_TOKEN, and TokenGrid holds the rest to 1..M."""
    slots = checked_array(slots, "slot sequence", 2, whole=True)
    expected = (pattern.S + 1, pattern.K)
    if slots.shape != expected:
        raise ValidationError(f"sequence shape {slots.shape} != expected {expected}")
    cells = (pattern.step, np.arange(pattern.K))
    stray = slots.copy()
    stray[cells] = SPECIAL_TOKEN
    if stray.any():
        s, k = np.argwhere(stray)[0]
        raise ValidationError(
            f"real token at slot (step {s}, codebook {k + 1}) which the pattern marks absent"
        )
    return TokenGrid(tokens=slots[cells], M=M)


def step_counts(pattern: Pattern) -> StepCounts:
    """Exact step count S plus the nominal count used in headline comparisons.

    The nominal count rounds a delay-style tail away: T for the parallel/delay
    family. Every other pattern, custom ones included, reports nominal = S
    (T*K for flattening, 2T for partial flattening and coarse-first at K >= 2).
    """
    return StepCounts(pattern.S, pattern.T if pattern.kind in _DELAY_KINDS else pattern.S)


def pattern_from_json(text: str) -> Pattern:
    """Parse a pattern document, the one reader of the coordinate-list format.

    A document that does not list an ordered partition of its grid raises
    ValidationError naming every violation: a T, K or coordinate that is not
    a JSON integer, a non-empty step 0, out-of-range, repeated or missing
    coordinates, empty trailing steps, then the step table's own checks.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"pattern document is not valid JSON: {exc}") from exc
    try:
        kind = None if doc["kind"] is None else PatternKind(doc["kind"])
        T, K = doc["T"], doc["K"]
        steps = [[(t, k) for t, k in coords] for coords in doc["steps"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed pattern document: {exc}") from exc
    # JSON integers only: int() would truncate 2.5 and parse "2"
    if any(type(v) is not int for v in (T, K, *(v for coords in steps for c in coords for v in c))):
        raise ValidationError("malformed pattern document: T, K and coordinates must be integers")
    if T < 1 or K < 1:
        raise ValidationError(f"malformed pattern document: the grid is {T}x{K}")

    violations = ["step 0 is not the empty set"] if steps and steps[0] else []
    seen: dict[tuple[int, int], int] = {}
    for s, coords in enumerate(steps):
        for c in coords:
            if not (1 <= c[0] <= T and 1 <= c[1] <= K):
                violations.append(f"coordinate {c} out of range at step {s}")
            elif c in seen:
                violations.append(f"coordinate {c} appears in steps {seen[c]} and {s}")
            else:
                seen[c] = s
    if len(seen) < T * K:
        violations.append(f"not a partition of the grid: {T * K - len(seen)} coordinate(s) missing")
    # the table ends at its last revealing step, so it cannot see trailing empty ones
    last, end = max(seen.values(), default=0), len(steps) - 1
    if end > last:
        violations.append(f"nothing is revealed at step {end}" if end == last + 1
                          else f"nothing is revealed at steps {last + 1}-{end}")
    if violations:
        raise ValidationError("pattern is invalid: " + "; ".join(violations))
    # every coordinate is listed, so the table is no larger than the document
    step = np.empty((T, K), dtype=np.int64)
    for (t, k), s in seen.items():
        step[t - 1, k - 1] = s
    return Pattern(step=step, kind=kind)


def grid_to_csv(grid: TokenGrid) -> str:
    """CSV text: one row per timestep, one column per codebook."""
    return "".join(",".join(str(v) for v in row) + "\n" for row in grid.tokens)


def format_pattern(pattern: Pattern) -> str:
    """Human-readable layout: codebooks as rows, steps as columns, cells are
    the revealed timestep or '.' when the codebook is absent."""
    rows = [["."] * pattern.S for _ in range(pattern.K)]
    for (t, k), s in np.ndenumerate(pattern.step):
        rows[k][s - 1] = str(t + 1)
    width = max(2, len(str(pattern.T)))
    header = "step".ljust(6) + " ".join(f"s{s}".rjust(width) for s in range(1, pattern.S + 1))
    lines = [header]
    for k, row in enumerate(rows, start=1):
        lines.append(f"k{k}".ljust(6) + " ".join(cell.rjust(width) for cell in row))
    return "\n".join(lines)
