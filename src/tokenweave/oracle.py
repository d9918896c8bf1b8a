"""Exactness laboratory for interleaving patterns.

Holds explicit joint distributions over tiny token grids, computes the exact
law of the grids a per-step-independent sampler would generate when it walks
a pattern, and measures the total variation distance between the two.
Nothing is sampled. The diagonal and markov_residual tables are the law of a
hidden state chain pushed through one token row per state.

Grid outcomes are indexed by flattening positions (t, k) row-major, i.e. axis
a = (t-1)*K + (k-1) of an (M,)*N table with N = T*K. That is also the flat
index of (t, k) in a pattern's (T, K) step table, so the positions step s
reveals are np.flatnonzero(pattern.step.ravel() == s); a Pattern holds its
invariant by construction, so only its dims are checked against the joint.

The induced law has a closed form. With R_s the positions revealed before
step s, the induced probability of a full grid x is the product over steps s
and positions a revealed at s of P(x_a | x_{R_s}) = P(x_{R_s}, x_a) / P(x_{R_s}).
One walk, _law, multiplies those factors; it reads each marginal P(x_A) from
a source keyed by the bitmask of position set A. _table_marginals sums the
whole table, held with the last position leading, and sums A's marginal only
out of that of A with its lowest missing position added, so the bits of
P(x_A) depend on A alone; entries stay within 1e-15 of row-major sums. Where
a within-step-factorized sampler reaches a prefix outside the joint's
support, the ratio is undefined and induced_distribution uses the
maximum-entropy 1/M.

A report needs each induced law Q only on the joint's support: its TV is
sum over supp P of max(P - Q, 0), which equals 0.5 * sum |P - Q| because both
laws sum to 1. Every prefix has mass there, so the report divides plainly
and drops the 0/0 factors that fall off the support. It picks one source of
marginals and shares it among all its patterns. When
|supp P| * T * K <= M**(T*K), that is _support_marginals: P(x_A) at each
support grid, one bincount over the support grids in index order, so the law
stays within 1e-15 of the whole table's there. Its groups are keyed by the
grids' tokens at A read as base-M digits, and A's key grows from that of A
without its highest position by one multiply-add, as A's table marginal comes
from one cached neighbour. Otherwise it is _table_marginals, and each Q is
laid out whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import GuardError, ValidationError, checked_array
from .patterns import Pattern, step_counts
from .rvq import RVQConfig, rvq_encode, train_codebooks

MAX_TABLE_ENTRIES = 10**6
MAX_DIM = 4
MASS_TOL = 1e-12

JOINT_FAMILIES = ("product", "diagonal", "markov_residual")


def _check_dims(T: int, K: int, M: int) -> int:
    if min(T, K, M) < 1:
        raise ValidationError("T, K, M must all be >= 1")
    if max(T, K, M) > MAX_DIM:
        raise ValidationError(f"oracle grids are capped at T, K, M <= {MAX_DIM}")
    size = M ** (T * K)
    if size > MAX_TABLE_ENTRIES:
        raise GuardError(f"joint table would hold {size} entries (guard {MAX_TABLE_ENTRIES})")
    return size


@dataclass(frozen=True)
class JointDistribution:
    """Explicit law of a T x K grid of tokens in 1..M."""

    T: int
    K: int
    M: int
    probs: np.ndarray  # flat, length M**(T*K)
    family: str | None = None

    def __post_init__(self) -> None:
        size = _check_dims(self.T, self.K, self.M)
        p = checked_array(self.probs, "probabilities", 1, low=0)
        if p.shape != (size,):
            raise ValidationError(f"probability table must be flat with {size} entries")
        if not abs(p.sum() - 1.0) <= MASS_TOL:
            raise ValidationError(f"probabilities sum to {float(p.sum())!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def n_positions(self) -> int:
        return self.T * self.K

    def table(self) -> np.ndarray:
        """View of the table with one axis per grid position."""
        return self.probs.reshape((self.M,) * self.n_positions)


def make_joint(family: str, T: int, K: int, M: int, seed: int = 0) -> JointDistribution:
    """Construct a test joint.

    product: independent uniform tokens at every position.
    diagonal: all K codebooks equal per timestep, uniform over M, independent
      across timesteps; maximal within-step dependence.
    markov_residual: law of the grid produced by residual-quantizing a
      discretized AR(1) latent chain, each chain state encoding to one row.
    """
    size = _check_dims(T, K, M)
    if family == "product":
        probs = np.full(size, 1.0 / size)
        probs /= probs.sum()
    elif family == "diagonal":
        uniform = np.full(M, 1.0 / M)
        rows = np.repeat(np.arange(M)[:, None], K, axis=1)  # state m emits (m, ..., m)
        probs = _chain_table(uniform, np.tile(uniform, (M, 1)), rows, T, M)
    elif family == "markov_residual":
        probs = _markov_residual_table(T, K, M, seed)
    else:
        raise ValidationError(f"unknown joint family {family!r}; expected one of {JOINT_FAMILIES}")
    return JointDistribution(T=T, K=K, M=M, probs=probs, family=family)


def _chain_table(init: np.ndarray, trans: np.ndarray, rows: np.ndarray, T: int, M: int) -> np.ndarray:
    """Normalized flat table of the grids a state chain emits. A path s_1..s_T
    has probability init[s_1] * trans[s_1, s_2] * ..., multiplied left to
    right, and writes the 0-based token row rows[s_t] at timestep t; paths add
    into their grid's row-major index in np.ndindex order."""
    K = rows.shape[1]
    codes = rows @ M ** np.arange(K - 1, -1, -1)  # each row's index among the M**K rows
    p, idx = init, codes
    for _ in range(1, T):
        p = p[..., None] * trans
        idx = idx[..., None] * M**K + codes
    probs = np.bincount(idx.reshape(-1), weights=p.reshape(-1), minlength=M ** (T * K))
    return probs / probs.sum()


_CHAIN_STATES = 8
_CHAIN_COEFF = 0.8
_CHAIN_FIT_LEN = 4096


def _markov_residual_table(T: int, K: int, M: int, seed: int) -> np.ndarray:
    values = np.linspace(-2.0, 2.0, _CHAIN_STATES)
    var = 1.0 - _CHAIN_COEFF**2
    trans = np.exp(-((values[None, :] - _CHAIN_COEFF * values[:, None]) ** 2) / (2 * var))
    trans /= trans.sum(axis=1, keepdims=True)
    init = np.exp(-(values**2) / 2.0)
    init /= init.sum()

    # fit the quantizer cascade on one long sampled path of the same chain. A
    # step draws as Generator.choice(p=) does: it counts the normalized cdf
    # entries of its row (0 for init, 1 + s after state s) at or below one uniform.
    rng = np.random.default_rng(seed)
    cdf = np.vstack([init, trans]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    next_state = (cdf[:, :, None] <= rng.random(_CHAIN_FIT_LEN)).sum(axis=1).tolist()
    path = [next_state[0][0]]
    for t in range(1, _CHAIN_FIT_LEN):
        path.append(next_state[1 + path[-1]][t])
    books, _ = train_codebooks(values[path][:, None], RVQConfig(K=K, M=M, d_latent=1),
                               iterations=30, seed=seed)
    # the cascade quantizes frame by frame, so each state encodes to one row
    rows = rvq_encode(values[:, None], books).tokens - 1
    return _chain_table(init, trans, rows, T, M)


def induced_distribution(joint: JointDistribution, pattern: Pattern) -> JointDistribution:
    """Exact law of the grid generated by walking the pattern with true
    per-position conditionals, positions within a step drawn independently.

    Closed form: the product over steps of P(x_a | x_{R_s}) for every position
    a the step reveals, R_s being the positions revealed before the step, with
    1/M wherever P(x_{R_s}) = 0.
    """
    _check_shape(joint, pattern)
    law = _law(pattern, _table_marginals(joint), fill=1.0 / joint.M)
    return JointDistribution(T=joint.T, K=joint.K, M=joint.M, probs=law)


def _check_shape(joint: JointDistribution, pattern: Pattern) -> None:
    if (pattern.T, pattern.K) != (joint.T, joint.K):
        raise ValidationError(
            f"pattern is {pattern.T}x{pattern.K} but joint is {joint.T}x{joint.K}"
        )


def _reveal_steps(pattern: Pattern) -> tuple[list[int], list[int]]:
    """The flat positions in reveal order, ascending within a step, as a list,
    and how many positions each step reveals."""
    steps = pattern.step.ravel()
    return steps.argsort(kind="stable").tolist(), np.bincount(steps)[1:].tolist()


def _law(pattern: Pattern, at, fill: float | None = None) -> np.ndarray:
    """The induced law as a flat array: per step, and per position a the step
    reveals in ascending order, the factor P(x_{R_s ∪ {a}}) / P(x_{R_s}),
    each marginal P(x_A) read as at(bitmask of A). The law starts as the first
    factor and multiplies in each next one. With fill, a factor whose
    P(x_{R_s}) is 0 is fill; without, it is 0/0."""
    order, counts = _reveal_steps(pattern)
    steps, revealed = [], 0
    for n in counts:
        step, order = order[:n], order[n:]
        steps.append((revealed, step))
        revealed |= sum(1 << a for a in step)
    # read last step first, so that each set is read after a superset of it
    factors = [([at(given | 1 << a) for a in step], at(given)) for given, step in steps[::-1]]
    law = None
    for boths, given in factors[::-1]:
        for both in boths:
            ratio = (both / given if fill is None else
                     np.divide(both, given, out=np.full(both.shape, fill), where=given > 0.0))
            law = ratio if law is None else law * ratio
            del ratio  # freed before the next factor is laid out
    return law.T.ravel()


def _support_marginals(p: np.ndarray, coords: np.ndarray, M: int):
    """at for _law at P's support grids, p their masses and coords[a] their
    0-based tokens at position a. P(x_A) at each grid is one bincount of p by
    the grid's key for A: its index among the values x_A takes (its tokens at
    A in ascending position order, read as base-M digits). A's key grows from
    that of A without its highest position by one multiply-add, key(A) =
    key(A - {top}) * M + coords[top], from the empty set's zeros; keys and
    marginals are computed on first use."""
    keys, cache = {0: np.zeros(len(p), dtype=np.int64)}, {}

    def at(positions: int) -> np.ndarray:
        if positions not in cache:
            chain = [positions]
            while chain[-1] not in keys:
                chain.append(chain[-1] & ~(1 << chain[-1].bit_length() - 1))
            for superset, subset in zip(chain[-2::-1], chain[:0:-1]):
                keys[superset] = keys[subset] * M + coords[superset.bit_length() - 1]
            key = keys[positions]
            cache[positions] = np.bincount(key, weights=p).take(key)
        return cache[positions]

    return at


def _table_marginals(joint: JointDistribution):
    """at for _law over the whole table. It holds the table with the last
    position leading (position a on axis N-1-a), and each P(x_A) keeps a
    length-1 axis per summed position. A's marginal is summed only from that
    of A ∪ {A's lowest missing position}, so its bits depend on A alone;
    each is computed on first use."""
    N = joint.n_positions
    full = (1 << N) - 1
    cache = {full: np.ascontiguousarray(joint.table().T)}

    def at(positions: int) -> np.ndarray:
        chain = [positions]
        while chain[-1] not in cache:
            missing = full & ~chain[-1]
            chain.append(chain[-1] | missing & -missing)
        for subset, superset in zip(chain[-2::-1], chain[:0:-1]):
            axis = N - (subset ^ superset).bit_length()
            cache[subset] = cache[superset].sum(axis=axis, keepdims=True)
        return cache[positions]

    return at


def tv_distance(p: JointDistribution, q: JointDistribution) -> float:
    """Total variation distance 0.5 * sum |p - q| between two laws on one
    (T, K, M) index space."""
    for attr in ("T", "K", "M"):
        if getattr(p, attr) != getattr(q, attr):
            raise ValidationError(f"distributions disagree on {attr}")
    return float(0.5 * np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True)
class ExactnessRow:
    kind: str
    steps_exact: int
    steps_nominal: int
    tv: float


def exactness_report(joint: JointDistribution, patterns: Iterable[Pattern]) -> list[ExactnessRow]:
    """One row per pattern: step counts plus TV between the induced law Q and
    the joint P. The flatten row is exact by construction (TV within rounding,
    at most 1e-12).

    TV is sum max(P - Q, 0) over P's support. Every Q comes from _law with
    one source of marginals, picked once by |supp P| * T * K <= M**(T*K):
    support marginals where it holds, whole-table ones where it does not (on
    a dense support, sums over the table's axes beat a bincount per marginal).
    """
    held = joint.probs > 0.0
    count = np.count_nonzero(held)
    if count * joint.n_positions <= held.size:
        coords = np.stack(np.unravel_index(np.flatnonzero(held), (joint.M,) * joint.n_positions))
        p = joint.probs[held]
        at, held = _support_marginals(p, coords, joint.M), ...
    else:
        held = held if count < held.size else ...  # a whole P and each whole Q are read without a copy
        p, at = joint.probs[held], _table_marginals(joint)
    rows = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for pattern in patterns:
            _check_shape(joint, pattern)
            counts = step_counts(pattern)
            q = checked_array(_law(pattern, at)[held], "induced probabilities", 1, low=0)
            if not q.sum() <= 1.0 + MASS_TOL:
                raise ValidationError(f"induced probabilities sum to {float(q.sum())!r} on the joint's support, above 1")
            gap = p - q
            tv = float(np.maximum(gap, 0.0, out=gap).sum())
            del q, gap  # freed before the next law is laid out
            kind = pattern.kind.value if pattern.kind is not None else "custom"
            rows.append(ExactnessRow(kind=kind, steps_exact=counts.exact, steps_nominal=counts.nominal, tv=tv))
    return rows
