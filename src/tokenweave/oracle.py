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
With the table in reverse reveal order (last revealed leading), each prefix law
is the next one summed over its leading axis, and P(x_{R_s}, x_a) sums only
step s's leading axes; entries stay within 1e-15 of whole-table sums. Where a
within-step-factorized sampler reaches a prefix outside the joint's support,
the ratio is undefined and induced_distribution uses the maximum-entropy 1/M.
A report that builds whole tables shares one chain of prefix laws among the
patterns of one reveal order.

A report needs each induced law Q only on the joint's support: its TV is
sum over supp P of max(P - Q, 0), which equals 0.5 * sum |P - Q| because both
laws sum to 1. Every prefix has mass there, so the 1/M fill is never read.
When |supp P| * T * K <= M**(T*K), the report builds no chain: it keeps one
cache of support marginals, P(x_A) at each support grid keyed by the bitmask
of position set A, each computed once by one bincount over the support and
shared by every pattern, and multiplies each law's factors from it. Those
sums run over the support grids in index order, so the law stays within
1e-15 of the whole table's there. Otherwise it builds the whole table.
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
    return JointDistribution(T=joint.T, K=joint.K, M=joint.M, probs=_induced_law(joint, pattern, {}))


def _check_shape(joint: JointDistribution, pattern: Pattern) -> None:
    if (pattern.T, pattern.K) != (joint.T, joint.K):
        raise ValidationError(
            f"pattern is {pattern.T}x{pattern.K} but joint is {joint.T}x{joint.K}"
        )


def _reveal_steps(pattern: Pattern) -> tuple[np.ndarray, list[int]]:
    """The flat positions in reveal order, ascending within a step, and how
    many positions each step reveals."""
    steps = pattern.step.ravel()
    return np.argsort(steps, kind="stable"), np.bincount(steps)[1:].tolist()


def _reveal_chain(joint: JointDistribution, last_first: np.ndarray) -> list[np.ndarray]:
    """prefix[j]: law of the first j positions revealed, the j-th one leading."""
    prefix = [np.ascontiguousarray(joint.table().transpose(last_first))]
    while prefix[0].ndim:
        prefix.insert(0, prefix[0].sum(axis=0))
    return prefix


def _induced_law(joint: JointDistribution, pattern: Pattern, chains: dict[bytes, list]) -> np.ndarray:
    """induced_distribution's flat table, its chain looked up by reveal order
    in chains."""
    order, counts = _reveal_steps(pattern)
    last_first = order[::-1]
    key = last_first.tobytes()
    if key not in chains:
        chains[key] = _reveal_chain(joint, last_first)
    prefix = chains[key]
    law, r = np.ones(()), 0
    for n in counts:
        given, step_law = prefix[r], prefix[r + n]
        held = given > 0.0
        all_held = held.all()
        for lead in range(n - 1, -1, -1):  # the step's positions in ascending order
            others = tuple(ax for ax in range(n) if ax != lead)
            both = step_law.sum(axis=others, keepdims=True) if others else step_law
            if all_held:  # the same quotients, without laying out the 1/M fill
                law = law * (both / given)
            else:
                law = law * np.divide(both, given, out=np.full(both.shape, 1.0 / joint.M), where=held)
        r += n
    return law.transpose(np.argsort(last_first)).ravel()


def _support_law(
    pattern: Pattern, p: np.ndarray, coords: np.ndarray, M: int, marginals: dict[int, np.ndarray]
) -> np.ndarray:
    """The induced law at P's support grids, p their masses and coords[a]
    their 0-based tokens at position a: per step, and per position a the
    step reveals in ascending order, the factor P(x_{R_s ∪ {a}}) / P(x_{R_s}).
    Each marginal is read from marginals, keyed by the bitmask of its
    position set, and computed there on first use; one marginals dict serves
    one support."""

    def at(positions: int) -> np.ndarray:
        if positions not in marginals:
            marginals[positions] = _support_marginal(p, coords, positions, M)
        return marginals[positions]

    order, counts = _reveal_steps(pattern)
    law, revealed, r = np.ones(len(p)), 0, 0
    for n in counts:
        given, step = at(revealed), order[r : r + n].tolist()
        for a in step:
            law *= at(revealed | 1 << a) / given
        revealed |= sum(1 << a for a in step)
        r += n
    return law


def _support_marginal(p: np.ndarray, coords: np.ndarray, positions: int, M: int) -> np.ndarray:
    """P(x_A) at each support grid, A the positions whose bits are set: one
    bincount of p by each grid's index among the values x_A takes (its
    tokens at A in ascending position order, read as base-M digits)."""
    axes = [a for a in range(len(coords)) if positions >> a & 1]
    key = M ** np.arange(len(axes) - 1, -1, -1) @ coords[axes]
    return np.bincount(key, weights=p).take(key)


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

    TV is taken on P's support as sum max(P - Q, 0), which equals
    0.5 * sum |P - Q| because both laws sum to 1. When
    |supp P| * T * K <= M**(T*K), Q is built at the support grids only, each
    factor read from one report-wide cache of support marginals P(x_A), keyed
    by position set A and each computed once by one bincount over the
    support. Otherwise Q is laid out whole from each reveal order's chain of
    prefix laws, which the report builds once per order: on a dense support,
    sums over the table's leading axes beat one bincount per marginal.
    """
    held = joint.probs > 0.0
    count = np.count_nonzero(held)
    sparse = count * joint.n_positions <= held.size
    whole = count == held.size  # then P and each whole Q are read without a copy
    p = joint.probs if whole else joint.probs[held]
    if sparse:
        coords = np.stack(np.unravel_index(np.flatnonzero(held), (joint.M,) * joint.n_positions))
    rows, marginals, chains = [], {}, {}
    for pattern in patterns:
        _check_shape(joint, pattern)
        counts = step_counts(pattern)
        if sparse:
            q = _support_law(pattern, p, coords, joint.M, marginals)
        else:
            q = _induced_law(joint, pattern, chains)
        q = checked_array(q, "induced probabilities", 1, low=0)
        if not (sparse or whole):
            q = q[held]
        if not q.sum() <= 1.0 + MASS_TOL:
            raise ValidationError(f"induced probabilities sum to {float(q.sum())!r} on the joint's support, above 1")
        gap = p - q
        tv = float(np.maximum(gap, 0.0, out=gap).sum())
        del q, gap  # freed before the next law is laid out
        kind = pattern.kind.value if pattern.kind is not None else "custom"
        rows.append(ExactnessRow(kind=kind, steps_exact=counts.exact, steps_nominal=counts.nominal, tv=tv))
    return rows
