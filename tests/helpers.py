"""Helpers the tests share: random grids, and the pattern document writer
that pattern_from_json reads."""

import json

import numpy as np

from tokenweave.patterns import Pattern, TokenGrid


def random_grid(T: int, K: int, M: int, rng: np.random.Generator) -> TokenGrid:
    """Uniform random grid."""
    return TokenGrid(tokens=rng.integers(1, M + 1, size=(T, K)), M=M)


def pattern_to_json(pattern: Pattern) -> str:
    """Pattern document: steps[s] lists the [t, k] coordinates step s reveals."""
    steps: list[list[list[int]]] = [[] for _ in range(pattern.S + 1)]
    for (t, k), s in np.ndenumerate(pattern.step):
        steps[s].append([t + 1, k + 1])
    doc = {
        "kind": pattern.kind.value if pattern.kind is not None else None,
        "T": pattern.T,
        "K": pattern.K,
        "steps": steps,
    }
    return json.dumps(doc)
