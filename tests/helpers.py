"""Helpers the tests share: random grids, the pattern document writer that
pattern_from_json reads, and the results an acceptance criterion and its
unit-test twin both assert on. Each of those is computed once per session,
by whichever test asks first, and returned as an immutable value."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tokenweave.conditioning import merge_conditions, word_dropout
from tokenweave.patterns import Pattern, TokenGrid
from tokenweave.rvq import RVQConfig, residual_energy_profile, synth_latents, train_codebooks

SRC = str(Path(__file__).resolve().parents[1] / "src")
# seeds range(TRIALS) drive the text pipeline Monte Carlo
TRIALS = 100_000


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


@functools.cache
def bench_step_table_process() -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -m tokenweave patterns bench
    --T 1500 --K 4 --as-json` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "tokenweave", "patterns", "bench",
         "--T", "1500", "--K", "4", "--as-json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


@functools.cache
def text_pipeline_counts() -> tuple[int, int]:
    """Over the seeds range(TRIALS), at the module's own rates: how many
    merge_conditions("desc", {"bpm": "90"}) calls merged, and how many words
    of "w0 w1 ... w9" word_dropout kept in all."""
    merged = sum(
        merge_conditions("desc", {"bpm": "90"}, np.random.default_rng(s)) != "desc"
        for s in range(TRIALS)
    )
    text = " ".join(f"w{i}" for i in range(10))
    survivors = sum(
        len(word_dropout(text, np.random.default_rng(s)).split()) for s in range(TRIALS)
    )
    return merged, survivors


@functools.cache
def rvq_energy_profile() -> tuple[float, ...]:
    """Residual energy before and after each stage of a K = 4, M = 64 RVQ fit
    to 2000 synthetic 8-d frames (seed 0, 20 iterations)."""
    frames = synth_latents(2000, 8, [0])[0]
    books, _ = train_codebooks(frames, RVQConfig(K=4, M=64, d_latent=8), iterations=20, seed=0)
    return tuple(float(e) for e in residual_energy_profile(frames, books))
