"""Tests of the benchmark's own bookkeeping: span arithmetic, the percentile
rule, the tracer's install/remove, and the output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from bookkeeping import (  # noqa: E402
    Target,
    Tracer,
    percentile,
    reportable_percentiles,
    self_time,
    union_length,
)
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import exactness_problems, grid_problems, loss_problems  # noqa: E402


# ------------------------------------------------------------ span arithmetic


def test_union_length_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(2, 3), (0, 1), (1, 2)]) == 3


def test_self_time_nested_children_count_once():
    # a child with a grandchild inside it: the grandchild adds nothing
    assert self_time(0, 10, [(2, 6), (3, 4)]) == pytest.approx(6)


def test_self_time_overlapping_children_count_once():
    assert self_time(0, 10, [(1, 4), (3, 6), (8, 9)]) == pytest.approx(4)


def test_self_time_clips_children_to_the_span():
    assert self_time(0, 10, [(-5, 2), (9, 15)]) == pytest.approx(7)
    assert self_time(0, 10, [(11, 12)]) == pytest.approx(10)


# ------------------------------------------------------------ percentile rule


def test_percentile_rule_needs_ten_samples_beyond():
    assert reportable_percentiles(19) == []
    assert reportable_percentiles(20) == [50.0]
    assert reportable_percentiles(99) == [50.0]
    assert reportable_percentiles(100) == [50.0, 90.0]
    assert reportable_percentiles(999) == [50.0, 90.0]
    assert reportable_percentiles(1000) == [50.0, 90.0, 99.0]


def test_percentile_values():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50.5
    assert percentile(samples, 90) == 90
    assert percentile([3, 1, 2], 50) == 2
    # exactly ten samples lie beyond the reported p90 of 100
    assert sum(s > percentile(samples, 90) for s in samples) == 10


# ------------------------------------------------------------------- tracer


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _fake_module():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    return mod


def test_tracer_records_nested_spans_and_restores():
    mod = _fake_module()
    inner, outer = mod.inner, mod.outer
    tracer = Tracer(
        [Target(mod, "outer", "a.outer"), Target(mod, "inner", "b.inner", lambda a, k, r: {"rows": a[0]})],
        clock=_Clock(),
    )
    with tracer:
        assert mod.inner is not inner
        assert mod.outer(3) == 8
    assert mod.inner is inner and mod.outer is outer
    assert mod.outer(3) == 8  # calls after removal are not recorded
    (o,), (i,) = tracer.named("a.outer"), tracer.named("b.inner")
    assert i.parent == 0 and o.parent is None and i.attrs == {"rows": 3}
    assert (o.start, i.start, i.end, o.end) == (1, 2, 3, 4)
    assert tracer.self_s("a.outer") == pytest.approx(2)
    assert tracer.busy_s(tracer.spans) == pytest.approx(3)


def test_tracer_restores_after_an_exception():
    mod = _fake_module()
    original = mod.inner
    tracer = Tracer([Target(mod, "inner", "b.inner")])
    with pytest.raises(TypeError):
        with tracer:
            mod.inner("not a number")
    assert mod.inner is original
    (span,) = tracer.named("b.inner")
    assert span.end >= span.start


def test_tracer_skips_a_target_its_caller_no_longer_has():
    mod = _fake_module()
    del mod.inner
    mod.outer = lambda x: x * 2
    fake = types.ModuleType("fake")
    fake.forward = lambda x: x
    tracer = Tracer(
        [Target(mod, "outer", "a.outer"), Target(mod, "inner", "b.inner"), Target(fake, "forward", "model.forward")]
    )
    with tracer:
        assert mod.outer(3) == 6
    assert tracer.missing == ["fake.inner"]
    assert not hasattr(mod, "inner")
    assert [s.name for s in tracer.spans] == ["a.outer"]
    metrics = layer_metrics(tracer, steps_walked=0)
    assert metrics["model.forward.calls"] == 0 and metrics["model.forward.busy_s"] == 0


def test_uncalled_functions_read_zero():
    metrics = layer_metrics(Tracer([]), steps_walked=0)
    assert set(metrics) | {"trace.overhead_ratio"} == {name for name, *_ in PER_LAYER}
    assert all(v == 0 for v in metrics.values())


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER
    ]


# ------------------------------------------------------------ output checks


def test_grid_check_accepts_a_good_grid_and_rejects_corruption():
    rng = np.random.default_rng(0)
    tokens = rng.integers(1, 17, size=(6, 4))
    assert grid_problems(tokens, 6, 16) == []
    assert grid_problems(tokens, 6, 16, prompt=tokens[:2].copy()) == []

    bad = tokens.copy()
    bad[3, 1] = 0
    assert grid_problems(bad, 6, 16)
    bad = tokens.copy()
    bad[3, 1] = 17
    assert grid_problems(bad, 6, 16)
    assert grid_problems(tokens[:5], 6, 16)
    changed = tokens.copy()
    changed[1, 2] = 1 + changed[1, 2] % 16
    assert grid_problems(changed, 6, 16, prompt=tokens[:2].copy()) == ["prompt rows changed"]


def test_exactness_check_rejects_inexact_flatten():
    good = {"markov_residual": [("flatten", 1e-16), ("parallel", 0.9)], "product": [("delay", 0.0)]}
    assert exactness_problems(good) == []
    assert exactness_problems({"markov_residual": [("flatten", 2e-12)]})
    assert exactness_problems({"product": [("parallel", 1e-9)]})
    assert exactness_problems({"markov_residual": [("parallel", 1.5)]})
    assert exactness_problems({"markov_residual": [("delay", -1e-3)]})


def test_loss_check():
    assert loss_problems(2.7, 1.0) == []
    assert loss_problems(2.7, 2.7)
    assert loss_problems(float("nan"), 1.0)
