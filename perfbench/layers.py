"""The functions the traced run wraps, and the per-layer metrics their spans give.

Each function is wrapped at the module attribute its caller looks up, so a
span covers exactly the calls one layer makes into another. Layers are the
tokenweave modules; ``analysis`` and ``cli`` only orchestrate the others, do
little work of their own and are not wrapped (``continue_short`` makes the same
``continue_from_prompt`` call that ``analysis.memorization_report`` makes).

PER_LAYER lists every metric with the end-to-end metric and workload it
should move. A metric whose function is never called reads 0.
"""

from __future__ import annotations

import numpy as np

from bookkeeping import Span, Target, Tracer

KINDS = (
    "parallel",
    "delay",
    "partial_delay",
    "flatten",
    "partial_flatten",
    "coarse_first",
    "stereo_delay",
    "stereo_partial_delay",
)

# spans that each cover one sampling request
REQUEST_SPANS = ("sampling.generate", "sampling.continue_from_prompt")

_GEN = "tokens_per_s, request_ms and op_ref.p50 on gen_long"
_CONT = "tokens_per_s, request_ms and op_ref.p50 on continue_short"
_SETUP = "setup_s on every workload that calls it"
_ORACLE = "exactness_s and op_ref.p50 on oracle only"
_TRAIN = "train_rows_per_s, train_step_ms and op_ref.p50 on train only"

# (name, unit, better, which end-to-end metric it should move, and where)
PER_LAYER = (
    ("model.forward.calls", "count", "lower", _GEN),
    ("model.forward.rows", "count", "lower", _GEN + "; input rows over all calls"),
    ("model.forward.busy_s", "s", "lower", _GEN),
    ("model.forward.rows_per_step", "rows/step", "lower", _GEN + "; rows per pattern step walked"),
    (
        "model.forward.useful_ratio",
        "ratio",
        "higher",
        _CONT + "; share of forwards feeding a sampled token",
    ),
    ("sampling.sample_token.calls", "count", "lower", _CONT + " most"),
    ("sampling.sample_token.busy_s", "s", "lower", _CONT + " most"),
    ("sampling.cfg_combine.calls", "count", "lower", _GEN + "; no calls on continue_short"),
    ("sampling.cfg_combine.busy_s", "s", "lower", _GEN + "; no calls on continue_short"),
    ("sampling.self_s", "s", "lower", "request_ms on gen_long and continue_short; walker overhead"),
    ("model.grad.calls", "count", "lower", _TRAIN),
    ("model.grad.rows", "count", "lower", _TRAIN + "; B x S rows over all calls"),
    ("model.grad.busy_s", "s", "lower", _TRAIN),
    ("model.global_grad_norm.busy_s", "s", "lower", _TRAIN),
    ("model.train_step.self_s", "s", "lower", _TRAIN + "; the optimizer"),
    ("oracle.induced_distribution.busy_s", "s", "lower", _ORACLE),
    *((f"oracle.induced_distribution.{k}.busy_s", "s", "lower", _ORACLE) for k in KINDS),
    ("oracle.support", "count", "lower", _ORACLE + "; nonzero induced entries"),
    ("oracle.tv_distance.busy_s", "s", "lower", _ORACLE),
    ("oracle.make_joint.busy_s", "s", "lower", _SETUP),
    ("corpus.make_corpus.busy_s", "s", "lower", _SETUP),
    ("rvq.train_codebooks.busy_s", "s", "lower", _SETUP),
    ("conditioning.encode_text_toy.calls", "count", "lower", _SETUP + "; request_ms on gen_long"),
    ("conditioning.encode_text_toy.busy_s", "s", "lower", _SETUP + "; request_ms on gen_long"),
    ("patterns.busy_s", "s", "lower", "negligible everywhere; shows work moved into patterns"),
    ("trace.overhead_ratio", "ratio", "lower", "none; traced over untraced wall time"),
)


def _forward_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1] if len(args) > 1 else kwargs["steps"])}


def _grad_rows(args, kwargs, result) -> dict:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return {"rows": sum(len(ex.tokens) for ex in batch)}


def _law_facts(args, kwargs, result) -> dict:
    pattern = args[1] if len(args) > 1 else kwargs["pattern"]
    kind = pattern.kind.value if pattern.kind is not None else "custom"
    return {"kind": kind, "support": int(np.count_nonzero(result.probs))}


def targets() -> list[Target]:
    from tokenweave import conditioning, corpus, model, oracle, patterns, sampling

    return [
        Target(sampling, "generate", "sampling.generate"),
        Target(sampling, "continue_from_prompt", "sampling.continue_from_prompt"),
        Target(sampling, "forward", "model.forward", _forward_rows),
        Target(sampling, "sample_token", "sampling.sample_token"),
        Target(sampling, "cfg_combine", "sampling.cfg_combine"),
        Target(sampling, "revert_pattern", "patterns.revert_pattern"),
        Target(model, "train_step", "model.train_step"),
        Target(model, "grad", "model.grad", _grad_rows),
        Target(model, "global_grad_norm", "model.global_grad_norm"),
        Target(model, "apply_pattern", "patterns.apply_pattern"),
        Target(oracle, "make_joint", "oracle.make_joint"),
        Target(oracle, "exactness_report", "oracle.exactness_report"),
        Target(oracle, "induced_distribution", "oracle.induced_distribution", _law_facts),
        Target(oracle, "tv_distance", "oracle.tv_distance"),
        Target(oracle, "validate_pattern", "patterns.validate_pattern"),
        Target(oracle, "step_counts", "patterns.step_counts"),
        Target(oracle, "train_codebooks", "rvq.train_codebooks"),
        Target(corpus, "make_corpus", "corpus.make_corpus"),
        Target(corpus, "train_codebooks", "rvq.train_codebooks"),
        Target(conditioning, "encode_text_toy", "conditioning.encode_text_toy"),
        Target(patterns, "build_pattern", "patterns.build_pattern"),
    ]


def useful_forwards(spans: list[Span]) -> int:
    """Forward calls whose logits feed at least one sampled token.

    The walker calls forward once (twice with guidance) per pattern step on a
    prefix one row longer than the step before; the forwards of one step are
    useful when a sample_token call follows them within that step.
    """
    useful = 0
    step_rows, step_calls, sampled = None, 0, False
    for s in spans:
        new_step = s.name == "model.forward" and s.attrs["rows"] != step_rows
        if new_step or s.name in REQUEST_SPANS:
            useful += step_calls if sampled else 0
            step_rows, step_calls, sampled = None, 0, False
        if s.name == "model.forward":
            step_rows = s.attrs["rows"]
            step_calls += 1
        elif s.name == "sampling.sample_token":
            sampled = True
    return useful + (step_calls if sampled else 0)


def layer_metrics(tracer: Tracer, steps_walked: int) -> dict[str, float]:
    """Every PER_LAYER metric except trace.overhead_ratio, which needs the
    untraced run. steps_walked is the number of pattern steps the sampler
    walked in the traced requests."""
    busy = tracer.busy_s
    m: dict[str, float] = {}

    fwd = tracer.named("model.forward")
    rows = sum(s.attrs["rows"] for s in fwd)
    m["model.forward.calls"] = len(fwd)
    m["model.forward.rows"] = rows
    m["model.forward.busy_s"] = busy(fwd)
    m["model.forward.rows_per_step"] = rows / steps_walked if steps_walked else 0.0
    m["model.forward.useful_ratio"] = useful_forwards(tracer.spans) / len(fwd) if fwd else 0.0
    for name in ("sampling.sample_token", "sampling.cfg_combine"):
        spans = tracer.named(name)
        m[f"{name}.calls"] = len(spans)
        m[f"{name}.busy_s"] = busy(spans)
    m["sampling.self_s"] = sum(tracer.self_s(name) for name in REQUEST_SPANS)

    grads = tracer.named("model.grad")
    m["model.grad.calls"] = len(grads)
    m["model.grad.rows"] = sum(s.attrs["rows"] for s in grads)
    m["model.grad.busy_s"] = busy(grads)
    m["model.global_grad_norm.busy_s"] = busy(tracer.named("model.global_grad_norm"))
    m["model.train_step.self_s"] = tracer.self_s("model.train_step")

    laws = tracer.named("oracle.induced_distribution")
    m["oracle.induced_distribution.busy_s"] = busy(laws)
    for kind in KINDS:
        m[f"oracle.induced_distribution.{kind}.busy_s"] = busy(
            s for s in laws if s.attrs["kind"] == kind
        )
    m["oracle.support"] = sum(s.attrs["support"] for s in laws)
    m["oracle.tv_distance.busy_s"] = busy(tracer.named("oracle.tv_distance"))

    for name in ("oracle.make_joint", "corpus.make_corpus", "rvq.train_codebooks"):
        m[f"{name}.busy_s"] = busy(tracer.named(name))
    enc = tracer.named("conditioning.encode_text_toy")
    m["conditioning.encode_text_toy.calls"] = len(enc)
    m["conditioning.encode_text_toy.busy_s"] = busy(enc)
    m["patterns.busy_s"] = busy(s for s in tracer.spans if s.layer == "patterns")
    return m
