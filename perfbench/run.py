"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload gen_long --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: the workload is
set up SETUP_REPEATS times (setup_s), then runs operations back to back for
--seconds, with a fixed Reference computation timed between each two
(op_ref.p50). --trace 1 makes the traced run instead: a plain and a traced
set-up, then the same operations on each in turn, and reports the per-layer
metrics and the tracing overhead.

The program is imported from the src/ directory next to this one; BLAS is
pinned to BLAS_THREADS threads before numpy loads. Each run writes a record
(machine, seed, every metric with its sample count, output digest) to
perfbench/records/. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 21
# setup_s is set-up time over the Reference time around it, in units of
# REFERENCE_S: about what one Reference call takes on an idle 2-vCPU VM.
REFERENCE_S = 2.5e-3
MAX_PROBLEMS = 20  # problems kept in the record


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def run_op(wl, i: int, tally: Tally):
    """Operation i, checked; returns (output or None, seconds in the call)."""
    t = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # a failing operation is counted and the run goes on
        tally.add([f"op {i}: {type(exc).__name__}: {exc}"])
        return None, time.perf_counter() - t
    dt = time.perf_counter() - t
    tally.add(wl.check(i, out))
    return out, dt


def run_final_check(wl, first, last, tally: Tally) -> None:
    if first is None or last is None:
        tally.add(["no output to make the run-level check on"])
        return
    try:
        tally.add(wl.final_check(first, last))
    except Exception as exc:  # counted like any failed operation
        tally.add([f"run-level check: {type(exc).__name__}: {exc}"])


class Reference:
    """A fixed computation, independent of tokenweave, timed between operations
    and set-ups.

    Other tenants of a shared machine slow whole stretches of a run, by up to
    1.7x on a 2-vCPU VM, which moves medians of plain wall times by 10-30%
    from run to run. They slow this computation alike, so an operation's time
    over the reference time measured around it stays put; tokenweave changes
    move only the numerator. The mix, small matmuls with layer norms and
    Python dict work, resembles the workloads'; one call takes 2-3 ms.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((27, 48))
        self.w1 = rng.standard_normal((48, 192)) / 48**0.5
        self.w2 = rng.standard_normal((192, 48)) / 192**0.5
        self()  # first-call costs stay out of the measurements

    def __call__(self) -> float:
        np = self.np
        t = time.perf_counter()
        x = self.x
        for _ in range(20):
            x = x + np.maximum(x @ self.w1, 0.0) @ self.w2
            x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        counts: dict[tuple[int, int], float] = {}
        for i in range(3000):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0.0) + 0.5 * i
        return time.perf_counter() - t


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def measure(cls, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics, under the names the workload
    defines (tokens_per_s, request_ms.p50 ...) and under the names
    BENCHMARK.json gates on."""
    from bookkeeping import percentile, reportable_percentiles
    from workloads import digest

    reference = Reference()
    setup_times, setup_ratios = [], []
    for _ in range(SETUP_REPEATS):
        wl = None  # let the previous set-up go before building the next
        ref_before = reference()
        t = time.perf_counter()
        wl = cls(seed)
        dt = time.perf_counter() - t
        setup_times.append(dt)
        setup_ratios.append(dt / (0.5 * (ref_before + reference())))

    tally = Tally()
    kept = []  # outputs of operations 0..digest_ops-1
    first = last = None
    durations: list[float] = []
    ratios: list[float] = []  # operation time over the reference time around it
    items = 0

    def take(i: int, out) -> None:
        nonlocal first, last
        if out is None:
            return
        first = out if i == 0 else first
        if i < wl.digest_ops:
            kept.append(out)
        last = out

    for i in range(wl.warmup_ops):
        take(i, run_op(wl, i, tally)[0])
    i = wl.warmup_ops
    ref_before = reference()
    ref_times = [ref_before]
    t0 = time.perf_counter()
    while True:
        out, dt = run_op(wl, i, tally)
        ref_after = reference()
        ref_times.append(ref_after)
        take(i, out)
        if out is not None:
            durations.append(dt)
            ratios.append(dt / (0.5 * (ref_before + ref_after)))
            if wl.rate_name:
                items += wl.items(out)
        ref_before = ref_after
        i += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0 - sum(ref_times[1:])
    run_final_check(wl, first, last, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(durations)
    named = {
        "setup_s": metric(REFERENCE_S * statistics.median(setup_ratios), "s", SETUP_REPEATS),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "reference_ms.p50": metric(1e3 * percentile(ref_times, 50.0), "ms", len(ref_times)),
    }
    if wl.rate_name:
        named[wl.rate_name] = metric(items / wall, wl.rate_unit, n)
    if n and wl.time_unit == "s":
        named[wl.time_name] = metric(percentile(durations, 50.0), "s", n)
    elif n:
        for q in [50.0] + [q for q in reportable_percentiles(n) if q > 50.0]:
            named[f"{wl.time_name}.p{q:g}"] = metric(1e3 * percentile(durations, q), "ms", n)
    gated = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "op_ref.p50": metric(percentile(ratios, 50.0) if ratios else 0.0, "ref", n),
    }
    return {
        "tally": tally,
        "named": named,
        "metrics": gated,
        "setup_wall_s": statistics.median(setup_times),
        "digest": digest(wl, kept),
        "digest_ops": len(kept),
        "timed_ops": n,
        "timed_wall_s": wall,
    }


def traced(cls, seed: int) -> dict:
    """The traced run: one plain set-up and one with every layer wrapped,
    then operations 0..trace_ops-1 on each in turn, the tracer installed only
    around the traced ones. Counts depend only on the seed.
    trace.overhead_ratio is the median over operations of traced over plain
    time; each pair runs back to back, the order alternating, so that the
    machine's speed cancels."""
    from bookkeeping import Tracer
    from layers import layer_metrics, targets
    from workloads import digest

    tally = Tally()
    tracer = Tracer(targets())
    originals = [(tg.module, tg.attr, getattr(tg.module, tg.attr, None)) for tg in tracer.targets]
    plain_wl = cls(seed)
    with tracer:
        traced_wl = cls(seed)

    plain, outs, ratios = [], [], []
    wall = {False: 0.0, True: 0.0}  # keyed by whether the layers were wrapped
    for i in range(cls.trace_ops):
        dt = {}
        for wrapped in (False, True) if i % 2 == 0 else (True, False):
            if wrapped:
                with tracer:
                    out, dt[True] = run_op(traced_wl, i, tally)
                outs.append(out)
            else:
                out, dt[False] = run_op(plain_wl, i, tally)
                plain.append(out)
            wall[wrapped] += dt[wrapped]
        ratios.append(dt[True] / dt[False])
    run_final_check(plain_wl, plain[0], plain[-1], tally)
    tally.add(
        [f"{m.__name__}.{a} still wrapped" for m, a, fn in originals if getattr(m, a, None) is not fn]
    )
    n = min(cls.trace_ops, cls.digest_ops)
    if None in plain or None in outs or digest(plain_wl, plain[:n]) != digest(plain_wl, outs[:n]):
        tally.add(["traced outputs differ from untraced outputs"])
    else:
        tally.add([])

    layer = layer_metrics(tracer, traced_wl.steps_walked(cls.trace_ops))
    layer["trace.overhead_ratio"] = statistics.median(ratios)
    return {
        "tally": tally,
        "layer": layer,
        "digest": digest(plain_wl, outs[:n]) if None not in outs else None,
        "digest_ops": n,
        "spans": len(tracer.spans),
        "unwrapped": tracer.missing,
        "untraced_wall_s": wall[False],
        "traced_wall_s": wall[True],
    }


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_effect(np) -> int | None:
    """Ask the OpenBLAS that numpy bundles how many threads it uses."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        library = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(np),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "tokenweave" / "__init__.py").is_file():
        print(f"perfbench: no tokenweave sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import tokenweave
    from workloads import WORKLOADS

    if Path(tokenweave.__file__).resolve().parent != (src / "tokenweave").resolve():
        print(f"perfbench: imported tokenweave from {tokenweave.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    if args.trace:
        from layers import PER_LAYER

        result = traced(cls, args.seed)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        result["metrics"] = {k: metric(v, units[k], 1) for k, v in result.pop("layer").items()}
    else:
        result = measure(cls, args.seed, args.seconds)
    tally = result.pop("tally")

    record = {
        "workload": cls.name,
        "why": cls.why,
        "operation": cls.op_label,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "machine": machine(np),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        **result,
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{cls.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    for name, m in sorted(record.get("named", {}).items()):
        print(f"{cls.name} {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    correct = tally.failed == 0
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
