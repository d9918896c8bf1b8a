"""Run every workload and print every metric by name, with unit and sample count.

    python3 perfbench/report.py                       # one untraced run per workload
    python3 perfbench/report.py --runs 10 --seed 100  # seeds 100..109; median and spread
    python3 perfbench/report.py --trace               # traced runs, twice per workload

Each run is its own process (perfbench/run.py), so peak_rss_mb belongs to one
workload alone. For several runs the table gives each metric's median and
its spread, the distance between the first and third quartile as a share of
the median, next to the bound BENCHMARK.json fixes. The traced mode runs each
workload twice at one seed and checks that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".rows", ".support")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    """(last JSON line, record) of one run; (None, None) if it printed no result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        return None, None
    record_path = HERE / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(record_path.read_text())


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def untraced(bench: dict, seed: int, runs: int, seconds: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in bench["workloads"]:
        name = wl["name"]
        results = [run_once(name, seed + r, seconds, 0) for r in range(runs)]
        done = [(line, rec) for line, rec in results if line is not None]
        attempted = sum(line["attempted"] for line, _ in done)
        failed = sum(line["failed"] for line, _ in done)
        ok &= len(done) == runs and failed == 0
        print(f"\n== {name}: {len(done)}/{runs} runs, operations attempted {attempted}, failed {failed}")
        print(f"   why: {wl['why']}")
        if not done:
            continue
        print(f"   {'metric':<22} {'median':>12} {'unit':<9} {'samples/run':>11} {'spread':>7} {'bound':>6}")
        rows: dict[str, list] = {}
        for line, rec in done:
            for key, m in rec["named"].items():
                rows.setdefault(key, []).append(m)
            for key, m in rec["metrics"].items():
                rows.setdefault(f"[gated] {key}", []).append(m)
        for key, ms in rows.items():
            values = [m["value"] for m in ms]
            samples = statistics.median(m["samples"] for m in ms)
            bound = bounds[key.removeprefix("[gated] ")] if key.startswith("[gated]") else ""
            print(
                f"   {key:<22} {statistics.median(values):>12.6g} {ms[0]['unit']:<9} "
                f"{samples:>11g} {spread(values):>7.3f} {bound!s:>6}"
            )
        for _, rec in done:
            for problem in rec["problems"]:
                print(f"   FAILED CHECK (seed {rec['seed']}): {problem}")
    return ok


def traced(bench: dict, seed: int, seconds: int) -> bool:
    ok = True
    for wl in bench["workloads"]:
        name = wl["name"]
        (a, rec), (b, _) = (run_once(name, seed, seconds, 1) for _ in range(2))
        if a is None or b is None:
            print(f"\n== {name}: traced run printed no result")
            ok = False
            continue
        counts = [k for k in a["metrics"] if k.endswith(COUNT_SUFFIXES)]
        differ = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        ok &= not differ and a["failed"] == 0 and b["failed"] == 0
        print(
            f"\n== {name} (seed {seed}): attempted {a['attempted']}, failed {a['failed']}; "
            f"{len(counts)} counts {'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}"
        )
        for key, m in a["metrics"].items():
            print(f"   {key:<48} {m['value']:>14.6g} {m['unit']}")
    return ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    ok = traced(bench, args.seed, seconds) if args.trace else untraced(bench, args.seed, args.runs, seconds)
    print("\nall output checks passed" if ok else "\nSOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
