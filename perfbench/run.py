"""toriq benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table-verify --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; toriq is imported from ``src/``.
Every set-up and every run is a fresh interpreter (see ``worker.py``).

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  Times are corrected for CPU contention (``contention.py``); the
wall times are printed beside them.  Set-up is timed in nine fresh
processes and the median reported.  ``--trace 1`` runs one pass with
per-layer spans, then one untraced pass to measure the tracing overhead,
both in wall time, and prints the per-layer metrics.  Spans go to
``perfbench/out/``.

Every item's exact result is compared with the pinned reference in
``perfbench/reference/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import contention

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table-verify", "mmp-4fold", "adjoint-family")
SETUPS = 8            # set-up-only processes; with the timed one, 9 set-ups
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a fresh worker, wait for it, return (spawn time, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least 10 samples beyond it
    (nearest rank), its value and the sample count; with 10 samples or
    fewer, the maximum is reported as percentile 100."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1], n
    p = math.floor(100 * (n - 10) / n)
    return p, xs[math.ceil(p * n / 100) - 1], n


def check(records: list, reference: dict) -> dict:
    """Compare every item's exact result with the pinned one.  Items pinned
    as failures are not compared: they count as failures while they still
    raise, and as fixed once they return."""
    c = {"attempted": len(records), "failed": 0, "new_failures": 0, "fixed": 0,
         "compared": 0, "wrong": 0, "wrong_keys": []}
    for key, _, got, _, _ in records:
        ref = reference[key]["result"]
        if "error" in got:
            c["failed"] += 1
            if "error" not in ref:
                c["new_failures"] += 1
        elif "error" in ref:
            c["fixed"] += 1
        else:
            c["compared"] += 1
            if got != ref:
                c["wrong"] += 1
                c["wrong_keys"].append(key)
    return c


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(traced: dict, plain: dict) -> dict:
    """Per-layer metrics of a traced single pass, plus the tracing
    overhead: traced minus untraced wall time of the same single pass."""
    out = {}
    for key, value in traced["layers"].items():
        stat = key.rsplit(".", 1)[1]
        unit = "ratio" if stat == "yield" else "s" if stat.endswith("_s") else "count"
        out[key] = metric(value, unit)
    out["trace.overhead_s"] = metric(traced["pass_times"][0][0] - plain["pass_times"][0][0], "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "toriq" / "__init__.py").is_file():
        print(f"no toriq sources under {SRC}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())["items"]
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            one_pass = base[:-1] + ["0", "--probe", "0"]
            _, run = run_worker(one_pass + ["--trace", "1", "--spans", str(spans)], deadline)
            _, plain = run_worker(one_pass, deadline)
        else:
            # set-up-only processes before and after the timed one
            spawned = []
            for i in range(SETUPS):
                if i == SETUPS // 2:
                    t_spawn, run = run_worker(base, deadline)
                    spawned.append((t_spawn, run["setup"]))
                t_spawn, ready = run_worker(base + ["--setup-only"], deadline)
                spawned.append((t_spawn, ready))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    records = run["records"]
    passes = len(run["pass_times"])
    c = check(records, reference)
    correct = c["wrong"] == 0 and c["new_failures"] == 0
    print(f"workload {args.workload}, seed {args.seed}: {passes} pass(es) over "
          f"{len(records) // passes} items, closed loop, one caller")
    print(f"fail_ratio {c['failed']}/{c['attempted']} = {c['failed'] / c['attempted']:.4f} "
          f"({c['new_failures']} not pinned as failures, {c['fixed']} pinned failures now pass)")
    wrong_ratio = c["wrong"] / c["compared"] if c["compared"] else 0.0
    print(f"wrong_ratio {c['wrong']}/{c['compared']} = {wrong_ratio:.4f}"
          + (f" (wrong: {', '.join(c['wrong_keys'])})" if c["wrong_keys"] else ""))

    if args.trace:
        metrics = trace_metrics(run, plain)
        print(f"tracing overhead: traced pass {run['pass_times'][0][0]:.3f} s - untraced pass "
              f"{plain['pass_times'][0][0]:.3f} s (wall); {run.get('spans', 0)} spans in "
              f"{spans.relative_to(ROOT)}")
        functions = sorted(k[:-6] for k in metrics if k.endswith(".calls"))
        print(f"{'function':<44}{'calls':>10}{'self_s':>11}{'total_s':>11}")
        for key in functions:
            total = metrics.get(f"{key}.total_s")
            print(f"{key:<44}{metrics[key + '.calls']['value']:>10g}"
                  f"{metrics[key + '.self_s']['value']:>11.4f}"
                  + (f"{total['value']:>11.4f}" if total else f"{'-':>11}"))
        for key, m in metrics.items():
            name, stat = key.rsplit(".", 1)
            if name not in functions or stat not in ("calls", "self_s", "total_s"):
                print(f"{key} {m['value']:.6g} {m['unit']}")
    else:
        b = run["base"]
        # perf_counter is the system-wide monotonic clock, so a worker's
        # times compare with the spawn time taken here; interpreter start,
        # before the worker's first probe, counts at that probe's speed
        setups = [contention.corrected(*ready["probes"], b, t_spawn, ready["t_first"])
                  for t_spawn, ready in spawned]
        # each item's corrected time, averaged over the passes
        per_item: dict[str, list[float]] = {}
        for key, _, _, _, seconds in records:
            per_item.setdefault(key, []).append(seconds)
        item_s = {key: statistics.fmean(ts) for key, ts in per_item.items()}
        times = list(item_s.values())
        run_s = statistics.fmean(corr for _, corr in run["pass_times"])
        p, tail_s, n = tail(times)
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(run_s, "s"),
            "items_per_s": metric(len(times) / run_s, "1/s"),
            "item_p50_ms": metric(statistics.median(times) * 1000, "ms"),
            "item_tail_ms": metric(tail_s * 1000, "ms"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
        wall_items = [wall for _, wall, _, _, _ in records]
        print("passes, wall / corrected: " + ", ".join(
            f"{wall:.3f} / {corr:.3f} s" for wall, corr in run["pass_times"]))
        print(f"contention: {run['probes']} probes, {run['fast_share']:.0%} uncontended, "
              f"base {run['base'] * 1e6:.1f} us; item p50 wall "
              f"{statistics.median(wall_items) * 1000:.1f} ms")
        print("setup_s over fresh processes, corrected: "
              + ", ".join(f"{t:.3f}" for t in setups))
        slowest = max(item_s, key=item_s.get)
        print(f"item_tail_ms is p{p} of {n} items; slowest item {slowest} "
              f"{item_s[slowest] * 1000:.1f} ms")
        for key, m in metrics.items():
            print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": c["attempted"], "failed": c["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
