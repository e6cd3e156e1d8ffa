"""One benchmark process: set up a workload's inputs, then run its items
in a closed loop (one caller, one item at a time) and print the raw
results as one JSON line.  ``run.py`` starts a fresh interpreter for every
set-up and every run, because toriq's caches would otherwise make a second
in-process run measure cache hits that a CLI user never gets.

The timed part runs whole passes over the same items, each from cleared
caches like a fresh CLI call, until ``--seconds`` have passed (at least
one pass).  Untraced processes probe the CPU's contention from their first
line on (``contention.py``) and report every time both as wall time and
corrected for contention.
"""

import argparse
import json
import resource
import sys
from time import perf_counter

import contention


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", type=int, default=1, help="0: wall times only")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="", help="file for the traced run's spans")
    args = ap.parse_args(argv)
    probe = contention.Probe()
    if args.probe:
        probe.start()

    import tracing
    import workloads

    make_items, run_item, finish_pass = workloads.WORKLOADS[args.workload]
    items = make_items(args.seed)
    caches = tracing.lru_caches()
    counter = tracing.CacheCounter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    for fn in caches.values():
        fn.cache_clear()
    t_first = perf_counter()
    # the probes of set-up; run.py corrects set-up with the timed run's base
    setup = {"t_first": t_first, "probes": probe.before(t_first)}
    if args.setup_only:
        probe.stop()
        print(json.dumps(setup))
        return 0

    records = []            # [key, seconds, encoded result, pass, corrected seconds]
    passes = []             # [start, end] of each pass
    while True:
        t_pass = perf_counter()
        raw = []
        first = len(records)
        for key, item in items:
            t0 = perf_counter()
            try:
                value, encoded = run_item(item)
            except Exception as exc:  # a failing item is recorded, the loop goes on
                value, encoded = None, workloads.error_entry(exc)
                print(f"{key}: {type(exc).__name__}: {str(exc)[:200]}", file=sys.stderr)
            t1 = perf_counter()
            records.append([key, (t0, t1), encoded, len(passes)])
            raw.append(value)
        if finish_pass is not None:
            for rec, line in zip(records[first:], finish_pass(raw)):
                rec[2]["csv"] = line
        t_end = perf_counter()
        passes.append((t_pass, t_end))
        counter.collect()
        for fn in caches.values():
            fn.cache_clear()
        if t_end - passes[0][0] >= args.seconds:
            break
    probe.stop()

    out = {"setup": setup,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.probe:
        b, fast_share = contention.base(probe.durs)
        out.update(base=b, fast_share=fast_share, probes=len(probe.durs))

        def correct(t0, t1):
            return contention.corrected(probe.starts, probe.durs, b, t0, t1)
    else:
        def correct(t0, t1):
            return t1 - t0
    for rec in records:
        t0, t1 = rec[1]
        rec[1] = t1 - t0
        rec.append(correct(t0, t1))
    out["records"] = records
    out["pass_times"] = [[t1 - t0, correct(t0, t1)] for t0, t1 in passes]
    if tracer is not None:
        out["layers"] = {**tracer.metrics(), **counter.metrics()}
        if args.spans:
            out["spans"] = tracer.write_spans(args.spans, passes[0][0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
