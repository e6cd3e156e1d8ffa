"""Print the hits, misses and size of every toriq cache over one benchmark pass.

    python3 tools/cachestats.py

Run from the root of a source checkout; toriq is imported from ``src/`` and
the workloads and the cache finder from ``perfbench/``, which is only read.
For each workload, seed 1: make its items, clear every functools cache of
the loaded toriq modules (as the benchmark's worker does before each pass)
and run one pass over them, a failing item recorded as its error.  Then
read each cache's ``cache_info()``.  The output is one JSON object: per
workload, the hits, misses and currsize of each cache by qualified name,
and the sha256 of the pass's encoded results, which a change that keeps
every output bit-identical leaves as it is.  Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def one_pass(name: str) -> dict:
    make_items, run_item, finish_pass = workloads.WORKLOADS[name]
    items = make_items(SEED)
    caches = dict(sorted(tracing.lru_caches().items()))
    for fn in caches.values():
        fn.cache_clear()
    raw, encoded = [], []
    for key, item in items:
        try:
            value, enc = run_item(item)
        except Exception as exc:  # a failing item is recorded, as the worker does
            value, enc = None, workloads.error_entry(exc)
        raw.append(value)
        encoded.append([key, enc])
    if finish_pass is not None:
        for rec, line in zip(encoded, finish_pass(raw)):
            rec[1]["csv"] = line
    stats = {}
    for qualname, fn in caches.items():
        info = fn.cache_info()
        stats[qualname] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
    digest = hashlib.sha256(json.dumps(encoded, sort_keys=True).encode()).hexdigest()
    return {"caches": stats, "digest": digest}


def main() -> int:
    print(json.dumps({name: one_pass(name) for name in workloads.WORKLOADS}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
