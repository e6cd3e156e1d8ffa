"""Write the pinned exact results of every pool item of a workload.

    PYTHONPATH=src python3 perfbench/pin.py --workload mmp-4fold

Run from the root of a source checkout at the commit whose results are to
be pinned.  Items that raise are pinned as failures with their exception
class, never as values, so a later fix lowers the failure count instead of
raising the wrong count.  The items are the fixed lists of workloads.py.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing
import workloads
from toriq import fano_table
from toriq.intersection import TorusDivisor, is_ample


def clear_caches():
    for fn in tracing.lru_caches().values():
        fn.cache_clear()


def pin_runs(run_item, inputs: dict) -> dict:
    """Run every item from cold caches and pin its result."""
    items = {}
    for key, item in inputs.items():
        print(key, file=sys.stderr)
        clear_caches()
        try:
            result = run_item(item)[1]
        except Exception as exc:  # pinned as a failure, see the module docstring
            print(f"  {type(exc).__name__}: {str(exc)[:200]}", file=sys.stderr)
            result = workloads.error_entry(exc)
        items[key] = {"result": result}
    return items


def pin_table() -> dict:
    items, raw = {}, []
    for name, row in workloads.table_items(0):
        res, encoded = workloads.run_table_item(row)
        raw.append(res)
        items[name] = {"result": encoded}
    for (name, entry), line in zip(items.items(), workloads.finish_table_pass(raw)):
        entry["result"]["csv"] = line
    return dict(sorted(items.items()))


def pin_mmp() -> dict:
    rows = {r.name: r for r in workloads.explicit_rows()}
    ks = workloads.mmp_perturbations(rows.values())
    inputs = {}
    for name in workloads.MMP_ROWS:
        row = rows[name]
        fan, _ = fano_table.reconstruct_fan(row)
        P = workloads.mmp_polytope(row, ks[row.name])
        if not is_ample(fan, TorusDivisor(fan, P.constants)):
            raise SystemExit(f"perturbed -K is not ample on row {row.name}")
        inputs[row.name] = P
    return pin_runs(workloads.run_mmp_item, inputs)


def pin_adjoint() -> dict:
    return pin_runs(workloads.run_adjoint_item,
                    {key: workloads.adjoint_polytope(key) for key in workloads.ADJOINT_KEYS})


PINNERS = {"table-verify": pin_table, "mmp-4fold": pin_mmp, "adjoint-family": pin_adjoint}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PINNERS))
    args = ap.parse_args(argv)
    items = PINNERS[args.workload]()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    lines = [f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}" for key, entry in items.items()]
    path.write_text(f'{{"workload": {json.dumps(args.workload)}, "items": {{\n'
                    + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(items)} items to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
