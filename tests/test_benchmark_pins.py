"""The benchmark's pinned results hold: one seed-1 pass of each workload of
``perfbench/workloads.py``, from cold caches, gives every item the exact
result pinned in ``perfbench/reference/<workload>.json``, compared as
``perfbench/run.py`` compares them.  The test reads the benchmark's files
and writes none."""

import json
from pathlib import Path

import pytest

from helpers import cold_caches
from test_circuit_replacement import _workloads

REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"
workloads = _workloads()


def one_pass(name: str) -> dict:
    """Each item's encoded result, as the benchmark's worker records it in
    one pass, with its CSV report line on table-verify."""
    make_items, run_item, finish_pass = workloads.WORKLOADS[name]
    cold_caches()
    results, raw = {}, []
    for key, item in make_items(1):
        try:
            value, encoded = run_item(item)
        except Exception as exc:  # the worker records a failing item and goes on
            value, encoded = None, workloads.error_entry(exc)
        results[key] = encoded
        raw.append(value)
    if finish_pass is not None:
        for encoded, line in zip(results.values(), finish_pass(raw)):
            encoded["csv"] = line
    return json.loads(json.dumps(results))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_item_returns_its_pinned_result(name):
    # an item pinned as an error may raise or return; every other item must
    # return exactly its pin
    pins = {key: entry["result"]
            for key, entry in json.loads((REFERENCE / f"{name}.json").read_text())["items"].items()}
    got = one_pass(name)
    assert got.keys() == pins.keys()
    wrong = [key for key, pin in pins.items() if "error" not in pin and got[key] != pin]
    assert not wrong, wrong
