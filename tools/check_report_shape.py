#!/usr/bin/env python3
"""Check the shape of run reports, fleet reports and BENCH_fleet.json.

Usage: python3 tools/check_report_shape.py FILE.json [FILE.json ...]

Each file is parsed, never grepped: reports are compact JSON.

A report (RunReport or FleetReport, told apart by its `schema`) must
carry every block its schema requires, and:
  * a `snapshot_cache` block with exactly the counter keys below, in that
    order, whose `hit_rate` is (hits + refreshes) over all queries;
  * a `counters` block whose names are strictly increasing and whose
    values are all positive (only counters that fired are listed);
  * an `engine` block whose `wall_per_sim_second` is wall over sim seconds.
A BENCH_fleet.json (no `schema`, a `batched_sweeps` block) must give each
`batched_sweeps` entry the report's `snapshot_cache` keys, in order, plus
its `ns_per_sweep`, with the same `hit_rate` check.

Doubles are written in their shortest round-trip form, so a derived number
must equal its recomputation from the printed counts exactly. Exits 1 and
names the first failed check.
"""
import json
import sys

SNAPSHOT_CACHE_KEYS = [
    "hits", "refreshes", "certified_misses", "cold_misses", "invalidations",
    "pair_sweeps", "rx_sweeps", "full_builds", "incremental_builds",
    "geometry_reuses", "shadow_reuses", "blockage_reuses", "azimuth_reuses",
    "hit_rate",
]

REQUIRED_BLOCKS = {
    "silent-tracker/run-report/v1": [
        "provenance", "scenario", "handover", "engine", "snapshot_cache",
        "counters", "latencies", "trace",
    ],
    "silent-tracker/fleet-report/v1": [
        "provenance", "fleet", "handover", "per_cell", "distributions",
        "engine", "snapshot_cache", "counters", "timing", "ues",
    ],
}


def check_snapshot_cache(cache, where):
    assert list(cache) == SNAPSHOT_CACHE_KEYS, f"{where} keys {list(cache)}"
    reused = cache["hits"] + cache["refreshes"]
    queries = reused + cache["cold_misses"] + cache["invalidations"]
    hit_rate = reused / queries if queries else 0.0
    assert cache["hit_rate"] == hit_rate, \
        f"{where} hit_rate {cache['hit_rate']} != {hit_rate}"


def check_report(doc):
    schema = doc.get("schema")
    assert schema in REQUIRED_BLOCKS, f"unknown schema {schema!r}"
    missing = [b for b in REQUIRED_BLOCKS[schema] if b not in doc]
    assert not missing, f"{schema} lacks {missing}"

    check_snapshot_cache(doc["snapshot_cache"], "snapshot_cache")

    names = list(doc["counters"])
    assert all(a < b for a, b in zip(names, names[1:])), \
        f"counters not in strictly increasing name order: {names}"
    assert all(v > 0 for v in doc["counters"].values()), \
        "counters lists a counter that did not fire"

    engine = doc["engine"]
    sim_seconds = engine["sim_seconds"]
    ratio = engine["wall_seconds"] / sim_seconds if sim_seconds > 0 else 0.0
    assert engine["wall_per_sim_second"] == ratio, \
        f"wall_per_sim_second {engine['wall_per_sim_second']} != {ratio}"


def check_bench_fleet(doc):
    entries = doc["batched_sweeps"]
    assert entries, "batched_sweeps is empty"
    for name, entry in entries.items():
        where = f"batched_sweeps.{name}"
        assert "ns_per_sweep" in entry, f"{where} lacks ns_per_sweep"
        check_snapshot_cache(
            {k: v for k, v in entry.items() if k != "ns_per_sweep"}, where)


def check(path):
    with open(path) as f:
        doc = json.load(f)
    if "schema" not in doc and "batched_sweeps" in doc:
        check_bench_fleet(doc)
    else:
        check_report(doc)


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        try:
            check(path)
        except (AssertionError, KeyError, ValueError) as e:
            print(f"{path}: {e!r}", file=sys.stderr)
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
