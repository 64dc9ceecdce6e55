#!/usr/bin/env python3
"""Check the statistic blocks of run and fleet report JSON documents.

Usage: python3 tools/check_report_shape.py REPORT.json [REPORT.json ...]

Each document (a RunReport or a FleetReport) must carry:
  * a `snapshot_cache` block with exactly the counter keys below, in that
    order, whose `hit_rate` is (hits + refreshes) over all queries;
  * a `counters` block whose names are strictly increasing and whose
    values are all positive (only counters that fired are listed);
  * an `engine` block whose `wall_per_sim_second` is wall over sim seconds.
Derived numbers are compared to a relative 1e-8: reports print doubles
with ten significant digits. Exits 1 and names the first failed check.
"""
import json
import sys

SNAPSHOT_CACHE_KEYS = [
    "hits", "refreshes", "certified_misses", "cold_misses", "invalidations",
    "pair_sweeps", "rx_sweeps", "full_builds", "incremental_builds",
    "geometry_reuses", "shadow_reuses", "blockage_reuses", "azimuth_reuses",
    "hit_rate",
]


def close(actual, expected):
    return abs(actual - expected) <= 1e-8 * max(abs(actual), abs(expected))


def check(path):
    with open(path) as f:
        doc = json.load(f)

    cache = doc["snapshot_cache"]
    assert list(cache) == SNAPSHOT_CACHE_KEYS, f"snapshot_cache keys {list(cache)}"
    reused = cache["hits"] + cache["refreshes"]
    queries = reused + cache["cold_misses"] + cache["invalidations"]
    hit_rate = reused / queries if queries else 0.0
    assert close(cache["hit_rate"], hit_rate), \
        f"hit_rate {cache['hit_rate']} != {hit_rate}"

    names = list(doc["counters"])
    assert all(a < b for a, b in zip(names, names[1:])), \
        f"counters not in strictly increasing name order: {names}"
    assert all(v > 0 for v in doc["counters"].values()), \
        "counters lists a counter that did not fire"

    engine = doc["engine"]
    sim_seconds = engine["sim_seconds"]
    ratio = engine["wall_seconds"] / sim_seconds if sim_seconds > 0 else 0.0
    assert close(engine["wall_per_sim_second"], ratio), \
        f"wall_per_sim_second {engine['wall_per_sim_second']} != {ratio}"


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        try:
            check(path)
        except (AssertionError, KeyError) as e:
            print(f"{path}: {e!r}", file=sys.stderr)
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
