"""The builder process: build, pack and check the dataset's store.

Usage (started by ``run.py``)::

    python3 perfbench/builder.py --store OUT.store --mesh OUT.off \
        --trace 0|1 --report OUT

Builds the serial (``jobs=1``) SE oracle of the fixed dataset, packs
it and reads its peak RSS.  Then, outside the timed part, it checks
the packed store against the oracle and the oracle against exact
geodesic rows, and writes ``OUT.check.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import dataset


def relative_errors(oracle, engine) -> np.ndarray:
    """|oracle - exact| / exact over every ordered pair of distinct
    POI positions."""
    approx = oracle.query_matrix()
    exact = np.zeros_like(approx)
    for poi in range(engine.num_pois):
        for target, distance in engine.distances_from_poi(poi).items():
            exact[poi, target] = distance
    apart = exact > 0
    return np.abs(approx - exact)[apart] / exact[apart]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--mesh", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    dataset.use_source_tree()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.core import SEOracle, open_oracle, pack_oracle
    from repro.terrain import write_mesh

    mesh = dataset.make_mesh()
    engine = dataset.make_engine(mesh)
    write_mesh(mesh, args.mesh)

    began = time.perf_counter()
    oracle = SEOracle(engine, dataset.EPSILON,
                      seed=dataset.ORACLE_SEED).build()
    pack_oracle(oracle, args.store)
    ended = time.perf_counter()
    report = {
        "build_s": ended - began,
        "window": [began, ended],
        "store_bytes": os.path.getsize(args.store),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        report["span_cost_s"] = spans.span_cost_s()
        tracer.dump(args.report, report)

    # Checks, outside the timed builds.
    stored = open_oracle(args.store)
    report["reopened_equal"] = bool(np.array_equal(
        stored.query_matrix(), oracle.query_matrix()))
    report["max_rel_error"] = float(relative_errors(oracle, engine).max())
    with open(args.report + ".check.json", "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
