"""Tiled sharding benchmark: build fan-out, stitching cost, paging.

For each workload scale this script builds the same terrain twice —
one monolithic SE oracle and one ``--tiles N`` sharded oracle — packs
both as v4 stores, and measures what tiling costs and buys:

* build seconds, monolithic vs tiled serial vs tiled ``--jobs 2``
  (per-tile builds fan out across processes);
* query throughput through the packed tiled store under a page-pool
  byte budget (``--max-resident-bytes``; every tile pages through one
  shared pool), split into intra-tile batches (one compiled table)
  and cross-tile batches (portal stitching through the boundary
  matrix + paging churn), next to the unbounded tiled store;
* the deterministic paging footprint: the pool's peak resident bytes
  plus its fixed routing bytes vs the whole monolithic store, and the
  page ledger (loads / evictions / hits).

The default budget is the paged-column bytes of the store's two
largest tiles — what two whole tiles held in memory.

It *gates* (non-zero exit) on five invariants, which is what lets CI
run it as a sharding regression smoke test:

1. paged answers are **bit-identical** to the unbounded tiled oracle
   on the full mixed workload;
2. tiled and monolithic answers agree within the shared ``(1 + eps)``
   envelope (both sides hold the SE guarantee against the same exact
   metric, so their ratio is bounded by ``(1+eps)/(1-eps)``);
3. cross-tile QPS stays within ``--max-cross-ratio`` (default 5x) of
   intra-tile QPS under the budget;
4. the paged peak footprint stays below the monolithic store's bytes;
5. at the largest scale, bounded QPS on the mixed workload stays at
   or above ``--min-qps-ratio`` (default 0.3, the floor
   ``bench_paged.py`` uses) of the unbounded tiled QPS.

Usage::

    PYTHONPATH=src python benchmarks/bench_tiled.py \
        --scales tiny small --tiles 4 --max-cross-ratio 5 \
        --min-qps-ratio 0.3 --out BENCH_tiled.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import (  # noqa: E402
    SEOracle,
    build_tiled_oracle,
    open_oracle,
    pack_oracle,
    pack_tiled,
)
from repro.core.paged import PAGED_SECTIONS  # noqa: E402
from repro.core.store import section_layouts  # noqa: E402
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with the other smoke benchmarks.
from bench_query_throughput import SCALES, pair_workload  # noqa: E402


def make_workload(scale: str, density: int, seed: int):
    """The shared mesh shapes, with 3x the POIs.

    Tiling is a trade of per-tile portal overhead against per-tile POI
    savings: each tile's oracle covers its owned POIs *plus* its
    portals, so the footprint win only materialises once POIs dominate
    the cut length.  The shared ``SCALES`` counts are portal-dominated
    at smoke sizes; tripling them benchmarks the regime tiling is for.
    """
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, 3 * spec["pois"], seed=seed + 1)
    return mesh, pois, spec["epsilon"]


def split_pairs(owner: np.ndarray, sources: np.ndarray,
                targets: np.ndarray):
    """Partition a pair workload into intra- and cross-tile halves."""
    same = owner[sources] == owner[targets]
    return ((sources[same], targets[same]),
            (sources[~same], targets[~same]))


def two_tile_budget(tiled_path: str) -> int:
    """Paged-column bytes of the store's two largest tiles."""
    _, layouts = section_layouts(tiled_path)
    per_tile: dict = {}
    for name, (_, dtype, shape) in layouts.items():
        prefix, _, section = name.rpartition("/")
        if prefix.startswith("tiles/") and section in PAGED_SECTIONS:
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            per_tile[prefix] = per_tile.get(prefix, 0) + nbytes
    return sum(sorted(per_tile.values(), reverse=True)[:2])


def timed_qps(oracle, sources, targets, repeats: int) -> float:
    if sources.size == 0:
        return float("nan")
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        oracle.query_batch(sources, targets)
        best = min(best, time.perf_counter() - tick)
    return sources.size / best if best > 0 else float("inf")


def measure_scale(scale: str, tiles: int, max_resident_bytes,
                  queries: int, density: int, seed: int,
                  repeats: int) -> dict:
    mesh, pois, epsilon = make_workload(scale, density, seed)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)

    tick = time.perf_counter()
    mono = SEOracle(engine, epsilon, seed=seed).build()
    mono_build = time.perf_counter() - tick

    tick = time.perf_counter()
    build = build_tiled_oracle(mesh, pois, epsilon, tiles=tiles,
                               seed=seed, points_per_edge=density,
                               jobs=1)
    tiled_build = time.perf_counter() - tick

    tick = time.perf_counter()
    build_tiled_oracle(mesh, pois, epsilon, tiles=tiles, seed=seed,
                       points_per_edge=density, jobs=2)
    tiled_build_jobs2 = time.perf_counter() - tick

    sources, targets = pair_workload(len(pois), queries, seed + 2)
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    (intra_s, intra_t), (cross_s, cross_t) = split_pairs(
        np.asarray(build.owner), sources, targets)

    with tempfile.TemporaryDirectory() as tmp:
        mono_path = os.path.join(tmp, "mono.store")
        tiled_path = os.path.join(tmp, "tiled.store")
        pack_oracle(mono, mono_path)
        pack_tiled(build, tiled_path)
        mono_bytes = os.path.getsize(mono_path)
        tiled_bytes = os.path.getsize(tiled_path)

        budget = (max_resident_bytes if max_resident_bytes is not None
                  else two_tile_budget(tiled_path))
        full = open_oracle(tiled_path)
        paged = open_oracle(tiled_path, max_resident_bytes=budget)

        # Gate 1: paging is invisible to answers.
        expected = full.query_batch(sources, targets)
        answered = paged.query_batch(sources, targets)
        mismatches = int(np.sum(answered != expected))

        # Gate 2: tiled and monolithic agree within the shared
        # (1 + eps) envelope around the same exact metric.
        mono_answers = mono.query_batch(sources, targets)
        finite = np.isfinite(mono_answers) & (mono_answers > 0)
        envelope = (1.0 + epsilon) / (1.0 - epsilon)
        ratio = np.ones_like(mono_answers)
        ratio[finite] = answered[finite] / mono_answers[finite]
        worst_ratio = float(np.max(np.maximum(ratio, 1.0 / ratio)))

        # Warm one pass, then best-of timing per leg at the bound.
        intra_qps = timed_qps(paged, intra_s, intra_t, repeats)
        cross_qps = timed_qps(paged, cross_s, cross_t, repeats)
        bounded_qps = timed_qps(paged, sources, targets, repeats)
        unbounded_qps = timed_qps(full, sources, targets, repeats)
        mono_stored = open_oracle(mono_path)
        mono_qps = timed_qps(mono_stored, sources, targets, repeats)

        ledger = paged.page_counters()
        paged.close()
        peak_paged_bytes = (ledger["peak_resident_bytes"]
                            + ledger["fixed_bytes"])

    cross_ratio = (intra_qps / cross_qps
                   if cross_qps and np.isfinite(cross_qps) else
                   float("inf"))
    return {
        "scale": scale,
        "num_pois": len(pois),
        "tiles": tiles,
        "portals": build.meta["tiles"]["portals"],
        "epsilon": epsilon,
        "max_resident_bytes": budget,
        "page_bytes": ledger["page_bytes"],
        "max_pages": ledger["max_pages"],
        "queries": queries,
        "intra_pairs": int(intra_s.size),
        "cross_pairs": int(cross_s.size),
        "mono_build_seconds": mono_build,
        "tiled_build_seconds": tiled_build,
        "tiled_build_jobs2_seconds": tiled_build_jobs2,
        "mono_store_bytes": mono_bytes,
        "tiled_store_bytes": tiled_bytes,
        "peak_pool_bytes": ledger["peak_resident_bytes"],
        "fixed_bytes": ledger["fixed_bytes"],
        "peak_paged_bytes": int(peak_paged_bytes),
        "mono_qps": mono_qps,
        "unbounded_qps": unbounded_qps,
        "bounded_qps": bounded_qps,
        "qps_ratio": bounded_qps / unbounded_qps,
        "intra_qps": intra_qps,
        "cross_qps": cross_qps,
        "cross_ratio": cross_ratio,
        "page_loads": ledger["loads"],
        "page_evictions": ledger["evictions"],
        "page_hits": ledger["hits"],
        "ledger_reconciles": (
            ledger["loads"] - ledger["evictions"]
            == ledger["resident_pages"]
            and ledger["peak_resident_bytes"] <= ledger["budget_bytes"]),
        "worst_envelope_ratio": worst_ratio,
        "envelope_bound": envelope,
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
        "within_envelope": worst_ratio <= envelope * (1 + 1e-9),
        "paged_under_mono": peak_paged_bytes < mono_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", default=["tiny", "small"],
                        choices=sorted(SCALES),
                        help="workload scales to sweep, smallest first")
    parser.add_argument("--tiles", type=int, default=4)
    parser.add_argument("--max-resident-bytes", type=int, default=None,
                        help="page-pool budget for the paged QPS legs "
                             "(default: the paged-column bytes of the "
                             "store's two largest tiles)")
    parser.add_argument("--queries", type=int, default=20000,
                        help="random query pairs for the gates")
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5,
                        help="per-leg repetitions (best-of timing)")
    parser.add_argument("--max-cross-ratio", type=float, default=None,
                        help="fail if the largest scale's intra/cross "
                             "QPS ratio exceeds this")
    parser.add_argument("--min-qps-ratio", type=float, default=0.3,
                        help="fail if the largest scale's bounded / "
                             "unbounded tiled QPS falls below this")
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    runs = []
    for scale in args.scales:
        run = measure_scale(scale, args.tiles, args.max_resident_bytes,
                            args.queries, args.density, args.seed,
                            args.repeats)
        runs.append(run)
        verdict = "ok"
        if not run["equivalent"]:
            verdict = (f"PAGING BROKEN: {run['mismatches']} "
                       "mismatches")
        elif not run["within_envelope"]:
            worst = run["worst_envelope_ratio"]
            verdict = (f"ENVELOPE BROKEN: x{worst:.3f} > "
                       f"x{run['envelope_bound']:.3f}")
        elif not run["ledger_reconciles"]:
            verdict = "LEDGER BROKEN: pages do not reconcile"
        elif not run["paged_under_mono"]:
            verdict = "FOOTPRINT BROKEN: paged peak >= monolithic"
        print(f"{scale:7s} n={run['num_pois']:4d} tiles={run['tiles']} "
              f"portals={run['portals']:4d}  "
              f"build mono {run['mono_build_seconds']:6.2f}s "
              f"tiled {run['tiled_build_seconds']:6.2f}s "
              f"(x2 {run['tiled_build_jobs2_seconds']:6.2f}s)  "
              f"qps intra {run['intra_qps']:>10,.0f} "
              f"cross {run['cross_qps']:>10,.0f} "
              f"(ratio x{run['cross_ratio']:4.1f})  "
              f"bounded/unbounded x{run['qps_ratio']:4.2f}  "
              f"pages {run['page_loads']} loads "
              f"{run['page_evictions']} evictions "
              f"{run['page_hits']} hits  "
              f"peak {run['peak_paged_bytes'] / 1024:7.1f}KB / "
              f"{run['mono_store_bytes'] / 1024:7.1f}KB  {verdict}")

    healthy = all(run["equivalent"] and run["within_envelope"]
                  and run["ledger_reconciles"]
                  and run["paged_under_mono"] for run in runs)
    final_ratio = runs[-1]["cross_ratio"]
    final_qps_ratio = runs[-1]["qps_ratio"]
    report = {
        "benchmark": "bench_tiled",
        "tiles": args.tiles,
        "max_resident_bytes": args.max_resident_bytes,
        "queries": args.queries,
        "density": args.density,
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "healthy": healthy,
        "max_cross_ratio_required": args.max_cross_ratio,
        "final_cross_ratio": final_ratio,
        "min_qps_ratio_required": args.min_qps_ratio,
        "final_qps_ratio": final_qps_ratio,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not healthy:
        print("FAILED: a tiled-sharding gate broke (see verdicts)")
        return 1
    if args.max_cross_ratio is not None and \
            final_ratio > args.max_cross_ratio:
        print(f"FAILED: cross-tile QPS x{final_ratio:.1f} slower than "
              f"intra-tile; required within x{args.max_cross_ratio:.1f}")
        return 1
    if final_qps_ratio < args.min_qps_ratio:
        print(f"FAILED: bounded tiled QPS x{final_qps_ratio:.2f} of "
              f"unbounded; required at least x{args.min_qps_ratio:.2f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
