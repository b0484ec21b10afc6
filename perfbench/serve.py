"""The server process: one ``OracleServer`` over the benchmark's stores.

Usage (started by ``run.py``)::

    python3 perfbench/serve.py --static S.store --live L.store \
        --mesh terrain.off [--max-resident-bytes N] --trace 0|1 \
        --report OUT

Registers ``static`` (read-only; paged when ``--max-resident-bytes``
is given) and ``live`` (mutable, with its terrain workload), prints
``PORT <n>`` once listening, and serves until SIGTERM.  It then writes
``OUT.json`` (peak RSS, the service's counters) and, when traced, the
spans next to it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys

import dataset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--static", required=True)
    parser.add_argument("--live", required=True)
    parser.add_argument("--mesh", required=True)
    parser.add_argument("--max-resident-bytes", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    dataset.use_source_tree()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.serving.server import (
        MutableSpec, OracleServer, ServerConfig, build_service)

    config = ServerConfig(
        registrations=((dataset.STATIC, args.static),
                       (dataset.LIVE, args.live)),
        mutable={dataset.LIVE: MutableSpec(
            args.mesh, pois=dataset.NUM_POIS, poi_seed=dataset.POI_SEED,
            density=dataset.DENSITY)},
        max_resident_bytes=args.max_resident_bytes,
    )
    service = build_service(config)

    async def serve() -> None:
        server = OracleServer(service)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        _, port = await server.start()
        print(f"PORT {port}", flush=True)
        await stop.wait()
        await server.stop()

    asyncio.run(serve())
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "stats": service.stats(),
    }
    if tracer is not None:
        report["span_cost_s"] = spans.span_cost_s()
        tracer.dump(args.report, report)
    else:
        with open(args.report + ".json", "w") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
