"""The fixed dataset every workload serves, and the paths it uses.

The terrain, its POI set and the oracle parameters are constants: the
workload seed drives what the traffic does with them, never the
dataset itself, so build work (SSAD counts, pairs, store bytes)
repeats exactly from run to run.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for stores, reports and span dumps; removed per run
WORK_ROOT = os.path.join(ROOT, ".perfbench")

GRID_EXPONENT = 5      # 33 x 33 grid: V = 1,089 vertices
TERRAIN_SEED = 11
NUM_POIS = 200
POI_SEED = 7
DENSITY = 1            # Steiner points per edge (the CLI default)
EPSILON = 0.25
ORACLE_SEED = 0
EXTENT = (14_000.0, 10_000.0)  # make_terrain's default planar extent

STATIC = "static"      # read-only registration: point + proximity traffic
LIVE = "live"          # mutable registration: churn traffic


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory.

    Raises ``SystemExit`` when the checkout holds no source tree, so a
    run outside a full checkout fails before it measures anything.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_mesh():
    from repro.terrain import make_terrain

    return make_terrain(grid_exponent=GRID_EXPONENT, seed=TERRAIN_SEED)


def make_engine(mesh):
    from repro.geodesic import GeodesicEngine
    from repro.terrain import sample_uniform

    pois = sample_uniform(mesh, NUM_POIS, seed=POI_SEED)
    return GeodesicEngine(mesh, pois, points_per_edge=DENSITY)
