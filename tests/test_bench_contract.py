"""The traced benchmark run reads the module caches by name
(`bench/layers.py`); a cache that is renamed or reshaped silently drops
its `cache.*` metric from the traced result."""

import importlib.util
import pathlib

from flagcsm.csm import oracle_product
from flagcsm.perm import Permutation
from flagcsm.symfun import schur_hook, x_range

LAYERS = pathlib.Path(__file__).parent.parent / "bench" / "layers.py"


def test_cache_metrics_cover_every_cache():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    n = 4
    g = schur_hook(n, 1, 0, x_range(2))
    for basis in ("csm", "schubert"):
        oracle_product(Permutation.parse("2143"), g, basis)
    got = layers.cache_metrics()
    assert {"cache.schub_entries", "cache.csm_entries", "cache.loc_entries",
            "cache.terms_held"} <= set(got)
    assert got["cache.loc_entries"] > 0
