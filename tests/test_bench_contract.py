"""The traced benchmark run reads the module caches by name
(`bench/layers.py`); a cache that is renamed or reshaped silently drops
its `cache.*` metric from the traced result.  The workloads import
flagcsm names inside their set-up and run methods
(`bench/workloads.py`), so a deleted or renamed one fails only when the
benchmark runs; every such import is resolved here.  The `rules-large`
workload checks its outputs against recorded digests; its cheapest items
are replayed here, so that a change to the rules or to the printing
shows in the tests."""

import ast
import importlib
import importlib.util
import json
import pathlib

from flagcsm.csm import oracle_product
from flagcsm.perm import Permutation
from flagcsm.symfun import schur_hook, x_range

LAYERS = pathlib.Path(__file__).parent.parent / "bench" / "layers.py"
WORKLOADS = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"


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


def test_workload_imports_resolve():
    imported = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("flagcsm"):
            imported.update((node.module, a.name) for a in node.names)
    assert {("flagcsm.csm", "csm_class"), ("flagcsm.csm", "oracle_product"),
            ("flagcsm.schubert", "double_schubert")} <= imported
    missing = [(module, name) for module, name in sorted(imported)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_rules_large_reference_digests_replay():
    # the three cheapest items of the workload, all at n = 8
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    rules_large = workloads.WORKLOADS["rules-large"]
    with open(rules_large.REFERENCE) as fh:
        reference = json.load(fh)
    for u in ("12348567", "12463578", "12346587"):
        item = (8, 5, u, (2, 1), 3)
        text, bad = rules_large.outputs(item)
        assert bad == []
        assert workloads._digest(text) == reference[rules_large.key(item)]
