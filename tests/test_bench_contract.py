"""The traced benchmark run reads the module caches by name
(`bench/layers.py`); a cache that is renamed or reshaped silently drops
its `cache.*` metric from the traced result, so the traced result is
rebuilt here from caches filled as the set-ups fill them and checked for
every declared per-layer metric.  The workloads import
flagcsm names inside their set-up and run methods
(`bench/workloads.py`), so a deleted or renamed one fails only when the
benchmark runs; every such import is resolved here.  The `rules-large`
workload checks its outputs against recorded digests; its cheapest items
are replayed here, so that a change to the rules or to the printing
shows in the tests.  `rules-large` set-up time is the import of
`flagcsm.rules`, so the modules that import loads are pinned here."""

import ast
import importlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import flagcsm
from flagcsm.csm import oracle_product
from flagcsm.perm import Permutation
from flagcsm.symfun import schur_hook, x_range

ROOT = pathlib.Path(__file__).parent.parent
LAYERS = ROOT / "bench" / "layers.py"
TRACING = ROOT / "bench" / "tracing.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_traced_result_line_holds_every_per_layer_metric():
    # the caches filled as both set-ups fill them, at small sizes; a cache
    # whose layout `layers.cache_metrics` cannot read drops its metric
    import flagcsm.cli
    import flagcsm.rht  # noqa: F401
    import flagcsm.rules  # noqa: F401
    from flagcsm.csm import csm_class
    from flagcsm.perm import all_permutations, grassmannian_from_partition
    from flagcsm.schubert import double_schubert

    layers = _load("bench_layers", LAYERS)
    tracing = _load("bench_tracing", TRACING)
    for w in all_permutations(4):
        csm_class(w)
        double_schubert(w)
    double_schubert(grassmannian_from_partition((2, 1), 3, 6))
    g = schur_hook(4, 1, 0, x_range(2))
    for basis in ("csm", "schubert"):
        oracle_product(Permutation.parse("2143"), g, basis)

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        code = flagcsm.cli.main(["rht", "--outer", "2,2", "--r", "2",
                                 "--method", "all"], out=io.StringIO())
    finally:
        tracer.restore()
    assert code == 0
    metrics = layers.metrics(tracer)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    added_by_run = {"trace.wall_s", "trace.overhead_s", "trace.spans"}
    assert added_by_run <= declared
    assert sorted(declared - added_by_run - set(metrics)) == []
    json.dumps({k: {"value": v, "unit": u}
                for k, (v, u) in metrics.items()}, allow_nan=False)


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


def test_rules_import_loads_only_its_modules():
    # a fresh interpreter, so that no other test has loaded a module
    code = ("import sys, flagcsm.rules; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('flagcsm'))))")
    src = os.path.dirname(os.path.dirname(flagcsm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split()
    assert got == ["flagcsm"] + ["flagcsm." + m for m in sorted(
        ("perm", "exact", "bruhat", "schubert", "symfun", "rules"))]
