"""The benchmark's traced layers reach the library.

bench/layers.py times each layer by wrapping a function at the module
attribute its callers use (for example ``residues.geometric_log_sum``).  If
library code stops calling through that attribute, the layer records no
spans and ``bench/run.py --trace 1`` fails on an empty metric.  This test
runs each workload's warm-up under those wrappers and asserts that every
span name was reached.  It reads bench/ and writes nothing there.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(BENCH)
    return layers, spans, workloads


def test_every_traced_layer_records_spans(bench_modules):
    layers, spans, workloads = bench_modules
    targets = layers.CORE_TARGETS + layers.RESIDUE_TARGETS
    tracer = spans.Tracer()
    with spans.patched(tracer, targets):
        workloads.NearAxis.warm_up()
        workloads.LawSweep.warm_up()
        workloads.ResidueReplay.warm_up()
    names = {name for _, _, name, _ in targets}
    assert len(names) == 16
    assert sorted(name for name in names if not tracer.indices(name)) == []


NEAR_AXIS_LAYERS = ["dedekind.multiplier", "dedekind.sum", "modular.fd_reduce", "theta.series", "transform.fast",
                    "transform.reduce"]
LAW_SWEEP_LAYERS = ["dedekind.multiplier", "dedekind.sum", "theta.eta", "theta.series", "transform.law"]


@pytest.mark.parametrize("workload, expected", [("NearAxis", NEAR_AXIS_LAYERS), ("LawSweep", LAW_SWEEP_LAYERS)])
def test_each_workload_reaches_its_own_layers(bench_modules, workload, expected):
    # one workload per tracer: a span another workload's warm-up records cannot stand in for this one's
    layers, spans, workloads = bench_modules
    tracer = spans.Tracer()
    with spans.patched(tracer, layers.CORE_TARGETS + layers.RESIDUE_TARGETS):
        getattr(workloads, workload).warm_up()
    assert [name for name in expected if not tracer.indices(name)] == []
