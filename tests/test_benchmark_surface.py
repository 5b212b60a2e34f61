"""The names the benchmark under perfbench/ reads from packedhe.

The benchmark binds most of them only while it runs: the tracer rebinds
every ``tracer.FUNCTIONS`` entry under ``--trace 1``, and the workloads
call functions through their modules.  A renamed or deleted function
would pass every other test here and first fail inside a benchmark run.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from packedhe import pipeline
from packedhe.engine import EngineParams, SlotEngine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracer", "workloads", "inputs")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_functions_exist(perfbench):
    functions = perfbench["tracer"].FUNCTIONS
    assert functions
    for name in functions:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"packedhe.{module}"), attr, None)), name


def test_workload_module_attributes_exist(perfbench):
    """Every ``<module>.<name>`` the workloads read off a packedhe module."""
    workloads = perfbench["workloads"]
    modules = {
        alias: value
        for alias, value in vars(workloads).items()
        if isinstance(value, types.ModuleType) and value.__name__.startswith("packedhe.")
    }
    tree = ast.parse(Path(workloads.__file__).read_text())
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("pipeline", "forward_encoded") in used
    missing = [f"{modules[alias].__name__}.{attr}" for alias, attr in sorted(used) if not hasattr(modules[alias], attr)]
    assert not missing


def test_a_traced_forward_pass_counts_the_flatten_reform(perfbench):
    """The tracer rebinds ``virtual.reform`` under every module-level name
    bound to it, so the flatten stage's one reform call is counted, as on a
    traced ``infer`` run."""
    inputs = perfbench["inputs"]
    rng = np.random.default_rng(0)
    engine = SlotEngine(EngineParams(slots=1024))
    model = pipeline.encode_model(engine, inputs.make_weights(rng))
    ct = pipeline.pack_batch(engine, inputs.make_images(rng, 1))
    with perfbench["tracer"].Tracer() as tracer:
        pipeline.forward_encoded(engine, ct, model)
    assert tracer.calls[("setup", "virtual.reform")] == 1
