"""The benchmark's tracer wraps pertgraph functions by "module:attribute" name;
every name it lists must exist, or a traced run dies on a missing attribute."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("key", sorted(set(tracing.SPANS) | set(tracing.COUNTS)))
def test_traced_attribute_resolves(key):
    mod_name, attr = key.split(":")
    owner = importlib.import_module(f"pertgraph.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
