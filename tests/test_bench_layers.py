"""The benchmark's layer tracer finds every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_layer_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"jrtower.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"jrtower.{layer}.{name}"
