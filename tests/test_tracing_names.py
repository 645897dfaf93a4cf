"""Every sqk function the benchmark tracer wraps still exists, so a rename
fails here rather than only in a traced benchmark run."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# run from source, so no bytecode is written next to the benchmark
TRACER = runpy.run_path(str(TRACING))


def _resolve(module: str, *attrs: str):
    obj = importlib.import_module(f"sqk.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_span_resolves():
    for quals in TRACER["SPANS"].values():
        for qual in quals:
            assert callable(_resolve(*qual.split("."))), qual


def test_every_counted_leaf_resolves():
    for key, (module, cls, attr) in TRACER["COUNTED"].items():
        path = (attr,) if cls is None else (cls, attr)
        assert callable(_resolve(module, *path)), key


def test_every_span_call_counter_is_a_traced_span():
    spans = {qual for quals in TRACER["SPANS"].values() for qual in quals}
    for key, qual in TRACER["SPAN_CALLS"].items():
        assert callable(_resolve(*qual.split("."))), key
        assert qual in spans, key
