"""The benchmark's span tracer still finds every program name it wraps.

`perfbench/spans.py` swaps fluxsim functions for timing wrappers by module
attribute, so a renamed, moved or deleted function breaks traced benchmark
runs; this test makes that a unit-test failure instead.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_then_restore_puts_every_original_back():
    spans = _load_spans()
    ins = spans.instrument(spans.Tracer())
    try:
        wrapped = list(ins._saved)
        assert wrapped
        for owner, attr, original in wrapped:
            current = spans._get(owner, attr)
            assert current is not original
            assert current.__wrapped__ is original
    finally:
        ins.restore()
    for owner, attr, original in wrapped:
        assert spans._get(owner, attr) is original, attr
