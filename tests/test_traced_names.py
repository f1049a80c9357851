"""The library functions the benchmark's tracer wraps by name exist, so
renaming one fails the tests and not only the benchmark run, which reports
it as an absent span.  perfbench/tracing.py is loaded from its file and
nothing in it is called."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_train_wrap_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRAIN_WRAPS
    absent = [name for module, attr, name in tracing.TRAIN_WRAPS if not callable(getattr(module, attr, None))]
    assert not absent, f"traced names with no library function: {absent}"
