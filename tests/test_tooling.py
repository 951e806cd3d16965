"""The traced benchmark run wraps program names by attribute lookup; a
renamed or deleted name must fail here rather than crash that run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing
