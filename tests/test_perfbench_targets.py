"""The benchmark patches dhpose functions by module attribute
(``perfbench/tracing.py`` ``TARGETS``), so renaming or deleting one of them
must fail here too, not only under ``python3 -m pytest perfbench``."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []
