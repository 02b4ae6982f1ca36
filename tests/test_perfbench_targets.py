"""The benchmark patches dhpose functions by module attribute
(``perfbench/tracing.py`` ``TARGETS``), so renaming or deleting one of them
must fail here too, not only under ``python3 -m pytest perfbench``."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_every_span_records_calls(tmp_path, monkeypatch):
    # a caller that binds a target by name (``from .nn import adam_step``)
    # still resolves above, but bypasses the wrapper: its span records nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import SPAN_NAMES, Tracer
    from workloads import Clock, SynthWorkload, TrainWorkload

    tracer = Tracer()
    for workload in (TrainWorkload, SynthWorkload):
        workdir = tmp_path / workload.__name__
        workdir.mkdir()
        wl = workload(3, str(workdir), quick=True)
        wl.build(Clock())
        assert wl.warm_up() == []
        assert wl.op(Clock(tracer))[0] == []
    calls = {name: tracer.summary(1)[f"{name}.calls"][0] for name in SPAN_NAMES}
    assert len(calls) == 26
    assert [name for name, n in calls.items() if n < 1] == []
