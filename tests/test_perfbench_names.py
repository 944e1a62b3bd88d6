"""Every name the benchmark tracer wraps must exist: ``Tracer.instrument``
skips a missing one silently, so a rename would drop its span unnoticed."""

import importlib
import importlib.util
import sys
from pathlib import Path

import tkgc

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = []
    for module, attr, _ in tracing.WRAPPED:
        owner = importlib.import_module(f"tkgc.{module}") if module else tkgc
        if not hasattr(owner, attr):
            missing.append(f"tkgc{'.' + module if module else ''}.{attr}")
    assert not missing, missing
