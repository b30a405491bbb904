"""The benchmark's traced run can find every program attribute it wraps.

``perfbench/tracing.py`` instruments ``likelymat`` from the outside by
replacing module attributes by name.  A refactor that drops or renames one
of them would only show up as a crash of ``perfbench/run.py --trace 1``;
this test makes it fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import likelymat.cli  # noqa: F401  (the plan looks the modules up in sys.modules)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    plan = tracing._patch_plan()
    assert plan
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in plan if not callable(getattr(owner, attr, None))]
    assert missing == []
