"""Every function the benchmark's tracer wraps still exists in the package.

`perfbench/spans.py` names its targets as (module, attribute path)
strings; a rename in the engine would otherwise surface only when the
traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr", load_targets())
def test_traced_target_resolves(module, attr):
    owner = importlib.import_module(f"thickgen.{module}")
    cls_name, _, fn_name = attr.rpartition(".")
    holder = vars(getattr(owner, cls_name)) if cls_name else vars(owner)
    assert callable(holder.get(fn_name)), f"{module}.{attr}"
