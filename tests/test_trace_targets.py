"""Every function the benchmark tracer wraps still exists.

`perfbench/tracing.py` looks up yuancert functions by module and name
under `--trace 1`, so a deleted or renamed one makes every traced run
fail. The tracer's source is read and executed here; nothing is written.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _lookup_tables() -> list:
    namespace: dict = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    module, attr, _ = namespace["PENCIL_EVAL"]
    pairs = [(module, attr)]
    for module, funcs in namespace["TARGETS"].items():
        pairs.extend((module, func) for func in funcs)
    return [pytest.param(module, name, id=f"{module}.{name}") for module, name in pairs]


@pytest.mark.parametrize("module,name", _lookup_tables())
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"yuancert.{module}")
    assert callable(getattr(home, name, None)), f"yuancert.{module} has no function {name}"
