"""Every layer that `perfbench/tracing.py` wraps exists in the package.

The tracer rebinds the functions and methods named in its `SPANS` and
`COUNTS` lists; a refactor that deletes or renames one of them breaks the
traced benchmark run and its self-test, so the lists are checked here
against the package.  Only `perfbench/` is read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, qual):
    owner = importlib.import_module(f"multicat.{module}")
    for part in qual.split("."):
        if part not in vars(owner):
            return False
        owner = vars(owner)[part]
    return callable(owner)


def test_traced_names_resolve():
    tracing = _tracing()
    names = [(m, q) for m, q, _ in tracing.SPANS] + list(tracing.COUNTS)
    assert len(names) > 30
    missing = [f"{m}.{q}" for m, q in names if not _resolves(m, q)]
    assert not missing, f"traced names gone from the package: {missing}"
