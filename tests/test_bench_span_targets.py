"""Fail fast on a renamed span target.

``benchmarks/e2e/spans.py`` patches functions *by name* (its ``TARGETS``
table).  A refactor that renames or moves one makes a traced benchmark
run report ``tracing.targets_missing`` > 0 — long after the refactor
landed.  This test resolves every target the same way ``install`` does,
so the rename fails in ``pytest`` instead.  The module is loaded by path
and only read: nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("_e2e_spans_readonly", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (module_name, owner_name, attribute)
        for module_name, owner_name, attributes, _span, _hook in module.TARGETS
        for attribute in attributes
    ]


@pytest.mark.parametrize(
    "module_name, owner_name, attribute",
    _load_targets(),
    ids=lambda value: str(value),
)
def test_span_target_resolves(module_name, owner_name, attribute):
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(getattr(owner, attribute, None)), (
        f"benchmarks/e2e/spans.py patches {module_name}."
        f"{owner_name + '.' if owner_name else ''}{attribute}, which no longer "
        "exists; a traced run would report tracing.targets_missing > 0"
    )
