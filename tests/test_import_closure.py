"""Import closures: each entry point loads only the modules it runs.

Every package exports its names lazily (:mod:`repro._exports`), so what
an entry point loads is what its own modules import.  Each check runs in
a fresh interpreter, because the test process has long since loaded
everything; it pins the modules an entry point must *not* load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: entry point -> module prefixes it must not load (a prefix ending in
#: "." matches a package's submodules and the package itself).
CLOSURES = {
    "repro": ("asyncio", "repro.sim.engine", "repro.core.system"),
    "repro.core.system": (
        "asyncio",
        "repro.runtime.",
        "repro.experiments.",
        "repro.placement.",
        "repro.faults.",
        "repro.core.strong",
        "repro.core.islands",
        "repro.topology.brite",
    ),
    "repro.runtime.nodeproc": (
        "repro.sim.",
        "repro.experiments.",
        "repro.faults.",
        "repro.core.system",
        "repro.topology.brite",
    ),
}


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(module: str):
    code = f"import json, sys\nimport {module}\nprint(json.dumps(sorted(sys.modules)))"
    return json.loads(_run(code))


def _matches(name: str, prefix: str) -> bool:
    if prefix.endswith("."):
        return name == prefix[:-1] or name.startswith(prefix)
    return name == prefix


@pytest.mark.parametrize("entry", sorted(CLOSURES))
def test_entry_point_loads_none_of_its_forbidden_modules(entry):
    loaded = _loaded(entry)
    assert entry in loaded
    leaks = sorted(
        name for name in loaded for prefix in CLOSURES[entry] if _matches(name, prefix)
    )
    assert not leaks, f"import {entry} loaded {leaks}"


def test_the_hierarchical_export_survives_its_submodule_import():
    # The export shares its name with its submodule; the import system
    # binds each loaded submodule on its package, which must not replace
    # the function.
    out = _run(
        "import repro.topology.hierarchical\n"
        "import repro.topology as topology\n"
        "from repro.topology.hierarchical import as_of\n"
        "print(callable(topology.hierarchical), type(topology.hierarchical).__name__)\n"
    )
    assert out.split() == ["True", "function"]
