"""Public-API audit: ``__all__`` accuracy and import-time hygiene.

Two properties are enforced:

* every package (``repro`` and each subpackage ``pkgutil`` finds)
  declares an ``__all__`` that resolves each exported name, and nothing
  obviously public is missing;
* ``import repro`` exposes the documented surface *without* importing
  :mod:`asyncio` — the live runtime is pay-for-what-you-use.
"""

from __future__ import annotations

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DOCUMENTED_TOP_LEVEL = [
    "ReplicationSystem",
    "StrongConsistencySystem",
    "ProtocolConfig",
    "fast_consistency",
    "weak_consistency",
    # the runtime port and both execution worlds
    "Runtime",
    "SimRuntime",
    "AsyncioRuntime",
    "ReplicaCluster",
    "FaultSchedule",
    "ReproError",
]


PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]


def _module(name):
    __import__(name)
    return sys.modules[name]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_entries_resolve(module_name):
    module = _module(module_name)
    assert module.__all__, f"{module_name} must declare __all__"
    assert len(module.__all__) == len(set(module.__all__)), "duplicate exports"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (
            f"{module_name}.__all__ lists {name!r} but it does not resolve"
        )


def test_no_lazy_export_map_repeats_a_submodule():
    """A map is a dict literal: a repeated submodule key would silently
    drop the first entry's names from ``__all__``."""
    maps = [
        (init, node.args[1])
        for init in sorted(Path(repro.__file__).parent.rglob("__init__.py"))
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if getattr(getattr(node, "func", None), "attr", None) == "lazy_exports"
    ]
    assert len(maps) == len(PACKAGES)
    for init, mapping in maps:
        assert isinstance(mapping, ast.Dict), f"{init}: the map is not a dict literal"
        keys = [ast.literal_eval(key) for key in mapping.keys]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        assert not repeated, f"{init}: submodule repeated in lazy_exports: {repeated}"


@pytest.mark.parametrize("module_name", PACKAGES)
def test_public_names_are_exported(module_name):
    """Anything importable without an underscore prefix that is *defined*
    by the package's own __init__ imports should be in __all__."""
    module = _module(module_name)
    exported = set(module.__all__)
    public = {
        name
        for name in dir(module)
        if not name.startswith("_")
        and name != "annotations"  # the __future__ import leaks this name
        and not isinstance(getattr(module, name), type(sys))  # skip submodules
    }
    missing = public - exported
    assert not missing, f"{module_name}: public names missing from __all__: {sorted(missing)}"


def test_documented_surface_present():
    import repro

    for name in DOCUMENTED_TOP_LEVEL:
        assert name in repro.__all__, name
        assert getattr(repro, name) is not None


def test_import_repro_does_not_import_asyncio():
    """The live runtime must stay behind the lazy boundary."""
    code = (
        "import sys\n"
        "import repro\n"
        "assert 'asyncio' not in sys.modules, 'asyncio imported eagerly'\n"
        "assert 'repro.runtime.live' not in sys.modules\n"
        "assert 'repro.runtime.cluster' not in sys.modules\n"
        "assert 'repro.sim.engine' not in sys.modules\n"
        "assert 'repro.core.system' not in sys.modules\n"
        "repro.ReplicaCluster  # touching the name triggers the import\n"
        "assert 'repro.runtime.cluster' in sys.modules\n"
        "assert 'asyncio' in sys.modules\n"
        "print('lazy-ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "lazy-ok" in proc.stdout


def test_dir_includes_lazy_names():
    import repro
    import repro.runtime as runtime

    assert "ReplicaCluster" in dir(repro)
    assert "AsyncioRuntime" in dir(runtime)
    with pytest.raises(AttributeError):
        repro.does_not_exist
    with pytest.raises(AttributeError):
        runtime.does_not_exist
