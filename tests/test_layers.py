"""The package layer table: every package imports only lower-ranked ones.

Each ``src/repro`` module is parsed with :mod:`ast`, so function-level
and ``TYPE_CHECKING`` imports count like any other; relative imports
are resolved against the module's own package.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

RANKS = {
    "errors": 0,
    "_exports": 0,
    **dict.fromkeys(("port", "topology", "telemetry"), 1),
    **dict.fromkeys(("sim", "demand"), 2),
    **dict.fromkeys(("replica", "faults", "viz"), 3),
    "core": 4,
    "placement": 5,
    **dict.fromkeys(("runtime", "experiments"), 6),
}
#: The top-level entry points, which may import anything.
UNRANKED = {"__init__", "cli", "__main__"}
#: The protocol proper: message-driven logic that runs in every world.
PROTOCOL = ("protocol", "antientropy", "fastupdate", "acking", "policies", "config", "variants")
#: Core modules every world runs besides the protocol: the replica host
#: and the metrics read off its topic bus and transport counters.
WORLD_FREE = ("host", "metrics")
#: The only core modules that build a simulator of their own.
SIM_BUILDERS = ("system", "strong")
MODULES = sorted(SRC.rglob("*.py"))


def _unit(path: Path) -> str:
    """The ranked package (or top-level module) ``path`` belongs to."""
    return path.relative_to(SRC).parts[0].split(".")[0]


def _imports(path: Path):
    """Every ``repro`` package ``path`` imports from, by table name."""
    package = ["repro", *path.relative_to(SRC).parts[:-1]]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            names = (
                [".".join(base + [node.module])]
                if node.module
                else [".".join(base + [alias.name]) for alias in node.names]
            )
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro":
                yield parts[1] if len(parts) > 1 else "__init__"


def test_every_package_is_ranked():
    assert {_unit(path) for path in MODULES} == set(RANKS) | UNRANKED


def test_packages_import_only_lower_ranks():
    violations = sorted(
        {
            f"{path.relative_to(SRC)} -> {target}"
            for path in MODULES
            if _unit(path) in RANKS
            for target in _imports(path)
            if target != _unit(path)
            and RANKS.get(target, len(RANKS)) >= RANKS[_unit(path)]
        }
    )
    assert not violations, "\n".join(violations)


def _world_leaks(names):
    """``core/<name>.py -> sim|runtime`` for every such import of ``names``."""
    return sorted(
        {
            f"core/{name}.py -> {target}"
            for name in names
            for target in _imports(SRC / "core" / f"{name}.py")
            if target in {"sim", "runtime"}
        }
    )


def test_protocol_modules_import_no_world():
    leaks = _world_leaks(PROTOCOL)
    assert not leaks, "\n".join(leaks)


def test_host_and_metrics_import_no_world():
    leaks = _world_leaks(WORLD_FREE)
    assert not leaks, "\n".join(leaks)


def test_only_the_simulator_builders_in_core_import_sim():
    importers = sorted(
        path.stem
        for path in (SRC / "core").glob("*.py")
        if "sim" in set(_imports(path))
    )
    assert set(importers) <= set(SIM_BUILDERS), importers
