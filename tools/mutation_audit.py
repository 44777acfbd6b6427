"""Mutation audit: how tightly do named tests pin a module's behaviour?

A stdlib-``ast`` sampler.  Each mutant changes one site of a target
module:

* a comparison operator flips to its negation (``<`` -> ``>=``,
  ``==`` -> ``!=``, ``in`` -> ``not in``, ``is`` -> ``is not``, ...);
* a boolean operator swaps (``and`` <-> ``or``);
* an ``if``/``elif`` test is negated (``if x:`` -> ``if not (x):``).

A site is drawn when a hash of the fixed seed and the site's stable
name (below) falls under a fixed share, so about that share of each
target's sites is drawn.  Each drawn mutant runs the target's named test files in a
scratch copy of the tree.  A mutant the tests do not fail on *survives*.

Usage (from the repository root)::

    python tools/mutation_audit.py            # run and print the survivors
    python tools/mutation_audit.py --check    # exit 1 on a survivor not listed
    python tools/mutation_audit.py --write    # rewrite the survivor list

``--check`` is what CI runs: the committed list
(``tools/mutation_survivors.txt``) may only shrink.  Close a survivor
with a test, or delete the code when the mutant is equivalent and the
branch has no job; then rerun with ``--write``.  A mutant is named
``path::function::change::source`` (no line number), so an edit
elsewhere in the file neither renames nor redraws it: an edit adds or
drops only its own sites, and a new survivor is one of those.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SURVIVORS = ROOT / "tools" / "mutation_survivors.txt"

SEED = 20021
#: Share of each target's sites drawn.
SHARE = 0.5
#: Seconds one mutant's test run may take; a hang counts as killed.
TIMEOUT = 300

#: Target module (under ``src/repro``) -> the test files its mutants run.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "core/antientropy.py": (
        "tests/test_core_antientropy.py",
        "tests/test_protocol_fidelity.py",
        "tests/test_runtime_trace_equality.py",
        "tests/test_core_acking.py",
    ),
    "core/host.py": (
        "tests/test_core_system.py",
        "tests/test_core_antientropy.py",
        "tests/test_core_footprint.py",
        "tests/test_core_fastupdate_memory.py",
        "tests/test_faults.py",
        "tests/test_runtime_nodehost.py",
        "tests/test_replica_creation.py",
        "tests/test_demand_views_adverts.py",
        "tests/test_link_model.py",
    ),
    "faults/process.py": (
        "tests/test_faults.py",
        "tests/test_faults_properties.py",
        "tests/test_link_model.py",
    ),
    "replica/log.py": (
        "tests/test_replica_log_store.py",
        "tests/test_replica_log_properties.py",
        "tests/test_replica_batch_path.py",
        "tests/test_replica_server.py",
        "tests/test_core_footprint.py",
    ),
    "experiments/sink.py": (
        "tests/test_experiments_campaign.py",
        "tests/test_telemetry_integration.py",
    ),
}

_NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SYMBOL = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">",
    ast.LtE: "<=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}


class _Site:
    """One mutable spot: the node, what changes, and where it sits."""

    __slots__ = ("node", "op_index", "change", "scope", "source")

    def __init__(self, node: ast.AST, op_index: int, change: str, scope: str):
        self.node = node
        self.op_index = op_index
        self.change = change
        self.scope = scope
        self.source = ast.unparse(node.test if isinstance(node, ast.If) else node)


class _Collector(ast.NodeVisitor):
    """Every mutation site of a module, in source order."""

    def __init__(self) -> None:
        self.sites: List[_Site] = []
        self._scope: List[str] = []

    def _scoped(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def _add(self, node: ast.AST, op_index: int, change: str) -> None:
        scope = ".".join(self._scope) or "<module>"
        self.sites.append(_Site(node, op_index, change, scope))

    def visit_If(self, node: ast.If) -> None:
        self._add(node, -1, "if->if not")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for index, op in enumerate(node.ops):
            flipped = _NEGATED[type(op)]
            self._add(node, index, f"{_SYMBOL[type(op)]}->{_SYMBOL[flipped]}")
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        other = ast.Or if isinstance(node.op, ast.And) else ast.And
        self._add(node, -1, f"{_SYMBOL[type(node.op)]}->{_SYMBOL[other]}")
        self.generic_visit(node)


def sites_of(source: str) -> Tuple[ast.Module, List[_Site]]:
    tree = ast.parse(source)
    collector = _Collector()
    collector.visit(tree)
    return tree, collector.sites


def mutant_ids(target: str, sites: Sequence[_Site]) -> List[str]:
    """Stable names: ``path::scope::change::source``, ``#n`` on repeats."""
    ids, seen = [], {}
    for site in sites:
        name = f"{target}::{site.scope}::{site.change}::{site.source}"
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name} #{seen[name]}")
    return ids


def mutate(site: _Site) -> None:
    node = site.node
    if isinstance(node, ast.If):
        node.test = ast.UnaryOp(op=ast.Not(), operand=node.test)
    elif isinstance(node, ast.Compare):
        node.ops[site.op_index] = _NEGATED[type(node.ops[site.op_index])]()
    else:
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()


def drawn(name: str) -> bool:
    """Whether the seed draws the mutant ``name``; no other site moves it."""
    digest = hashlib.sha256(f"{SEED}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") < SHARE * 2 ** 64


def run_tests(copy: Path, tests: Sequence[str]) -> Optional[bool]:
    """True when the tests pass in ``copy``, False when they fail, None on
    a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    process = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return process.wait(timeout=TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        # The whole group: tests may have started node processes.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None


def audit() -> List[str]:
    """Run every drawn mutant; returns the survivors' names."""
    survivors: List[str] = []
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, copy / part,
                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
            )
        for target, tests in TARGETS.items():
            path = copy / "src" / "repro" / target
            original = path.read_text()
            if not run_tests(copy, tests):
                raise SystemExit(f"{target}: the named tests fail unmutated")
            _, sites = sites_of(original)
            ids = mutant_ids(target, sites)
            chosen = [index for index, name in enumerate(ids) if drawn(name)]
            print(f"{target}: {len(sites)} sites, {len(chosen)} drawn", flush=True)
            for index in chosen:
                tree, fresh = sites_of(original)
                mutate(fresh[index])
                path.write_text(ast.unparse(ast.fix_missing_locations(tree)) + "\n")
                started = time.monotonic()
                passed = run_tests(copy, tests)
                verdict = "SURVIVED" if passed else ("hung" if passed is None else "killed")
                print(f"  {verdict:8} {time.monotonic() - started:5.1f}s  {ids[index]}", flush=True)
                if passed:
                    survivors.append(ids[index])
            path.write_text(original)
    return survivors


def read_list(path: Path) -> List[str]:
    if not path.exists():
        return []
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def write_list(path: Path, survivors: Sequence[str]) -> None:
    header = (
        "# Mutants drawn by tools/mutation_audit.py that their named tests\n"
        f"# do not kill (seed {SEED}, share {SHARE} of each target's sites).\n"
        "# CI fails on a survivor missing here, so this list only shrinks.\n"
    )
    path.write_text(header + "".join(f"{name}\n" for name in survivors))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 on a survivor missing from the list")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the survivor list")
    args = parser.parse_args(argv)
    survivors = audit()
    print(f"{len(survivors)} survivor(s)")
    if args.write:
        write_list(SURVIVORS, survivors)
        return 0
    if args.check:
        listed = set(read_list(SURVIVORS))
        new = [name for name in survivors if name not in listed]
        for name in sorted(listed - set(survivors)):
            print(f"listed but not surviving (drop it from the list): {name}")
        for name in new:
            print(f"NEW SURVIVOR: {name}")
        return 1 if new else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
