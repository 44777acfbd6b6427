"""TCP node processes fork from one forkserver that preloaded this repro.

The check runs in a fresh interpreter laid out the way the benchmark's
``run.py`` is: ``PYTHONPATH`` unset, ``src`` put on ``sys.path`` by the
script itself.  ``forkserver.main`` does not apply the parent's
``sys.path`` before preloading and swallows the ``ImportError``, so such
a parent gets no preload unless the cluster pins the import root when it
starts the forkserver.  The script boots a 2-node TCP cluster, then
forks a probe through the same forkserver: whatever of ``repro`` the
probe finds loaded before it imports anything came from the preload,
exactly as for the nodes.  The script runs under this interpreter's
dev-mode and warning flags, which the forkserver and its nodes inherit,
so a node that leaves a socket or task behind fails the test here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = '''
import json
import multiprocessing
import sys

sys.path.insert(0, {src!r})


def probe(queue):
    # Runs in a fork of the forkserver and imports nothing first.
    module = sys.modules.get("repro")
    queue.put({{
        "preloaded": "repro.runtime.nodeproc" in sys.modules,
        "repro_file": getattr(module, "__file__", None),
    }})


def main():
    import repro
    from repro.runtime import ReplicaCluster
    from repro.topology.simple import line

    with ReplicaCluster(
        line(2), seed=3, time_scale=0.01, transport="tcp", standby_hubs=0
    ) as cluster:
        update = cluster.put("k", "v", node=0)
        replicated = cluster.wait_replicated(update.uid, timeout=20.0)
        processes = list(cluster._processes.values())
        kinds = [type(process).__name__ for process in processes]
        with open(f"/proc/{{processes[0].pid}}/stat", "rb") as stat:
            server_pid = int(stat.read().rsplit(b")", 1)[1].split()[1])
    context = multiprocessing.get_context("forkserver")
    queue = context.SimpleQueue()
    process = context.Process(target=probe, args=(queue,))
    process.start()
    seen = queue.get()
    process.join()
    print(json.dumps(dict(
        seen, kinds=kinds, replicated=replicated, server_pid=server_pid,
        parent_pid=multiprocessing.current_process().pid,
        parent_repro=repro.__file__,
    )))


if __name__ == "__main__":
    main()
'''


def _exited(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            return stat.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except FileNotFoundError:
        return True


def test_nodes_fork_from_a_forkserver_that_preloaded_this_repro(tmp_path):
    script = tmp_path / "boot_two_nodes.py"
    script.write_text(SCRIPT.format(src=SRC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    flags += [f"-W{option}" for option in sys.warnoptions]
    proc = subprocess.run(
        [sys.executable, *flags, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    for leak in ("ResourceWarning", "Task was destroyed", "Exception ignored"):
        assert leak not in proc.stderr, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["replicated"]
    assert seen["kinds"] == ["ForkServerProcess", "ForkServerProcess"]
    assert seen["server_pid"] != seen["parent_pid"]
    assert seen["preloaded"], "the forkserver did not preload the node program"
    assert seen["repro_file"] == seen["parent_repro"]
    # The forkserver exits with the parent that started it.
    deadline = time.monotonic() + 10.0
    while not _exited(seen["server_pid"]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _exited(seen["server_pid"])
