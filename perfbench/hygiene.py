"""Process hygiene: every process the benchmark starts ends before it exits.

Spark in local mode starts a JVM (through ``spark-submit``) and the JVM
forks ``pyspark.daemon``, which forks the Python workers.  When the JVM
dies first, the daemon is re-parented and would drop out of our process
tree; marking this process a child subreaper keeps every such orphan a
descendant of ours, so the final ``/proc`` walk sees it.
"""
from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _proc_table() -> dict[int, tuple[int, str, str]]:
    """pid -> (ppid, state, command line) for every visible process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read().decode(errors="replace")
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except OSError:  # the process ended while we looked
            continue
        # the command name is in parentheses and may itself contain spaces
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), fields[0], cmd)
    return table


def descendants(root: int | None = None) -> dict[int, str]:
    """Live (non-zombie) descendants of ``root``: pid -> command line."""
    root = os.getpid() if root is None else root
    table = _proc_table()
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, list(children.get(root, []))
    while todo:
        pid = todo.pop()
        _, state, cmd = table[pid]
        if state != "Z":
            out[pid] = cmd
        todo.extend(children.get(pid, []))
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def end_descendants(timeout: float = 30.0) -> dict[int, str]:
    """Wait up to ``timeout`` s for every descendant to end, then kill the
    rest, say so on standard error and return them (empty: all ended)."""
    deadline = time.monotonic() + timeout
    while True:
        _reap()
        left = descendants()
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.2)
    if left:
        print("perfbench: processes outlived the benchmark (killed now):", file=sys.stderr)
        for pid, cmd in sorted(left.items()):
            print(f"  pid {pid}: {cmd[:200]}", file=sys.stderr)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.5)
        _reap()
    return left
