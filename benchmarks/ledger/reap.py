"""No process outlives the run.

``multiprocessing`` starts a resource tracker beside the pool and the
shared-memory exports; it ends only once the process that started it has
closed its pipe, that is a few milliseconds *after* that process exits.
A compile, a worker or a daemon orphaned by an exception would stay the
same way.  :func:`supervise` therefore forks before anything else is
started: the child goes on to do the run, the parent adopts every
process below it (``PR_SET_CHILD_SUBREAPER``) and exits, with the
child's code, only when none is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import Dict, List

PR_SET_CHILD_SUBREAPER = 36

#: After the run itself has ended, how long the processes below it get to
#: end on their own before they are killed.
GRACE_S = 10.0


def become_subreaper() -> bool:
    """Orphans below this process are re-parented to it, not to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def descendants(root: int) -> List[int]:
    """Every live process below ``root``, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid ...; comm may hold spaces
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, stack = [], [root]
    while stack:
        for pid in children.get(stack.pop(), []):
            found.append(pid)
            stack.append(pid)
    return found


def kill_descendants() -> List[int]:
    pids = descendants(os.getpid())
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return pids


def wait_for_all(grace_s: float) -> List[int]:
    """Reap children, adopted ones too, until none is left; whatever is
    still there after ``grace_s`` is killed.  Returns the pids killed."""
    killed: List[int] = []
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child, so no descendant: orphans come to us
        if pid == 0:
            if time.monotonic() > deadline:
                killed += [p for p in kill_descendants() if p not in killed]
            time.sleep(0.005)


def supervise() -> None:
    """Returns in a forked child, which does the run.  The parent never
    returns: it exits with the child's code once every process below it
    has ended, and with 1 if one had to be killed."""
    become_subreaper()
    sys.stdout.flush()
    sys.stderr.flush()
    child = os.fork()
    if child == 0:
        return

    def stop(signum, frame):
        # Told to stop (a time-out above us): take everything along.
        kill_descendants()
        wait_for_all(0.0)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    _, status = os.waitpid(child, 0)
    code = os.waitstatus_to_exitcode(status)
    killed = wait_for_all(GRACE_S)
    if killed:
        print(f"error: killed {len(killed)} process(es) that outlived the "
              f"run: {killed}", file=sys.stderr, flush=True)
    os._exit((128 - code if code < 0 else code) or (1 if killed else 0))
