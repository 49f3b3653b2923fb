"""Peak proportional set size of a process tree, read-only from ``/proc``.

    python3 perfbench/pss.py PID [INTERVAL]

Prints ``ready`` after the first sample, samples ``PID`` and its live
descendants (itself excluded) every ``INTERVAL`` seconds until a line or
end-of-file arrives on standard input, then prints the peak summed PSS in
KiB.
"""

from __future__ import annotations

import os
import select
import sys
from pathlib import Path
from typing import List


def descendant_pids(root: int) -> List[int]:
    """Every live descendant of ``root``, read from ``/proc/*/task/*/children``."""
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return found


def pss_kib(pid: int) -> int:
    """Proportional set size of one process, from ``smaps_rollup``."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_kib(root: int) -> int:
    me = os.getpid()
    return sum(pss_kib(pid) for pid in [root, *descendant_pids(root)] if pid != me)


def main(argv: List[str]) -> int:
    root = int(argv[0])
    interval = float(argv[1]) if len(argv) > 1 else 0.1
    peak = tree_pss_kib(root)
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], interval)[0]:
        peak = max(peak, tree_pss_kib(root))
    peak = max(peak, tree_pss_kib(root))
    print(peak, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
