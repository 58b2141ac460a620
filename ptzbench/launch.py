"""Run one command; report its exit code, wall time and its own peak RSS.

Usage: ``python3 -S ptzbench/launch.py PROGRAM [ARG...]``

Prints one JSON line ``[exit_code, wall_s, peak_rss_mb]`` on standard
output. The command's standard output is sent to standard error.

``run.py`` starts every command through this small interpreter. A command
started straight from the benchmark process would report in ``ru_maxrss``
the benchmark's own peak RSS (vfork) or current RSS (fork) whenever that
is the larger. Here the command forks from a process of a few MB.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(2, 1)
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
