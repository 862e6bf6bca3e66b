"""Run one program; record its exit code, wall time and peak RSS.

    python3 -S perfbench/launch.py RESULT_FILE TIMEOUT_S PROGRAM [ARGS...]

Writes "exit_code wall_seconds maxrss_kib" to RESULT_FILE. The benchmark
starts every measured child through this small process because Linux
folds the memory image a process had before exec into its ru_maxrss:
spawned straight from the benchmark, which holds numpy and the traced
run's data, every child would report at least the benchmark's own peak.
The program inherits this process's stdin, stdout and stderr.
"""

import os
import signal
import sys
import time


def main() -> None:
    result_path, timeout_s, *argv = sys.argv[1:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(timeout_s))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    with open(result_path, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\n")


if __name__ == "__main__":
    main()
