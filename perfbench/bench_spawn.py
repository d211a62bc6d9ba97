"""Launcher that runs one command at a time and reports its own rusage.

On Linux a child's ru_maxrss starts from the resident size of the process
that forked it, so commands are not started from the benchmark process,
whose checks hold hundreds of MB.  This small process, started first, runs
each command and reads the child's own rusage with os.wait4.

Protocol: one JSON request per stdin line,
{"cmd": [...], "stdout": path, "stderr": path, "env": {...}, "cwd": path,
"timeout": seconds}; one JSON reply per stdout line, {"wall_s", "cpu_s",
"maxrss_kb", "exit_code"}.  EOF on stdin ends the launcher.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(cmd, stdout_path, stderr_path, env, cwd, timeout) -> dict:
    """Run cmd to completion; a watchdog kills it after timeout seconds."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "exit_code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["cmd"], req["stdout"], req["stderr"], req["env"],
                      req["cwd"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
