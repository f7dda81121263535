"""Host-speed calibration kernel and the monitor process that samples it.

On a shared virtual machine the same code runs up to 20% slower or faster
for tens of seconds at a time. The benchmark divides every reported time by
the host's slowdown, estimated from the CPU time of a fixed pure-Python
kernel sampled in two places: in the benchmark process between ops (the
core the program's main thread runs on) and, every PERIOD seconds, in a
monitor process that runs beside the program for the whole pass (the speed
during long, multi-threaded ops). CPU time rather than wall time keeps the
monitor's samples free of waiting for a core the program itself is using.

Run as a script, this module is the monitor: it samples until a line
arrives on stdin, then prints the samples as a JSON list.
"""

from __future__ import annotations

import json
import select
import sys
import time

# Kernel CPU time on a quiet 2-core Xeon host; slowdown 1 means that speed.
REFERENCE_S = 0.011
# Monitor sampling period; one 11 ms sample every 0.25 s costs about 4% of a core.
PERIOD_S = 0.25


def kernel_seconds() -> float:
    """CPU seconds the calling thread spends in a fixed integer loop."""
    start = time.thread_time()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.thread_time() - start


def monitor(period: float) -> list[float]:
    samples = []
    while True:
        samples.append(kernel_seconds())
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready:
            return samples


if __name__ == "__main__":
    json.dump(monitor(PERIOD_S), sys.stdout)
