"""Host record and process-group inspection from ``/proc``."""

from __future__ import annotations

import os
import time
import zlib
from importlib import metadata

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def group_usage(pgid: int) -> dict[int, tuple[float, int]]:
    """``{pid: (CPU seconds, resident bytes)}`` of the live processes of
    process group ``pgid``. CPU time is the user + system time of each
    process itself, without its reaped children's, so none counts twice."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command start at stat field 3
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            cpu = (int(fields[11]) + int(fields[12])) / _CLK_TCK
            out[int(name)] = (cpu, int(fields[21]) * _PAGE)
    return out


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    return list(group_usage(pgid))


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def probe(seconds: float = 0.25) -> dict[str, float]:
    """Single-thread compute (zlib round trips) and memcpy rates, so that
    a slow or noisy host window shows in the record."""
    data = np.random.default_rng(0).integers(0, 256, 50_000,
                                             dtype=np.uint8).tobytes()
    t0, k = time.perf_counter(), 0
    while time.perf_counter() - t0 < seconds:
        zlib.decompress(zlib.compress(data, 6))
        k += 1
    compute = k / (time.perf_counter() - t0)
    a = np.zeros(16 * 2**20, dtype=np.uint8)
    b = np.empty_like(a)
    t0, k = time.perf_counter(), 0
    while time.perf_counter() - t0 < seconds:
        np.copyto(b, a)
        k += 1
    memcpy = k * a.nbytes / (time.perf_counter() - t0) / 1e9
    return {"compute_iters_per_s": compute, "memcpy_gb_per_s": memcpy}


def record() -> dict:
    return {
        "cores_present": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "ray": metadata.version("ray"),
        "pyarrow": metadata.version("pyarrow"),
        "probe": probe(),
    }
