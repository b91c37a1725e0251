"""Validation benchmark of jsschema_ray: one command, three workloads.

    python3 perfbench/run.py --workload image_full|tabular_dirty|exchange_mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It synthesizes the workload's inputs
from ``--seed`` (cached in ``.perfbench/cache``), starts one Ray session
with 4 logical CPUs in its own process group, sets up, runs one untimed warm
pass, then runs the workload as a closed loop (one client, one operation at
a time) for ``--seconds``. Every operation is checked against ground truth
outside its timed span. The session is torn down on every exit path:
``ray.shutdown()`` in the session, then the whole process group is killed
and checked empty.

Workloads:
  image_full     ValidationPipeline(IMAGE_SCHEMA) over sharded PNG rows with
                 distinct payloads; every x-* constraint runs (decode layer)
  tabular_dirty  the same pipeline on a metadata-only table with 25% bad
                 rows and no x-* keyword (row-local layer only)
  exchange_mix   13 oracled queries() whose time goes to keyed shuffles
                 (exchange layer); runnable, but not listed in BENCHMARK.json
                 while the Ray crash below makes some of its runs fail

Output: every figure of the run as ``name = value unit`` (end-to-end with
``--trace 0``, per-layer with ``--trace 1``), then the full record of the
run as one JSON line (host, CPU steal, set-up reps, raw samples, verdict
mismatches, failures), then the result line: one JSON object with
``correct``, ``attempted``, ``failed`` and the ``metrics`` that
BENCHMARK.json names. An operation that errors or exceeds OP_TIMEOUT_S is
failed and ends the run.

The throughput that BENCHMARK.json bounds is ``rows_per_cpu_s``: rows
per CPU-second of the whole session, with each pass's CPU time scaled by
``1 - steal`` (the share of the host's CPU time the hypervisor gave to other
guests during that pass). ``setup_s`` is counted the same way: the CPU
seconds of starting Ray plus the median of SETUP_REPS program set-ups
(schema compile, drift profile), net of steal. Wall-clock ``rows_per_s``,
``pass_s`` and ``setup_wall_s`` are printed too; on a shared host they
follow the neighbours' load more than the program, so they are not
bounded.

Known program defects this benchmark does not hide. The queries probe a
lazy Dataset's schema with ``limit(1)``; Ray Data then cancels the read
tasks still running, and the session process sometimes aborts inside Ray
(``task_manager.cc:930 ... not pending`` or ``reference_count.cc:581``),
which ends an exchange_mix run with a failed operation. With a 1-CPU Ray
session ``tpch_q18`` (a two-input union -> sort -> join plan) and
``bloom_semi_orders`` (``concurrency=(1, 8)`` in
``jsschema_ray/stages/join.py:bloom_semi_join``) never finish. The session
uses 4 logical CPUs, as tests/conftest.py does; on 1 CPU they would time out
and count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, ROOT]

import host  # noqa: E402
import inputs  # noqa: E402

#: an operation that takes longer counts as failed and ends the run
OP_TIMEOUT_S = 60.0
#: the whole session must end by then, so that the command ends in 180 s
SESSION_BUDGET_S = 150.0
#: AF_UNIX socket paths are limited to 107 bytes; Ray appends about 62
RAY_TEMP_MAX = 44
STOP_SIGNALS = {signal.SIGTERM, signal.SIGINT}

#: unit of a figure, from its name, for figures outside BENCHMARK.json
_UNITS = (("_per_s", "1/s"), ("_per_cpu_s", "1/s"), ("_ns_per_row", "ns"),
          ("_us", "us"), ("_ms", "ms"), ("_mb", "MB"), ("_bytes", "B"),
          ("_frac", "1"), ("_s", "s"))


def unit_of(name: str) -> str:
    return next((u for sfx, u in _UNITS if name.endswith(sfx)), "count")


class Interrupted(Exception):
    pass


class GroupSampler(threading.Thread):
    """Samples every process of one process group from ``/proc`` while a
    set-up step or a measured operation runs. Keeps the peak resident
    memory of the group and, per step or operation, the CPU time its
    processes used: each process's last sampled CPU time minus its time
    at ``begin()``. A process that exits meanwhile loses at most one
    interval."""

    def __init__(self, pgid: int, interval: float = 0.1):
        super().__init__(daemon=True)
        self.pgid = pgid
        self.interval = interval
        self.lock = threading.Lock()
        self.stopped = threading.Event()
        self.active = False
        self.peak_bytes = 0
        self._ticks = (0, 0)
        self._base: dict[int, float] = {}
        self._last: dict[int, float] = {}

    def _sample(self) -> None:
        usage = host.group_usage(self.pgid)
        self._last.update((pid, cpu) for pid, (cpu, _) in usage.items())
        self.peak_bytes = max(self.peak_bytes,
                              sum(rss for _, rss in usage.values()))

    def begin(self) -> None:
        with self.lock:
            self._ticks = host.cpu_ticks()
            self._base = {pid: cpu for pid, (cpu, _)
                          in host.group_usage(self.pgid).items()}
            self._last = dict(self._base)
            self.active = True

    def end(self) -> tuple[float, float]:
        """Stop sampling. Returns the CPU seconds the group used since
        ``begin()`` and the share of the host's CPU time that the
        hypervisor stole meanwhile."""
        with self.lock:
            self._sample()
            self.active = False
            (s0, t0), (s1, t1) = self._ticks, host.cpu_ticks()
            return (sum(cpu - self._base.get(pid, 0.0)
                        for pid, cpu in self._last.items()),
                    (s1 - s0) / max(1, t1 - t0))

    def run(self) -> None:
        while not self.stopped.wait(self.interval):
            with self.lock:
                if self.active:
                    self._sample()


def ray_temp_dir() -> tuple[str, bool]:
    """A Ray temp dir inside the checkout when its socket paths fit, else
    a private directory under the system temp dir (removed afterwards)."""
    inside = os.path.join(ROOT, ".pbr")
    if len(inside) <= RAY_TEMP_MAX:
        return inside, False
    return tempfile.mkdtemp(prefix="pbr"), True


def teardown(proc: subprocess.Popen, pgid: int, exiting: bool) -> list[int]:
    """Let the session shut Ray down, then kill its whole process group
    and wait until no process of it is left. ``exiting`` means the session
    already closed its channel and is on its way out. Returns survivors."""
    for sig in ((None, signal.SIGTERM) if exiting else (signal.SIGTERM,)):
        if sig is not None and proc.poll() is None:
            proc.send_signal(sig)
        try:
            proc.wait(timeout=10)
            break
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while (alive := host.group_pids(pgid)) and time.monotonic() < deadline:
        time.sleep(0.1)
    return alive


def run_session(args, data: str, run_dir: str, ray_tmp: str,
                record: dict[str, Any]) -> Optional[dict[str, Any]]:
    """Start the session process and follow its events. Fills ``record``
    with operations attempted and failed; returns the session's result."""
    r, w = os.pipe()
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", data, "--run-dir", run_dir, "--ray-temp", ray_tmp,
           "--events-fd", str(w), "--parent", str(os.getpid())]
    # no implicit ray.init() after the session's shutdown: a late call from
    # a Ray Data thread would otherwise start a second cluster under /tmp
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_ENABLE_AUTO_CONNECT="0")
    with open(os.path.join(run_dir, "session.log"), "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, pass_fds=(w,),
                                start_new_session=True)
    os.close(w)
    pgid = proc.pid  # a new session's leader leads its process group
    group = GroupSampler(pgid)
    group.start()
    result = None
    in_flight: Optional[str] = None
    phase = "warm"
    stream = os.fdopen(r, "r")
    session_end = time.monotonic() + SESSION_BUDGET_S
    op_end = session_end
    buf = ""
    exiting = False
    ticks: dict[str, tuple[int, int]] = {}
    try:
        while True:
            deadline = min(session_end, op_end)
            ready, _, _ = select.select([stream], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                what = in_flight or "session"
                record["failures"].append(f"{what}: timed out")
                record["failed"] += 1 if in_flight else 0
                break
            chunk = os.read(stream.fileno(), 65536).decode()
            if not chunk:
                exiting = True
                if in_flight:
                    record["failures"].append(
                        f"{in_flight}: session exited mid-operation")
                    record["failed"] += 1
                break
            buf += chunk
            *lines, buf = buf.split("\n")
            for line in lines:
                ev = json.loads(line)
                kind = ev.pop("ev")
                if kind == "op_start":
                    in_flight = ev["op"]
                    phase = ev["phase"]
                    record["attempted"] += 1
                    op_end = time.monotonic() + OP_TIMEOUT_S
                    if phase != "warm":
                        group.begin()
                        ticks.setdefault("first", host.cpu_ticks())
                elif kind == "op_end":
                    in_flight = None
                    op_end = session_end
                    if phase != "warm":
                        record["op_cpu_s"].setdefault(phase, {}).setdefault(
                            ev["op"], []).append(group.end())
                        ticks["last"] = host.cpu_ticks()
                elif kind == "setup_start":
                    group.begin()
                elif kind == "setup_end":
                    record["setup_usage"].append(group.end())
                elif kind == "ray_started":
                    record["ray_logical_cpus"] = ev["logical_cpus"]
                    record["ray_session_dir"] = ev["session_dir"]
                elif kind == "result":
                    result = ev
                elif kind == "error":
                    record["failures"].append(ev["error"])
                    if in_flight:
                        record["failed"] += 1
                        in_flight = None
    finally:
        # a second signal must not cut the teardown short; it is delivered
        # once the group is gone
        signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
        group.stopped.set()
        survivors = teardown(proc, pgid, exiting)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)
        stream.close()
        record["session_exit"] = proc.returncode
        record["peak_rss_mb"] = group.peak_bytes / 2**20
        if "first" in ticks and "last" in ticks:
            # share of CPU time the hypervisor gave to other guests while
            # the measured operations ran
            (s0, t0), (s1, t1) = ticks["first"], ticks["last"]
            record["steal_frac"] = (s1 - s0) / max(1, t1 - t0)
        if survivors:
            record["failures"].append(
                f"processes left in the session group: {survivors}")
    return result


def net_cpu(usage: tuple[float, float]) -> float:
    """CPU seconds net of steal, from a ``(CPU seconds, steal share)``
    sample of ``GroupSampler.end()``."""
    cpu, steal = usage
    return cpu * (1.0 - steal)


def figures(args, result: dict[str, Any], record: dict[str, Any]) -> dict:
    """Every figure of the run by name: the end-to-end ones with
    ``--trace 0``, the per-layer ones with ``--trace 1``."""
    un = result["untraced"]
    if not args.trace:
        # CPU seconds of the whole session (driver and every Ray process),
        # each sample scaled by 1 - steal: CPU time grows with the share of
        # the host that the hypervisor gives to other guests, and that
        # share changes from minute to minute
        cpu = record["op_cpu_s"]["untraced"]
        pass_cpu_s = sum(statistics.median(net_cpu(u) for u in v)
                         for v in cpu.values())
        ray_start, *reps = record["setup_usage"]
        return {"rows_per_cpu_s": un["rows_per_pass"] / pass_cpu_s,
                "pass_cpu_s": pass_cpu_s,
                "rows_per_s": un["rows_per_s"], "pass_s": un["pass_s"],
                "pass_q1_s": un.get("q1", un["pass_s"]),
                "pass_q3_s": un.get("q3", un["pass_s"]),
                "pass_samples": un["samples"],
                "setup_s": net_cpu(ray_start) + statistics.median(
                    net_cpu(u) for u in reps),
                "setup_wall_s": result["setup_wall_s"],
                "peak_rss_mb": record["peak_rss_mb"],
                "verdict_mismatches": record["verdict_mismatches"],
                "failed_ops_frac": record["failed_ops_frac"]}
    tr = result["traced"]
    return {**tr["probes"], **tr["layers"],
            "trace.overhead_s": tr["pass_s"] - un["pass_s"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(inputs.SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (os.path.isdir(os.path.join(ROOT, "jsschema_ray"))
            and os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))):
        print(f"no jsschema_ray checkout at {ROOT}", file=sys.stderr)
        return 2

    def on_signal(signum, _frame):
        raise Interrupted(signum)

    for sig in STOP_SIGNALS:
        signal.signal(sig, on_signal)

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, "runs", run_id)
    os.makedirs(run_dir, exist_ok=True)
    record: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "attempted": 0, "failed": 0, "failures": [],
                              "op_cpu_s": {}, "setup_usage": [],
                              "host_before": host.record()}
    ray_tmp, private_tmp = ray_temp_dir()
    result = None
    try:
        t0 = time.perf_counter()
        data, hit = inputs.ensure(os.path.join(WORK, "cache"), args.workload,
                                  args.seed)
        record.update(inputs_dir=data, cache_hit=hit,
                      synth_s=time.perf_counter() - t0)
        result = run_session(args, data, run_dir, ray_tmp, record)
    except Interrupted as e:
        print(f"interrupted by signal {e.args[0]}", file=sys.stderr)
        return 128 + e.args[0]
    finally:
        record["host_after"] = host.record()
        if private_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
    ok = result is not None and not record["failures"]
    if ok:
        shutil.rmtree(os.path.join(run_dir, "out"), ignore_errors=True)
        shutil.rmtree(record.get("ray_session_dir") or "", ignore_errors=True)
    record["result"] = result
    record["verdict_mismatches"] = len(result["mismatches"]) if result else 0
    record["failed_ops_frac"] = record["failed"] / max(1, record["attempted"])
    with open(os.path.join(run_dir, "record.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    metrics = {}
    if ok:
        values = figures(args, result, record)
        for name, value in values.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]} for m in spec}
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": ok and record["verdict_mismatches"] == 0,
                      "attempted": max(1, record["attempted"]),
                      "failed": record["failed"] or (0 if ok else 1),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
