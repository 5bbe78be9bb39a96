#!/usr/bin/env python3
"""Repo benchmark: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads, metrics and checks are listed
in perfbench/README.md and BENCHMARK.json. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
is the run's environment record. With --trace 0 the metrics are the
end-to-end set, with --trace 1 the per-layer set. Build output and
progress go to stderr.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
REFS = os.path.join(BENCH, "refs")

# w12_cluster: replicas and eval threads per replica (total = nproc here).
CLUSTER_REPLICAS = 2
CLUSTER_THREADS = 2

SETUP_REPS = 15         # harness start-ups per run (median reported)
SERVER_SETUP_REPS = 5   # replica-pair start-ups per run
PROCESS_WAIT_S = 30.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------- build ----

def build():
    """Configures and builds perfbench/CMakeLists.txt; returns the build dir."""
    for need in ("src/dse/evaluator.cpp", "tools/serve_tool.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("no %s under %s: run from the root of a full checkout" % (need, ROOT))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir


# ------------------------------------------------------------- helpers ----

def harness(ctx, args, cwd=None):
    proc = subprocess.run([ctx.harness] + [str(a) for a in args],
                          stdout=subprocess.PIPE, cwd=cwd, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench_harness %s exited %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def stop_process(proc):
    """Kills `proc` if still running and reaps it; returns its rusage."""
    if proc.returncode is None:
        try:
            proc.kill()
        except ProcessLookupError:
            pass
    return reap(proc, PROCESS_WAIT_S)


def reap(proc, timeout_s):
    """Waits for `proc` (killing it after `timeout_s`); returns its rusage."""
    if proc.returncode is not None:
        return None
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(0.01)


def cpu_of(usage):
    return usage.ru_utime + usage.ru_stime if usage is not None else 0.0


def peak_rss_mb(pid):
    """Peak RSS (VmHWM) of a running child. Its rusage would also carry the
    peak of the image before exec, i.e. of this Python process."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Servers:
    """Every server process a run starts, so all of them get stopped."""

    def __init__(self):
        self.procs = []

    def spawn(self, argv, log_path, cwd):
        with open(log_path, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=cwd)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            stop_process(proc)


def wait_for(predicate, proc, what, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while True:
        result = predicate()
        if result:
            return result
        if proc.poll() is not None:
            raise BenchError("%s exited with %s before it was ready" % (what, proc.returncode))
        if time.monotonic() > deadline:
            raise BenchError("%s not ready after %.0f s" % (what, timeout_s))
        time.sleep(0.0005)


def unix_ready(path):
    if not os.path.exists(path):
        return False
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(path)
        return True
    except OSError:
        return False
    finally:
        s.close()


def time_setups(ctx, width):
    """Starts `perfbench_harness setup` SETUP_REPS times. Returns each
    start-up's time from spawn to its ready line, and the calibration time
    each reports."""
    walls, calibrations = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([ctx.harness, "setup", "--width", str(width)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.close()
            if proc.wait(timeout=PROCESS_WAIT_S) != 0 or not line:
                raise BenchError("perfbench_harness setup exited %s" % proc.returncode)
        finally:
            stop_process(proc)
        calibrations.append(json.loads(line)["calibrate_s"])
    return walls, calibrations


def unix_request(path, line, timeout_s=30.0):
    """Sends one request line over a Unix socket; returns the reply text."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout_s)
    try:
        s.connect(path)
        s.sendall(line.encode() + b"\n")
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
        return b"".join(chunks).decode()
    finally:
        s.close()


# ------------------------------------------------------ sweep workloads ----

def record_sweeps(ctx, r, setups, calibrations, extra_cpu=0.0, extra_rss=0.0, extra_setup=0.0):
    """Copies one harness result into the context: checks, environment and
    either the end-to-end or the per-layer metrics."""
    ctx.env.update(r["env"])
    ctx.attempted, ctx.failed, ctx.failures = r["attempted"], r["failed"], r["failures"]
    if ctx.trace:
        ctx.layers.update(r["layers"])
        ctx.layers["error.calibrate_s"] = statistics.median(calibrations)
        return
    ctx.env["sweeps"] = len(r["sweep_s"])
    ctx.metrics.update({
        "setup_s": (statistics.median(setups) + extra_setup, "s"),
        "sweep_s": (statistics.median(r["sweep_s"]), "s"),
        "cpu_s": (statistics.median(r["cpu_s"]) + extra_cpu, "s"),
        "rss_mb": (r["rss_mb"] + extra_rss, "MB"),
    })


def run_sweep_workload(ctx, width):
    setups, calibrations = time_setups(ctx, width)
    r = harness(ctx, ["sweep", "--width", width, "--seconds", ctx.seconds, "--trace", ctx.trace,
                      "--ref", os.path.join(REFS, "w%d.ref" % width), "--tmp", ctx.tmp])
    record_sweeps(ctx, r, setups, calibrations)


def start_replicas(ctx, servers):
    """Starts the replica pair; returns (procs, seconds until both listen)."""
    t0 = time.perf_counter()
    procs = []
    for i in range(CLUSTER_REPLICAS):
        sock = "w%d.sock" % i
        if os.path.exists(os.path.join(ctx.tmp, sock)):
            os.unlink(os.path.join(ctx.tmp, sock))
        procs.append(servers.spawn([ctx.serve_tool, "--listen", sock, "--threads", str(CLUSTER_THREADS)],
                                   os.path.join(ctx.tmp, "w%d.log" % i), ctx.tmp))
    for i, proc in enumerate(procs):
        path = os.path.join(ctx.tmp, "w%d.sock" % i)
        wait_for(lambda: unix_ready(path), proc, "replica %d" % i)
    return procs, time.perf_counter() - t0


def replica_request(ctx, i, line):
    """Sends one request line to replica `i`; returns its parsed events."""
    reply = unix_request(os.path.join(ctx.tmp, "w%d.sock" % i), line)
    return [json.loads(text) for text in reply.splitlines() if text]


def stop_replicas(ctx, procs):
    usages = []
    for i, proc in enumerate(procs):
        try:
            replica_request(ctx, i, '{"id": "bye", "type": "shutdown"}')
        except (OSError, ValueError):
            pass
        usages.append(reap(proc, PROCESS_WAIT_S))
    return usages


def replica_outcomes(ctx):
    """Failed and overloaded request counts summed over the replicas' stats."""
    failed = overloaded = 0
    for i in range(CLUSTER_REPLICAS):
        for event in replica_request(ctx, i, '{"id": "stats", "type": "stats"}'):
            if event.get("event") == "stats":
                failed += event["requests"]["failed"]
                overloaded += event["requests"]["overloaded"]
    return failed, overloaded


def run_cluster_workload(ctx, servers):
    setups, calibrations = time_setups(ctx, 12)
    replica_setups = []
    for _ in range(SERVER_SETUP_REPS - 1):
        procs, took = start_replicas(ctx, servers)
        replica_setups.append(took)
        stop_replicas(ctx, procs)
    procs, took = start_replicas(ctx, servers)
    replica_setups.append(took)
    workers = ",".join("unix:w%d.sock" % i for i in range(CLUSTER_REPLICAS))
    r = harness(ctx, ["cluster", "--workers", workers, "--seconds", ctx.seconds,
                      "--trace", ctx.trace, "--ref", os.path.join(REFS, "w12.ref"),
                      "--tmp", ctx.tmp], cwd=ctx.tmp)
    replica_rss = sum(peak_rss_mb(proc.pid) for proc in procs)
    failed, overloaded = replica_outcomes(ctx)
    usages = stop_replicas(ctx, procs)
    ctx.env["local_shards"] = r["local_shards"]
    if r["local_shards"] != 0:
        r["env"]["flagged"] = True
    record_sweeps(ctx, r, setups, calibrations,
                  extra_cpu=sum(cpu_of(u) for u in usages) / len(r["sweep_s"]),
                  extra_rss=replica_rss, extra_setup=statistics.median(replica_setups))
    if ctx.trace:
        ctx.layers["serve.failed"] = failed
        ctx.layers["serve.overloaded"] = overloaded


# ---------------------------------------------------------------- main ----

class Context:
    def __init__(self, args, build_dir):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.harness = os.path.join(build_dir, "perfbench_harness")
        self.serve_tool = os.path.join(build_dir, "serve_tool")
        self.tmp = os.path.join(build_dir, "run-%d" % os.getpid())
        self.env = {"workload": args.workload, "seed": args.seed}
        self.metrics = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
        build_dir = build()
    except (OSError, ValueError, BenchError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 2

    ctx = Context(args, build_dir)
    os.makedirs(ctx.tmp, exist_ok=True)
    servers = Servers()
    try:
        if args.workload == "w12_sweep":
            run_sweep_workload(ctx, 12)
        elif args.workload == "w16_sweep":
            run_sweep_workload(ctx, 16)
        elif args.workload == "w12_cluster":
            run_cluster_workload(ctx, servers)
    except (OSError, ValueError, KeyError, BenchError, subprocess.SubprocessError) as e:
        log("perfbench: %s failed: %s" % (args.workload, e))
        return 1
    finally:
        servers.stop_all()
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
        values = {m["name"]: (float(ctx.layers.get(m["name"], 0.0)), m["unit"]) for m in wanted}
    else:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in ctx.metrics]
        if missing:
            log("perfbench: %s did not measure %s" % (args.workload, ", ".join(missing)))
            return 1
        values = {name: (float(v), unit) for name, (v, unit) in ctx.metrics.items()}
    for why in ctx.failures:
        log("perfbench: check failed: %s" % why)
    print(json.dumps({"env": ctx.env}))
    print(json.dumps({
        "correct": ctx.failed == 0 and ctx.attempted > 0,
        "attempted": int(ctx.attempted),
        "failed": int(ctx.failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
