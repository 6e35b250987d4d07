#!/usr/bin/env python3
"""Repository benchmark: the contest_bench suite cold and warm, and the
contest_serve daemon under a hot and a mixed request load.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

It builds the programs from source into .bench_build (Release), runs the
workload in .bench_work, checks the outputs, prints one line per metric
(name, value, unit, sample count) and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. --workload all runs
the three workloads one after another, one report each, and exits
non-zero if any check failed. perfbench/README.md describes the
workloads and every metric.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import re
import shutil
import socket
import statistics
import struct
import subprocess
import time

import analysis

TRACE_LEN = 40000
GOLDEN_SEED = 2009
GOLDEN_DIR = "goldens/fast"
# The experiments of the untimed golden check that opens every run.
# Between them they run Runner::single and Runner::contested (the paths
# contest_serve answers with) over every benchmark, in 1.5 s instead of
# the whole suite's 7 s. The suite workload at the golden seed checks
# all twenty.
GATE_EXPERIMENTS = ("table1", "fig06")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
# Relative, so the path stays under the 108-byte AF_UNIX limit however
# deep the checkout is; every process runs from the checkout root.
SOCKET = WORK_DIR + "/serve.sock"
# The daemon's workers; perfbench_probe load adds two client
# connections, so the load stays within the 4 threads of a 4-CPU host.
SERVE_JOBS = 2
# serve_mixed sends a fixed number of requests per --seconds, so a
# faster or slower program sees the same mix (at 15 s: 15000 requests,
# 8% of them first-seen keys).
MIXED_REQUESTS_PER_SECOND = 1000
# The setup of a run is repeated and its median reported: for the
# suite, SUITE_LAUNCHES launches per cold run; for serve_mixed,
# MIXED_LAUNCHES daemons before the timed phase and as many after it.
SUITE_LAUNCHES = 21
HOT_PRELOADS = 3
MIXED_LAUNCHES = 20
WARM_RUNS_PER_COLD = 4

PROCS = []


class Failure(Exception):
    """The benchmark cannot run; no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values)


def program(name):
    return os.path.join(BUILD_DIR, name)


def work(*parts):
    return os.path.join(WORK_DIR, *parts)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ------------------------------------------------------------------ build

def build():
    if not os.path.isdir("src") or not os.path.isfile(
            "perfbench/CMakeLists.txt"):
        raise Failure("run from the root of a repository checkout: "
                      "src/ or perfbench/CMakeLists.txt is missing")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = open(os.path.join(BUILD_DIR, "perfbench-build.log"), "w")
    with log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR] + gen
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                raise Failure("cmake configure failed; see "
                              + log.name)
        cmd = ["cmake", "--build", BUILD_DIR, "-j", str(min(4, nproc()))]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode:
            raise Failure("build failed; see " + log.name)


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.splitlines()[0].strip() if out.stdout else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("src", "bench", "tools", "perfbench", GOLDEN_DIR):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(args):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rev = first_line(["git", "rev-parse", "--short", "HEAD"]) or "none"
    dirty = (bool(subprocess.run(["git", "status", "--porcelain"],
                                 capture_output=True, text=True).stdout)
             if rev != "none" else "unknown")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "cpu": cpu,
        "compiler": first_line([cmake_cache("CMAKE_CXX_COMPILER"),
                                "--version"]),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_rev": rev, "git_dirty": dirty,
        "source_sha256": source_digest(),
        "trace_len": TRACE_LEN,
    }


# -------------------------------------------------------------- processes

def spawn(cmd, out_path):
    out = open(out_path, "w")
    proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
    out.close()
    PROCS.append(proc)
    return proc


def stop_all():
    for proc in PROCS:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def timed_run(cmd, out_path):
    """Run cmd to completion: (wall seconds, exit code, peak RSS in MB,
    stdout text)."""
    start = time.perf_counter()
    proc = spawn(cmd, out_path)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, text


def probe(*args, timeout=170):
    """Run perfbench_probe and return its JSON output."""
    out = subprocess.run([program("perfbench_probe")] + list(args),
                         capture_output=True, text=True, timeout=timeout)
    if out.returncode != 0 and not out.stdout.strip():
        raise Failure("perfbench_probe %s failed: %s"
                      % (args[0], out.stderr.strip()))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["exit_code"] = out.returncode
    return result


def artifacts_match(expected_dir, actual_dir):
    """Bit-identity of two artifact directories (rtol = atol = 0)."""
    out = subprocess.run(
        [program("artifact_diff"), "--rtol", "0", "--atol", "0",
         expected_dir, actual_dir], capture_output=True, text=True)
    return out.returncode == 0


def write_lines(path, items):
    with open(path, "w") as f:
        for item in items:
            f.write((json.dumps(item) if isinstance(item, dict)
                     else str(item)) + "\n")


def read_records(path):
    """Per-request lines of perfbench_probe load."""
    records = []
    with open(path) as f:
        for line in f:
            key, rtt, queue, run, warm, ok = line.split()
            records.append({"key": int(key), "rtt_ms": float(rtt),
                            "queue_ms": float(queue),
                            "run_ms": float(run), "warm": warm == "1",
                            "ok": ok == "1"})
    return records


# ----------------------------------------------------------------- serve

def frame_call(sock, request):
    payload = json.dumps(request).encode()
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        header += chunk
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        body += chunk
    return json.loads(body)


class Daemon:
    """One contest_serve process on SOCKET. ready_s is the time from
    launch until it answered a ping."""

    def __init__(self, seed):
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        self.launched = time.perf_counter()
        self.proc = spawn(
            [program("contest_serve"), "--socket", SOCKET,
             "--jobs", str(SERVE_JOBS), "--trace-len", str(TRACE_LEN),
             "--seed", str(seed), "--quiet"], work("serve.log"))
        deadline = self.launched + 30
        while True:
            try:
                self.call({"kind": "ping"})
                break
            except OSError:
                if time.perf_counter() > deadline or \
                        self.proc.poll() is not None:
                    raise Failure("contest_serve did not answer a ping")
                time.sleep(0.0001)
        self.ready_s = time.perf_counter() - self.launched

    def call(self, request):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(30)
            s.connect(SOCKET)
            return frame_call(s, request)

    def proc_status(self):
        """Peak RSS in MB, threads and open fds, from /proc."""
        status = {}
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                key, _, value = line.partition(":")
                status[key] = value.split()
        fds = len(os.listdir("/proc/%d/fd" % self.proc.pid))
        return {"peak_rss_mb": int(status["VmHWM"][0]) / 1024.0,
                "threads": int(status["Threads"][0]), "fds": fds}

    def stop(self):
        try:
            self.call({"kind": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
        self.proc.wait()


def sims_delta(load):
    b, a = load["before"], load["after"]
    return (a["singles"] - b["singles"]) + (a["contests"] - b["contests"])


def minst_per_s(before, after):
    """Trace instructions simulated per busy second between two stats
    snapshots of the daemon's SimTimeline."""
    sims = after["timeline_sims"] - before["timeline_sims"]
    busy = after["busy_sec"] - before["busy_sec"]
    return sims * TRACE_LEN / 1e6 / busy if busy > 0 else float("nan")


def load_run(keys_file, seq_file, tag, seconds=0, expect=None,
             answers_out=None, pings=0):
    args = ["load", "--socket", SOCKET, "--keys", keys_file,
            "--seq", seq_file, "--seconds", str(seconds), "--pings", str(pings),
            "--records", work(tag + ".records")]
    if expect:
        args += ["--expect", expect]
    if answers_out:
        args += ["--answers-out", answers_out]
    result = probe(*args)
    result["records"] = read_records(work(tag + ".records"))
    return result


def load_failures(load):
    return int(load["failed"] + load["mismatches"]) + (
        1 if load["exit_code"] else 0)


def hot_files(seed):
    keys = work("hot.keys")
    write_lines(keys, analysis.hot_keys())
    preload = work("hot.preload")
    write_lines(preload, analysis.hot_preload_order(seed))
    seq = work("hot.seq")
    write_lines(seq, analysis.hot_sequence(seed, 4096))
    return keys, preload, seq


def preload_hot(seed, keys, preload, tag, pings=0):
    """Launch a daemon and request every hot key once. Returns the
    daemon, the load result and the launch-to-preloaded seconds."""
    daemon = Daemon(seed)
    load = load_run(keys, preload, tag, answers_out=work(tag + ".answers"),
                    pings=pings)
    setup = time.perf_counter() - daemon.launched
    # Every preload request is a first-seen key.
    load["failed"] += sum(1 for r in load["records"] if r["warm"])
    return daemon, load, setup


def launch_times(seed, count):
    """Launch-to-ping seconds of count daemons, each stopped again."""
    times = []
    for _ in range(count):
        daemon = Daemon(seed)
        times.append(daemon.ready_s)
        daemon.stop()
    return times


def mixed_files(seed, count):
    names = probe("names")
    keys = work("mixed.keys")
    key_list = analysis.mixed_keys(names["benches"], names["cores"])
    write_lines(keys, key_list)
    seq = work("mixed.seq")
    write_lines(seq, analysis.mixed_sequence(seed, len(key_list), count))
    return keys, seq


# -------------------------------------------------------------- workloads

class Result:
    def __init__(self):
        self.metrics = {}
        self.checks = {}  # what -> [attempted, failed]
        self.notes = []

    def add(self, name, value, unit, n):
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def count(self, attempted, failed, what):
        tally = self.checks.setdefault(what, [0, 0])
        tally[0] += attempted
        tally[1] += failed

    @property
    def attempted(self):
        return sum(a for a, _ in self.checks.values())

    @property
    def failed(self):
        return sum(f for _, f in self.checks.values())

    def add_latency(self, prefix, values, unit, tail):
        """Median and percentile tail of a timing as <prefix>.p50 and
        <prefix>.p<tail>: fixed names, as BENCHMARK.json declares them,
        whatever the sample count, which is printed beside them."""
        for p in (50, tail):
            self.add("%s.p%g" % (prefix, p), analysis.percentile(values, p),
                     unit, len(values))


def suite_cmd(seed, cache, out):
    return [program("contest_bench"), "--all", "--fast",
            "--trace-len", str(TRACE_LEN), "--seed", str(seed),
            "--jobs", str(min(4, nproc())), "--cache-dir", cache,
            "--out-dir", out]


WARM_SUMMARY = re.compile(
    r"\| 0 single-core simulation\(s\) \+ 0 contested run\(s\)")


def golden_gate(res):
    """Untimed check of the simulator whatever the seed: GATE_EXPERIMENTS
    run cold at the golden seed must match their goldens at rtol = 0."""
    expected, out = work("gate_expected"), work("gate")
    fresh_dir(expected)
    for name in GATE_EXPERIMENTS:
        shutil.copy(os.path.join(GOLDEN_DIR, name + ".json"), expected)
    cmd = [program("contest_bench")] + list(GATE_EXPERIMENTS) + [
        "--fast", "--trace-len", str(TRACE_LEN), "--seed", str(GOLDEN_SEED),
        "--jobs", str(min(4, nproc())), "--out-dir", out]
    _, rc, _, _ = timed_run(cmd, work("gate.out"))
    ok = rc == 0 and artifacts_match(expected, out)
    res.count(1, 0 if ok else 1, "golden-seed gate runs")


def suite_workload(seed, seconds, res):
    launches, cold, warm, rss, minst = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    # A new cold run starts while time is left, so a run may overrun
    # --seconds by one iteration but always measures at least one.
    while time.perf_counter() < deadline:
        # Setup samples spread over the run, so they see the same host
        # as the suite runs do.
        launches += [timed_run([program("contest_bench"), "--list"],
                               work("list.out"))[0]
                     for _ in range(SUITE_LAUNCHES)]
        cache, cold_out = work("cache"), work("cold")
        fresh_dir(cache)
        shutil.rmtree(cold_out, ignore_errors=True)
        wall, rc, peak, _ = timed_run(suite_cmd(seed, cache, cold_out),
                                      work("cold.out"))
        ok = rc == 0
        if ok and seed == GOLDEN_SEED:
            ok = artifacts_match(GOLDEN_DIR, cold_out)
        res.count(1, 0 if ok else 1, "cold suite runs")
        cold.append(wall)
        rss.append(peak)
        with open(os.path.join(cold_out, "SimTimeline.json")) as f:
            minst.append(analysis.timeline_layers(
                json.load(f), TRACE_LEN)["minst_per_s"])
        for _ in range(WARM_RUNS_PER_COLD):
            warm_out = work("warm")
            shutil.rmtree(warm_out, ignore_errors=True)
            wall, rc, _, text = timed_run(
                suite_cmd(seed, cache, warm_out), work("warm.out"))
            ok = (rc == 0 and WARM_SUMMARY.search(text) is not None
                  and artifacts_match(cold_out, warm_out))
            res.count(1, 0 if ok else 1, "warm suite runs")
            warm.append(wall)
    res.add("setup_s", median(launches), "s", len(launches))
    res.add("cold_s", median(cold), "s", len(cold))
    res.add("warm_s", median(warm), "s", len(warm))
    res.add("sim_minst_per_s", median(minst), "Minst/s", len(minst))
    res.add("peak_rss_mb", median(rss), "MB", len(rss))


def serve_hot_workload(seed, seconds, res):
    keys, preload, seq = hot_files(seed)
    setups, cold, minst = [], [], []
    daemon = None
    for i in range(HOT_PRELOADS):
        if daemon:
            daemon.stop()
        daemon, pre, setup = preload_hot(seed, keys, preload, "pre%d" % i)
        res.count(int(pre["attempted"]), load_failures(pre),
                  "preload requests")
        setups.append(setup)
        cold += [r["rtt_ms"] / 1e3 for r in pre["records"]]
        minst.append(minst_per_s(pre["before"], pre["after"]))
    answers = work("pre%d.answers" % (HOT_PRELOADS - 1))
    hot = load_run(keys, seq, "hot", seconds=seconds, expect=answers)
    status = daemon.proc_status()
    daemon.stop()
    recs = hot["records"]
    # Every request is a memo hit: no simulation, every reply warm.
    cold_replies = sum(1 for r in recs if r["ok"] and not r["warm"])
    res.count(len(recs), load_failures(hot) + cold_replies
              + int(sims_delta(hot)), "hot requests")
    rtt = [r["rtt_ms"] for r in recs if r["ok"]]
    res.add("setup_s", median(setups), "s", len(setups))
    res.add("cold_s", median(cold), "s", len(cold))
    res.add("warm_s", median(rtt) / 1e3, "s", len(rtt))
    res.add("sim_minst_per_s", median(minst), "Minst/s", len(minst))
    res.add("peak_rss_mb", status["peak_rss_mb"], "MB", 1)
    serve_report(res, hot, rtt)


def serve_mixed_workload(seed, seconds, res):
    keys, seq = mixed_files(seed, MIXED_REQUESTS_PER_SECOND * seconds)
    # Setup samples on both sides of the phase see the host it ran on.
    setups = launch_times(seed, MIXED_LAUNCHES)
    daemon = Daemon(seed)
    setups.append(daemon.ready_s)
    mixed = load_run(keys, seq, "mixed")
    status = daemon.proc_status()
    daemon.stop()
    setups += launch_times(seed, MIXED_LAUNCHES)
    recs = mixed["records"]
    res.count(len(recs), load_failures(mixed), "mixed requests")
    rtt = [r["rtt_ms"] for r in recs if r["ok"]]
    cold = [r["rtt_ms"] / 1e3 for r in recs if r["ok"] and not r["warm"]]
    warm = [r["rtt_ms"] / 1e3 for r in recs if r["ok"] and r["warm"]]
    res.add("setup_s", median(setups), "s", len(setups))
    res.add("cold_s", median(cold), "s", len(cold))
    res.add("warm_s", median(warm), "s", len(warm))
    res.add("sim_minst_per_s", minst_per_s(mixed["before"], mixed["after"]),
            "Minst/s", int(sims_delta(mixed)))
    res.add("peak_rss_mb", status["peak_rss_mb"], "MB", 1)
    serve_report(res, mixed, rtt)


def serve_report(res, load, rtt):
    """Serve figures printed beside the end-to-end metrics."""
    res.add("req_per_s", len(rtt) / load["wall_s"], "1/s", len(rtt))
    for cap in (99, None):
        s = analysis.summarize(rtt, cap)
        res.add("p50_ms", s["p50"], "ms", s["n"])
        res.add("p%g_ms" % s["tail_p"], s["tail"], "ms", s["n"])
    res.notes.append("sims during the timed phase: %d"
                     % sims_delta(load))


# ----------------------------------------------------------------- traced

def traced_workload(seed, seconds, res):
    """Every per-layer metric, whichever the workload: the layer ladder,
    the suite with a span per experiment body, and a hot and a mixed
    serve session."""
    ladder = probe("ladder", "--seed", str(seed),
                   "--trace-len", str(TRACE_LEN), "--dir", work("ladder"))
    res.count(1, 0 if ladder["disk_loads_ok"] else 1, "ladder disk loads")
    res.add("trace.gen_ns_per_inst", ladder["trace_gen_ns_per_inst"],
            "ns", 3)
    for key in ("runsingle", "runner_single"):
        res.add("core.%s_ns_per_inst" % key,
                ladder[key + "_ns_per_inst"], "ns", 121)
    res.add("core.idle_skip_frac", ladder["idle_skip_frac"], "fraction",
            11)
    for key, calls in (("contest_key", 3600), ("single_key", 3600),
                       ("memo_hit", 3600), ("disk_load", 100),
                       ("disk_store", 100)):
        res.add("harness.%s_us" % key, ladder[key + "_us"], "us", calls)

    traced_suite(seed, res)
    traced_serve(seed, seconds, res)


def traced_suite(seed, res):
    cache = work("tcache")
    fresh_dir(cache)
    runs = {}
    for phase in ("cold", "warm"):
        out = work("t" + phase)
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        runs[phase] = probe(
            "suite", "--seed", str(seed), "--trace-len", str(TRACE_LEN),
            "--jobs", str(min(4, nproc())), "--cache-dir", cache,
            "--out-dir", out)
        runs[phase]["process_s"] = time.perf_counter() - start
        for name, sec in runs[phase]["exp_s"].items():
            res.add("suite.%s_exp_s.%s" % (phase, name), sec, "s", 1)
    cold, warm = runs["cold"], runs["warm"]
    ok = cold["exit_code"] == 0 and warm["exit_code"] == 0
    ok = ok and warm["singles"] == 0 and warm["contests"] == 0
    ok = ok and artifacts_match(work("tcold"), work("twarm"))
    if seed == GOLDEN_SEED:
        ok = ok and artifacts_match(GOLDEN_DIR, work("tcold"))
    res.count(2, 0 if ok else 1, "traced suite runs")

    with open(work("tcold", "SimTimeline.json")) as f:
        layers = analysis.timeline_layers(json.load(f), TRACE_LEN)
    res.add_latency("core.single_ns_per_inst", layers["single_ns"], "ns",
                    90)
    res.add("core.single_busy_s", layers["single_busy_s"], "s", 1)
    res.add("core.sims", cold["singles"], "count", 1)
    res.add_latency("contest.ns_per_inst", layers["contest_ns"], "ns", 90)
    res.add("contest.busy_s", layers["contest_busy_s"], "s", 1)
    res.add("contest.sims", cold["contests"], "count", 1)
    res.add("contest.overhead_ns_per_inst", layers["overhead_ns"], "ns",
            layers["overhead_pairs"])
    res.add("harness.concurrency", layers["concurrency"], "x", 1)
    res.add("harness.queue_s", layers["queue_s"], "s", 1)
    res.add("harness.disk_hits", warm["disk_hits"], "count", 1)
    res.add("harness.disk_misses", cold["disk_misses"], "count", 1)
    res.add("harness.disk_stores", cold["disk_stores"], "count", 1)

    # Tracing overhead: the traced cold suite against contest_bench.
    fresh_dir(cache)
    shutil.rmtree(work("cold"), ignore_errors=True)
    wall, rc, _, _ = timed_run(suite_cmd(seed, cache, work("cold")),
                               work("cold.out"))
    res.count(1, 0 if rc == 0 else 1, "untraced suite runs")
    res.add("suite.traced_over_untraced", cold["process_s"] / wall, "x", 1)


def traced_serve(seed, seconds, res):
    keys, preload, seq = hot_files(seed)
    daemon, pre, _ = preload_hot(seed, keys, preload, "tpre", pings=2000)
    res.count(int(pre["attempted"]), load_failures(pre), "preload requests")
    res.add_latency("serve.ping_us", pre["ping_us"], "us", 99)
    hot = load_run(keys, seq, "thot", seconds=min(3, seconds),
                   expect=work("tpre.answers"))
    daemon.stop()
    recs = [r for r in hot["records"] if r["ok"]]
    res.count(len(hot["records"]), load_failures(hot)
              + sum(1 for r in recs if not r["warm"])
              + int(sims_delta(hot)), "hot requests")
    wire = [r["rtt_ms"] - r["queue_ms"] - r["run_ms"] for r in recs]
    s = analysis.summarize(wire)
    res.add("serve.wire_ms.p50", s["p50"], "ms", s["n"])

    # At least 1000 requests, so ten or more lie beyond serve.*.p99.
    keys, seq = mixed_files(
        seed, max(1000, MIXED_REQUESTS_PER_SECOND * seconds))
    daemon = Daemon(seed)
    mixed = load_run(keys, seq, "tmixed")
    status = daemon.proc_status()
    daemon.stop()
    recs = [r for r in mixed["records"] if r["ok"]]
    res.count(len(mixed["records"]), load_failures(mixed), "mixed requests")
    res.add_latency("serve.queue_ms", [r["queue_ms"] for r in recs], "ms",
                    99)
    res.add_latency("serve.run_ms", [r["run_ms"] for r in recs], "ms", 99)
    res.add("serve.warm_frac", sum(r["warm"] for r in recs) / len(recs),
            "fraction", len(recs))
    delta = {k: mixed["after"][k] - mixed["before"][k]
             for k in ("singles", "contests")}
    res.add("serve.sims", delta["singles"], "count", 1)
    res.add("serve.contests", delta["contests"], "count", 1)
    res.add("serve.daemon_threads", status["threads"], "count", 1)
    res.add("serve.daemon_fds", status["fds"], "count", 1)


# ------------------------------------------------------------------- main

def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise Failure("cannot read BENCHMARK.json: %s" % e)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


WORKLOADS = {
    "suite": suite_workload,
    "serve_hot": serve_hot_workload,
    "serve_mixed": serve_mixed_workload,
}


def report(env, res, wanted):
    """Print one run's report, the JSON result as its last line, and
    return the exit code."""
    print("# perfbench " + json.dumps(env, sort_keys=True))
    print("# %-40s %16s %-9s %s" % ("metric", "value", "unit", "samples"))
    for name, m in res.metrics.items():
        print("  %-40s %16.6g %-9s %d" % (name, m["value"], m["unit"],
                                          m["n"]))
    failed_frac = res.failed / max(1, res.attempted)
    print("  %-40s %16.6g %-9s %d" % ("failed_frac", failed_frac,
                                      "fraction", res.attempted))
    for note in res.notes:
        print("# " + note)
    for what, (attempted, failed) in res.checks.items():
        if failed:
            print("# FAILED: %d of %d %s" % (failed, attempted, what))
    missing = [name for name in wanted if name not in res.metrics]
    if missing:
        print("perfbench: not measured: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": max(1, res.attempted),
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name]["value"],
                           "unit": res.metrics[name]["unit"]}
                    for name in wanted},
    }), flush=True)
    return 0 if res.failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"],
                        help="all runs every workload, one report each")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # The traced run is the same for every workload.
    names = (list(WORKLOADS) if args.workload == "all" and not args.trace
             else [args.workload])

    code = 0
    try:
        wanted = declared_metrics(args.trace)
        build()
        for name in names:
            args.workload = name
            env = environment(args)
            shutil.rmtree(WORK_DIR, ignore_errors=True)
            os.makedirs(WORK_DIR)
            res = Result()
            golden_gate(res)
            run = traced_workload if args.trace else WORKLOADS[name]
            run(args.seed, args.seconds, res)
            code = max(code, report(env, res, wanted))
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        stop_all()
    return code


if __name__ == "__main__":
    sys.exit(main())
