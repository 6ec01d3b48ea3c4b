#!/usr/bin/env python3
"""Cold-path benchmark for gaplan: the GA planner, gaplan_serve and the
gaplan_router/gaplan_worker cluster, measured end to end and layer by layer.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the program and
the benchmark's C++ programs (perfbench/build.cmake) into a build tree of that
checkout's own under $CARGO_TARGET_DIR, or .bench_build when that is unset.
Workloads, metrics and the layer map are described in perfbench/README.md.

Every workload plans a fixed request list whose length follows from
--seconds; --seed only orders it. Each run therefore does the same planning
work, which the work fingerprint checks. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 runs the list untraced and then
traced (GAPLAN_TRACE, one journal per process), runs the micro-timing program,
and reports the per-layer metrics.
"""
import argparse
import collections
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TARGET = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
# One build tree per checkout, so checkouts sharing a target directory never
# build or run each other's sources.
BUILD = os.path.join(TARGET,
                     "cmake-" + hashlib.sha1(ROOT.encode()).hexdigest()[:12])
# The programs whose code decides a run's work; the work fingerprint is kept
# per hash of their binaries.
CODE_TARGETS = ["gaplan_serve", "gaplan_router", "gaplan_worker",
                "perfbench_inproc"]
RUN_TIMEOUT_S = 170
SETUP_REPEATS = 15
WAIT_TIMEOUT_MS = 60000
CLK_TCK = os.sysconf("SC_CLK_TCK")

END_TO_END = {
    "setup_s": "s", "plans_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "cpu_s_per_plan": "s", "peak_rss_mb": "MB",
    "solve_rate": "ratio", "goal_fitness_mean": "ratio",
}

PER_LAYER = {
    "core.eval_ms_per_plan": "ms", "core.reproduce_ms_per_plan": "ms",
    "core.reproduce_share": "ratio", "core.select_ns_per_child": "ns",
    "core.crossover_ns_per_pair": "ns", "core.mutate_ns_per_child": "ns",
    "core.splice_ns_per_child": "ns", "core.ops_cache_hit_rate": "ratio",
    "core.ops_cache_lookups_per_plan": "count",
    "core.evaluations_per_plan": "count", "core.generations_per_plan": "count",
    "domains.kernel_decode_ns_per_gene": "ns",
    "domains.scalar_decode_ns_per_gene": "ns",
    "grid.plan_ms_per_round": "ms", "grid.execute_ms_per_scenario": "ms",
    "grid.rounds_per_scenario": "count",
    "server.queue_wait_ms_p50": "ms", "server.queue_wait_ms_p90": "ms",
    "server.plan_ms_p50": "ms", "server.front_ms_p50": "ms",
    "server.parse_us_per_frame": "us", "server.render_us_per_frame": "us",
    "server.fingerprint_us": "us", "server.cache_probe_us_p50": "us",
    "server.cache_hit_rate": "ratio", "server.cache_evictions_per_plan": "count",
    "dist.hop_ms_p50": "ms", "dist.hit_ms_p50": "ms",
    "dist.island_ms_p50": "ms", "dist.rpcs_per_plan": "count",
    "dist.gossip_sent_per_plan": "count", "dist.ring_lookup_ns": "ns",
    "dist.migrant_codec_us": "us", "dist.retries": "count",
    "proc.serve_cpu_s_per_plan": "s", "proc.router_cpu_s_per_plan": "s",
    "proc.worker_cpu_s_per_plan": "s", "proc.router_rss_mb": "MB",
    "proc.worker_rss_mb": "MB",
    "obs.trace_overhead_pct": "%", "obs.journal_bytes_per_plan": "B",
    "obs.unattributed_pct": "%", "util.pool_tasks_per_plan": "count",
}

# Served request classes. Each request is a distinct (problem, GA seed), so
# serve-cold never reads its plan cache. The shares put p50 inside the
# hanoi:5 class and p90 inside tiles:3 (see README.md).
SERVE_CLASSES = [("sokoban:1", 5), ("sokoban:2", 5), ("sokoban:3", 5),
                 ("hanoi:4", 25), ("hanoi:5", 45), ("tiles:3", 15)]
# route-mix's fresh submits are mostly hanoi:5, so planning, not the hops
# around it, sets the pace. Repeats (about 0.2 ms), Sokoban and hanoi:4
# (about 2 ms) and island runs (about 3.5 ms) take 45% of the records, so p50
# lies low in the hanoi:5 class and p90 near its 80th percentile.
ROUTE_CLASSES = [("sokoban:1", 2), ("sokoban:2", 2), ("sokoban:3", 2),
                 ("hanoi:4", 9), ("hanoi:5", 85)]
ROUTE_REPEAT_SHARE = 0.25
ROUTE_ISLAND_SHARE = 0.10
# One connection to the router. The router holds one connection per worker
# and a forwarded wait occupies it while the worker plans, so concurrent
# clients queue on each other in an order the scheduler decides. With three,
# the spread over ten runs reached 46% of the median (README "Noise").
ROUTE_CONNS = 1
ISLAND_REQUEST = {"problem": "hanoi:4", "pop": 60, "gens": 40, "islands": 4,
                  "interval": 5, "migrants": 2}
HANOI7_PHASES, HANOI7_GENS = 5, 100
# Scenario j plans GRID_FILES[j % 3]. The 2:1 mix puts p50 inside the image
# pipeline's latency class (~15 ms) and p90 inside the genomics one (~47 ms);
# a 1:1 mix would put p50 in the gap between them.
GRID_FILES = ["assets/image_pipeline.grid", "assets/image_pipeline.grid",
              "assets/genomics_pipeline.grid"]

# Requests (scenarios for plan-grid) per second of --seconds: the list
# length is round(seconds * rate), measured on a 4-core AVX-512 machine.
RATES = {
    "plan-hanoi7": 6.5,
    "plan-grid": 38.0,
    "serve-cold": 230.0,
    "route-mix": 210.0,
}


class BenchError(Exception):
    """An infrastructure failure: no result line is printed."""


def log(msg):
    # A closed stderr must not stop the run before its children are stopped.
    try:
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    except OSError:
        pass


def exe(name):
    path = os.path.join(BUILD, name)
    if not os.path.exists(path):
        path = os.path.join(BUILD, "examples", name)
    return path


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt here; run from a gaplan checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", ROOT, "-B", BUILD, *gen,
             "-DGAPLAN_BUILD_TESTS=OFF", "-DGAPLAN_BUILD_BENCH=OFF",
             f"-DCMAKE_PROJECT_INCLUDE={os.path.join(HERE, 'build.cmake')}"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    *CODE_TARGETS, "perfbench_micro"],
                   check=True, stdout=sys.stderr)


def code_hash():
    digest = hashlib.sha256()
    for name in CODE_TARGETS:
        with open(exe(name), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------
# Child processes

class Children:
    """Every process the run starts. kill_all() is called on every exit path
    and checks that none survives."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.procs = []

    def spawn(self, argv, tag, env=None, stderr_banner=False):
        """Starts argv with stdin and stdout piped and stderr logged. With
        stderr_banner, reads the first stderr line into proc.banner
        (gaplan_serve prints its banner there) and logs the rest from a
        thread."""
        log_path = os.path.join(self.run_dir, f"{tag}.stderr")
        err = open(log_path, "w")
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE if stderr_banner else err, text=True,
            env=dict(os.environ, **(env or {})))
        proc.tag = tag
        self.procs.append(proc)
        if not stderr_banner:
            err.close()
            return proc
        proc.banner = proc.stderr.readline()
        err.write(proc.banner)
        err.flush()

        def drain():
            with err:
                shutil.copyfileobj(proc.stderr, err)
        threading.Thread(target=drain, daemon=True).start()
        return proc

    def stderr_of(self, proc):
        with open(os.path.join(self.run_dir, f"{proc.tag}.stderr")) as f:
            return f.read()

    def kill_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            for stream in (proc.stdin, proc.stdout):
                if stream:
                    try:
                        stream.close()
                    except OSError:
                        pass
        alive = [p.tag for p in self.procs if p.poll() is None]
        self.procs = []
        if alive:
            raise BenchError(f"children survived: {alive}")

    def reap(self, proc, timeout=20):
        proc.wait(timeout=timeout)
        self.procs.remove(proc)
        for stream in (proc.stdin, proc.stdout):
            if stream:
                stream.close()


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Conn:
    """One NDJSON connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=90)
        self.rfile = self.sock.makefile("r")

    def rpc(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.rfile.readline()
        if not line:
            raise BenchError("connection closed")
        return json.loads(line)

    def close(self):
        self.rfile.close()
        self.sock.close()


def one_rpc(port, obj):
    conn = Conn(port)
    try:
        return conn.rpc(obj)
    finally:
        conn.close()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_until(pred, what, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if pred():
                return
        except (OSError, ValueError, BenchError):
            pass
        time.sleep(0.0005)
    raise BenchError(f"timed out waiting for {what}")


def read_banner(proc, children):
    """The 'listening on 127.0.0.1:PORT' line (stdout for router/worker)."""
    line = proc.stdout.readline()
    if "listening on" not in line:
        raise BenchError(f"{proc.tag}: no listening banner: {line!r} "
                         f"{children.stderr_of(proc)!r}")
    return int(line.rsplit(":", 1)[1])


# --------------------------------------------------------------------------
# Request lists

def class_list(classes, count, first_seed):
    """`count` requests in fixed class shares, each with its own GA seed."""
    total = sum(w for _, w in classes)
    out = []
    for i in range(count):
        slot = (i * 7919) % total  # spreads every class over the list
        for problem, weight in classes:
            if slot < weight:
                out.append({"cmd": "submit", "problem": problem,
                            "seed": first_seed + i})
                break
            slot -= weight
    return out


def serve_cold_list(n, seed):
    """n requests in the fixed class shares, in --seed order."""
    reqs = class_list(SERVE_CLASSES, n, 1000)
    random.Random(seed).shuffle(reqs)
    return reqs


def route_mix_list(n, seed):
    """Fresh submits, island submits, and fresh submits marked to be sent
    again right after their answer (the repeat is a primary-cache hit), in
    --seed order."""
    n_island = round(n * ROUTE_ISLAND_SHARE)
    n_repeat = round(n * ROUTE_REPEAT_SHARE)
    n_fresh = n - n_island - n_repeat
    fresh = class_list(ROUTE_CLASSES, n_fresh, 100000)
    for i in range(n_repeat):
        fresh[(i * n_fresh) // n_repeat]["then_repeat"] = True
    islands = [dict(ISLAND_REQUEST, cmd="submit", seed=200000 + i)
               for i in range(n_island)]
    reqs = fresh + islands
    random.Random(seed).shuffle(reqs)
    return reqs


# --------------------------------------------------------------------------
# Load generator

def closed_loop(port, reqs, conns=3):
    """`conns` connections share one queue of requests; each sends its next
    request only after the previous one is answered, so all finish within a
    request of each other. A request marked then_repeat is sent again on the
    same connection as soon as it is answered. Returns one record per
    request sent."""
    queue = collections.deque(reqs)
    lock = threading.Lock()
    records = [[] for _ in range(conns)]
    errors = []

    def send(conn, req):
        wire = {k: v for k, v in req.items() if k not in ("then_repeat", "repeat")}
        t0 = time.perf_counter()
        try:
            resp = conn.rpc(wire)
            if resp.get("ok") and resp.get("state") != "done":
                resp = conn.rpc({"cmd": "wait", "id": resp["id"],
                                 "timeout_ms": WAIT_TIMEOUT_MS})
        except (OSError, ValueError, KeyError, BenchError) as err:
            resp = {"ok": False, "error": str(err)}
        return {"req": req, "resp": resp, "ms": (time.perf_counter() - t0) * 1e3}

    def client(idx):
        try:
            conn = Conn(port)
        except OSError as err:
            errors.append(f"connect: {err}")
            return
        try:
            while True:
                with lock:
                    if not queue:
                        return
                    req = queue.popleft()
                records[idx].append(send(conn, req))
                if req.get("then_repeat"):
                    records[idx].append(send(conn, dict(req, repeat=True)))
        finally:
            conn.close()

    # Daemon threads: if the run is stopped, they must not keep it alive.
    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(conns)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise BenchError("; ".join(errors))
    return [r for rs in records for r in rs], wall


def replay_plans(records):
    """Replays every returned plan through perfbench_inproc replay and marks
    each record failed (error, reject, timeout, bad plan or a reported
    validity the replay disagrees with)."""
    lines, todo = [], []
    for rec in records:
        resp = rec["resp"]
        rec["failed"] = not (resp.get("ok") and resp.get("state") == "done"
                             and isinstance(resp.get("plan"), list))
        if not rec["failed"]:
            lines.append(json.dumps({"problem": rec["req"]["problem"],
                                     "plan": resp["plan"]}))
            todo.append(rec)
    out = subprocess.run([exe("perfbench_inproc"), "replay"],
                         input="\n".join(lines) + "\n", capture_output=True,
                         text=True, check=True, timeout=60)
    verdicts = [json.loads(l) for l in out.stdout.splitlines()]
    if len(verdicts) != len(todo):
        raise BenchError("replay answered a different number of plans")
    for rec, v in zip(todo, verdicts):
        resp = rec["resp"]
        rec["solved"] = v["goal"]
        rec["gf"] = v["gf"]
        if (not v["replay_ok"] or v["goal"] != resp.get("valid")
                or abs(v["gf"] - resp.get("goal_fitness", -1.0)) > 1e-6):
            rec["failed"] = True
            rec["mismatch"] = True


# --------------------------------------------------------------------------
# Statistics helpers

def pct(values, q):
    """Percentile by linear interpolation (q in [0, 100])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def counter(metrics, name):
    return metrics.get("counters", {}).get(name, 0)


def hist_sum(metrics, name):
    return metrics.get("histograms", {}).get(name, {}).get("sum", 0.0)


def merge_metrics(docs):
    out = {"counters": {}, "histograms": {}}
    for doc in docs:
        for k, v in doc.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, h in doc.get("histograms", {}).items():
            cur = out["histograms"].setdefault(k, {"count": 0, "sum": 0.0})
            cur["count"] += h.get("count", 0)
            cur["sum"] += h.get("sum", 0.0)
    return out


# --------------------------------------------------------------------------
# Workloads. Each pass returns a dict:
#   records  one {"ms", "failed", "solved", "gf", ...} per request
#   wall     seconds of the timed region
#   setup    list of set-up times (s)
#   cpu, rss CPU seconds and VmHWM (MB) summed over the system under test
#   metrics  its merged metrics registry; procs: cpu and rss per process

def timed_setups(start, stop, n):
    """Sets the system under test up n times, timing each start(); tears all
    but the last instance down with stop(). Returns (times, last instance)."""
    times = []
    for rep in range(n):
        t0 = time.perf_counter()
        handle = start()
        times.append(time.perf_counter() - t0)
        if rep < n - 1:
            stop(handle)
    return times, handle


def inproc_pass(args, mode_args, n, env, children, setups):
    """Times `setups` set-ups of perfbench_inproc, then plans the fixed list
    of n requests, in --seed order, with the last instance."""
    order = list(range(n))
    random.Random(args.seed).shuffle(order)

    def start():
        proc = children.spawn([exe("perfbench_inproc"), *mode_args], "inproc",
                              env=env)
        if json.loads(proc.stdout.readline() or "{}").get("ready") is not True:
            raise BenchError(f"inproc not ready: {children.stderr_of(proc)}")
        return proc

    def plan(proc, indices):
        proc.stdin.write(" ".join(map(str, indices)) + "\n")
        proc.stdin.flush()
        rows = [json.loads(l) for l in proc.stdout]
        children.reap(proc)
        if proc.returncode != 0 or not rows or not rows[-1].get("summary"):
            raise BenchError(f"inproc exited {proc.returncode}: "
                             f"{children.stderr_of(proc)}")
        return rows

    setup, proc = timed_setups(start, lambda p: plan(p, []), setups)
    rows = plan(proc, order)
    summary = rows[-1]
    plans = rows[:-1]
    if len(plans) != n:
        raise BenchError(f"inproc planned {len(plans)} of {n}")
    return {"records": plans, "wall": summary["wall_s"], "setup": setup,
            "cpu": summary["cpu_s"], "rss": summary["rss_mb"],
            "metrics": summary["metrics"],
            "procs": {"inproc": {"cpu": summary["cpu_s"],
                                 "rss": summary["rss_mb"]}}}


def run_hanoi7(args, n, env, children, setups):
    res = inproc_pass(args, ["hanoi7", str(HANOI7_PHASES), str(HANOI7_GENS)],
                      n, env, children, setups)
    for rec in res["records"]:
        rec["solved"] = rec["goal"]
        rec["failed"] = not (rec["replay_ok"] and rec["goal"] == rec["valid"]
                             and abs(rec["gf"] - rec["gf_replay"]) <= 1e-9)
        rec["mismatch"] = rec["failed"]
    return res


def run_grid(args, n, env, children, setups):
    res = inproc_pass(args, ["grid", *[os.path.join(ROOT, f)
                                       for f in GRID_FILES]],
                      n, env, children, setups)
    for rec in res["records"]:
        rec["solved"] = rec["completed"]
        rec["failed"] = not (rec["completed"] and rec["check_ok"])
        rec["mismatch"] = not rec["check_ok"]
    return res


def start_serve(children, env):
    """gaplan_serve has no ephemeral port: pick a free one, retry when it
    cannot listen. Its stdin stays open (EOF shuts it down)."""
    for _ in range(8):
        port = free_port()
        proc = children.spawn([exe("gaplan_serve"), "--workers", "2",
                               "--tcp", str(port)], "serve", env=env,
                              stderr_banner=True)
        if "listening on" in proc.banner:
            return proc, port
        children.reap(proc)
    raise BenchError("gaplan_serve could not listen on any port")


def shutdown(children, proc, port):
    one_rpc(port, {"cmd": "shutdown"})
    proc.stdin.close()  # gaplan_serve's stdin loop exits only on EOF
    children.reap(proc)


def serve_setup(children, env):
    proc, port = start_serve(children, env)
    wait_until(lambda: one_rpc(port, {"cmd": "stats"}).get("ok"),
               "gaplan_serve stats")
    return proc, port


def run_serve_cold(args, n, env, children, setups):
    setup, (proc, port) = timed_setups(
        lambda: serve_setup(children, env),
        lambda handle: shutdown(children, *handle), setups)
    reqs = serve_cold_list(n, args.seed)
    records, wall = closed_loop(port, reqs)
    metrics = one_rpc(port, {"cmd": "metrics"})["metrics"]
    cpu, rss = proc_cpu_s(proc.pid), proc_hwm_mb(proc.pid)
    shutdown(children, proc, port)
    replay_plans(records)
    return {"records": records, "wall": wall, "setup": setup, "cpu": cpu,
            "rss": rss, "metrics": metrics,
            "procs": {"serve": {"cpu": cpu, "rss": rss}}}


def cluster_setup(children, env_for):
    """Two peered workers (--tcp 0 for the first, a reserved port for the
    second, which the first must know to gossip) and a router in front."""
    for _ in range(8):
        p2 = free_port()
        w1 = children.spawn([exe("gaplan_worker"), "--tcp", "0", "--workers",
                             "1", "--cache", "8192", "--peer",
                             f"127.0.0.1:{p2}"], "worker1", env=env_for("worker1"))
        p1 = read_banner(w1, children)
        w2 = children.spawn([exe("gaplan_worker"), "--tcp", str(p2),
                             "--workers", "1", "--cache", "8192", "--peer",
                             f"127.0.0.1:{p1}"], "worker2", env=env_for("worker2"))
        line = w2.stdout.readline()
        if "listening on" not in line:
            children.kill_all()
            continue
        router = children.spawn([exe("gaplan_router"), "--tcp", "0",
                                 "--backend", f"127.0.0.1:{p1}",
                                 "--backend", f"127.0.0.1:{p2}"], "router",
                                env=env_for("router"))
        rport = read_banner(router, children)
        wait_until(lambda: one_rpc(rport, {"cmd": "stats"}).get("backends_up")
                   == 2, "router backends up")
        return {"router": (router, rport), "worker1": (w1, p1),
                "worker2": (w2, p2)}
    raise BenchError("worker could not listen on any port")


def cluster_shutdown(children, procs):
    for tag in ("router", "worker1", "worker2"):
        proc, port = procs[tag]
        shutdown(children, proc, port)


def run_route_mix(args, n, env, children, setups, journals=None):
    def env_for(tag):
        if journals is None:
            return env
        return dict(env, GAPLAN_TRACE=journals[tag])
    # The cluster and the generator share one CPU. With one connection the
    # request chain is serial, so one CPU runs it as fast as four, and each
    # hop is a context switch on that CPU instead of the wake-up of an idle
    # vCPU, whose delay on a shared VM host follows the host's load.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        setup, procs = timed_setups(
            lambda: cluster_setup(children, env_for),
            lambda p: cluster_shutdown(children, p), setups)
        rport = procs["router"][1]
        records, wall = closed_loop(rport, route_mix_list(n, args.seed),
                                    ROUTE_CONNS)
        stats = one_rpc(rport, {"cmd": "stats"})
        backends = one_rpc(rport, {"cmd": "backends"})
        worker_metrics = [one_rpc(procs[t][1], {"cmd": "metrics"})["metrics"]
                          for t in ("worker1", "worker2")]
        proc_stats = {t: {"cpu": proc_cpu_s(p.pid), "rss": proc_hwm_mb(p.pid)}
                      for t, (p, _) in procs.items()}
        cluster_shutdown(children, procs)
    finally:
        os.sched_setaffinity(0, allowed)
    replay_plans(records)
    rpcs = 0
    for key, value in backends.items():
        if key.startswith("backend_"):
            rpcs += int(value.split(" rpcs=")[1].split()[0])
    metrics = merge_metrics(worker_metrics)
    metrics["counters"]["dist.rpcs"] = rpcs
    metrics["counters"]["dist.retries"] = stats.get("retries", 0)
    metrics["counters"]["dist.cache_hit_primary"] = stats.get(
        "cache_hits_primary", 0)
    return {"records": records, "wall": wall, "setup": setup,
            "cpu": sum(p["cpu"] for p in proc_stats.values()),
            "rss": sum(p["rss"] for p in proc_stats.values()),
            "metrics": metrics, "procs": proc_stats}


def run_pass(args, n, children, setups, trace_dir=None):
    env = {}
    journals = None
    if trace_dir:
        if args.workload == "route-mix":
            journals = {t: os.path.join(trace_dir, f"{t}.jsonl")
                        for t in ("router", "worker1", "worker2")}
        else:
            env = {"GAPLAN_TRACE": os.path.join(trace_dir, "journal.jsonl")}
    if args.workload == "plan-hanoi7":
        res = run_hanoi7(args, n, env, children, setups)
    elif args.workload == "plan-grid":
        res = run_grid(args, n, env, children, setups)
    elif args.workload == "serve-cold":
        res = run_serve_cold(args, n, env, children, setups)
    else:
        res = run_route_mix(args, n, env, children, setups, journals)
    return res


# --------------------------------------------------------------------------
# Metrics

def end_to_end(res):
    recs = res["records"]
    done = [r for r in recs if not r["failed"]]
    lat = [r["ms"] for r in recs]
    return {
        "setup_s": statistics.median(res["setup"]),
        "plans_per_s": len(done) / res["wall"],
        "latency_p50_ms": pct(lat, 50),
        "latency_p90_ms": pct(lat, 90),
        "cpu_s_per_plan": res["cpu"] / max(1, len(done)),
        "peak_rss_mb": res["rss"],
        "solve_rate": sum(1 for r in done if r.get("solved")) / max(1, len(recs)),
        "goal_fitness_mean": (statistics.fmean(r["gf"] for r in done)
                              if done else 0.0),
    }


def work_fingerprint(res):
    """Counts the fixed request list determines. Equal on every run of the
    same code; a difference is hidden nondeterminism (or less work)."""
    m = res["metrics"]
    recs = res["records"]
    return {
        "plans": len(recs),
        "solved": sum(1 for r in recs if r.get("solved")),
        "ga.evaluations": counter(m, "ga.evaluations"),
        "ga.generations": counter(m, "ga.generations"),
        "cache_hits": counter(m, "server.cache_hits")
        + counter(m, "dist.cache_hit_primary"),
        "dist.rpcs": counter(m, "dist.rpcs"),
    }


def check_fingerprint(code, workload, n, fp):
    """The first run of this code (`code` hashes its binaries) records the
    fingerprint; later runs of the same code and list must match it."""
    path = os.path.join(TARGET, "fingerprints", code, f"{workload}-{n}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(fp, f, sort_keys=True)
        return True
    with open(path) as f:
        first = json.load(f)
    if first != fp:
        log(f"work fingerprint differs from the first run: {first} vs {fp}")
        return False
    return True


def analyze_journal(path):
    out = subprocess.run([sys.executable,
                          os.path.join(ROOT, "scripts", "analyze_trace.py"),
                          path, "--json", "-"], capture_output=True, text=True,
                         check=True, timeout=120)
    return json.loads(out.stdout)


def unattributed_pct(workload, res, journals):
    """The "other" share: for served workloads analyze_trace.py's per-request
    other_ms over total_ms (worker journals for route-mix); in process, the
    share of client-timed planning that no root span covers."""
    if workload in ("serve-cold", "route-mix"):
        other = total = 0.0
        for path in journals:
            if os.path.basename(path).startswith("router"):
                continue
            agg = analyze_journal(path)["aggregate"]
            other += agg["other_ms"]
            total += agg["total_ms"]
        return 100.0 * other / total if total else 0.0
    roots = sum(r["dur_ms"] for p in journals for r in analyze_journal(p)["runs"])
    client = sum(r["ms"] for r in res["records"])
    return 100.0 * (client - roots) / client if client else 0.0


def per_layer(workload, base, traced, journals, micro):
    """Layer metrics from the traced pass (registry counters and histograms,
    the wait-response timing fields, client timings), the untraced pass
    (trace overhead) and the micro-timing program. A layer the workload does
    not run reports 0."""
    out = {k: 0.0 for k in PER_LAYER}
    out.update({k: v for k, v in micro.items() if k in PER_LAYER})
    m = traced["metrics"]
    recs = traced["records"]
    plans = max(1, len(recs))
    eval_ms, repro_ms = hist_sum(m, "ga.eval_ms"), hist_sum(m, "ga.reproduce_ms")
    hits, misses = counter(m, "eval.cache_hits"), counter(m, "eval.cache_misses")
    out.update({
        "core.eval_ms_per_plan": eval_ms / plans,
        "core.reproduce_ms_per_plan": repro_ms / plans,
        "core.reproduce_share": (repro_ms / (eval_ms + repro_ms)
                                 if eval_ms + repro_ms else 0.0),
        "core.ops_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.ops_cache_lookups_per_plan": (hits + misses) / plans,
        "core.evaluations_per_plan": counter(m, "ga.evaluations") / plans,
        "core.generations_per_plan": counter(m, "ga.generations") / plans,
        "util.pool_tasks_per_plan": counter(m, "pool.tasks_executed") / plans,
    })
    if workload == "plan-grid":
        rounds = sum(r["rounds"] for r in recs)
        out["grid.plan_ms_per_round"] = (sum(r["plan_ms"] for r in recs)
                                         / max(1, rounds))
        out["grid.execute_ms_per_scenario"] = (
            sum(r["ms"] - r["plan_ms"] for r in recs) / plans)
        out["grid.rounds_per_scenario"] = rounds / plans
    if workload in ("serve-cold", "route-mix"):
        served = [r for r in recs if not r["req"].get("repeat")
                  and "islands" not in r["req"] and not r["failed"]]
        resp = [r["resp"] for r in served]
        out["server.queue_wait_ms_p50"] = pct([x["queue_wait_ms"] for x in resp], 50)
        out["server.queue_wait_ms_p90"] = pct([x["queue_wait_ms"] for x in resp], 90)
        out["server.plan_ms_p50"] = pct([x["plan_ms"] for x in resp], 50)
        out["server.cache_probe_us_p50"] = 1e3 * pct(
            [x["cache_probe_ms"] for x in resp], 50)
        front = pct([r["ms"] - r["resp"]["total_ms"] for r in served], 50)
        shits = counter(m, "server.cache_hits")
        smiss = counter(m, "server.cache_misses")
        out["server.cache_hit_rate"] = shits / (shits + smiss) if shits + smiss else 0.0
        out["server.cache_evictions_per_plan"] = (
            counter(m, "server.cache_evictions") / plans)
        if workload == "serve-cold":
            out["server.front_ms_p50"] = front
            out["proc.serve_cpu_s_per_plan"] = traced["procs"]["serve"]["cpu"] / plans
        else:
            out["dist.hop_ms_p50"] = front
            out["dist.hit_ms_p50"] = pct([r["ms"] for r in recs
                                          if r["req"].get("repeat")], 50)
            out["dist.island_ms_p50"] = pct([r["ms"] for r in recs
                                             if "islands" in r["req"]], 50)
            out["dist.rpcs_per_plan"] = counter(m, "dist.rpcs") / plans
            out["dist.gossip_sent_per_plan"] = counter(m, "dist.gossip_sent") / plans
            out["dist.retries"] = counter(m, "dist.retries")
            procs = traced["procs"]
            out["proc.router_cpu_s_per_plan"] = procs["router"]["cpu"] / plans
            out["proc.worker_cpu_s_per_plan"] = (
                procs["worker1"]["cpu"] + procs["worker2"]["cpu"]) / plans
            out["proc.router_rss_mb"] = procs["router"]["rss"]
            out["proc.worker_rss_mb"] = (procs["worker1"]["rss"]
                                         + procs["worker2"]["rss"])
    base_rate = end_to_end(base)["plans_per_s"]
    traced_rate = end_to_end(traced)["plans_per_s"]
    out["obs.trace_overhead_pct"] = 100.0 * (base_rate / traced_rate - 1.0)
    out["obs.journal_bytes_per_plan"] = sum(os.path.getsize(p)
                                            for p in journals) / plans
    out["obs.unattributed_pct"] = unattributed_pct(workload, traced, journals)
    return out


def run_micro(run_dir, workload_reqs):
    """perfbench_micro on the workloads' own request frames and GA shapes."""
    frames = os.path.join(run_dir, "frames.ndjson")
    with open(frames, "w") as f:
        for req in workload_reqs:
            f.write(json.dumps({k: v for k, v in req.items()
                                if k != "then_repeat"}) + "\n")
    out = subprocess.run([exe("perfbench_micro"), frames,
                          os.path.join(ROOT, GRID_FILES[0])],
                         capture_output=True, text=True, check=True, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])


# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise BenchError(f"signal {signum}")
    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    try:
        build()
        code = code_hash()
    except (BenchError, subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    signal.alarm(RUN_TIMEOUT_S)
    n = max(8, round(args.seconds * RATES[args.workload]))
    run_dir = os.path.join(TARGET, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    children = Children(run_dir)
    ok = False
    try:
        base = run_pass(args, n, children, SETUP_REPEATS)
        passes = [base]
        if args.trace:
            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            traced = run_pass(args, n, children, 1, trace_dir)
            passes.append(traced)
            journals = sorted(os.path.join(trace_dir, f)
                              for f in os.listdir(trace_dir))
            reqs = (route_mix_list(n, args.seed) if args.workload == "route-mix"
                    else serve_cold_list(n, args.seed))
            micro = run_micro(run_dir, reqs)
            metrics = per_layer(args.workload, base, traced, journals, micro)
            units = PER_LAYER
        else:
            metrics = end_to_end(base)
            units = END_TO_END
        ok = True
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"{args.workload}: {type(err).__name__}: {err}")
    finally:
        # Runs on every exit path, an unexpected exception's too; a second
        # signal must not cut the clean-up short.
        signal.alarm(0)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            children.kill_all()
        except BenchError as err:
            log(str(err))
            ok = False
    if not ok:
        return 1

    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["failed"])
    mismatches = sum(1 for p in passes for r in p["records"] if r.get("mismatch"))
    fp_ok = all(check_fingerprint(code, args.workload, n, work_fingerprint(p))
                for p in passes)
    log(f"{args.workload}: sent {attempted}, succeeded {attempted - failed}, "
        f"failed {failed} (plan-check mismatches {mismatches}); fingerprint "
        f"{work_fingerprint(base)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": failed == 0 and fp_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
