#!/usr/bin/env python3
"""End-to-end smoke for the distributed deployment: gaplan_router fronting
two gaplan_worker processes over localhost TCP.

Usage:
  scripts/check_dist.py --router BINARY --worker BINARY

Drives one distributed session:

  * a submit routed through the ring completes with a valid plan, and an
    identical resubmit answers "done" at admission (distributed cache tier),
  * the non-primary worker serves a direct cache_probe for the same
    fingerprint once gossip lands (workers are spawned peered both ways),
  * a submit carrying "islands" runs one GA sharded across both workers and
    merges to a valid plan,
  * SIGKILLing the worker that owns an in-flight request loses nothing: the
    router retries the idempotent submit on the survivor and the pending
    wait still completes (stats must show the retry and the mark-down),
  * a router with no backends refuses to start (dist lint gate, exit 2),
  * protocol errors answer in-band, and shutdown stops the router and the
    surviving worker cleanly (exit 0, so an instrumented build records
    their coverage).

Exit status: 0 when the whole session is clean, 1 otherwise.
"""
import argparse
import json
import signal
import socket
import subprocess
import sys
import time

SESSION_TIMEOUT_S = 170


def reserve_port():
    """Free localhost port: bind 0, read it back, close. The tiny race before
    the worker re-binds is acceptable — gossip peers must be known at spawn."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def spawn(argv, tag, errors):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    if "listening on" not in line:
        errors.append(f"{tag}: expected a listening banner, got {line!r}")
        proc.kill()
        return None, 0
    return proc, int(line.rsplit(":", 1)[1])


def rpc(port, obj, tag, errors, timeout=60.0):
    """One NDJSON frame over a fresh connection."""
    try:
        sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        sock.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
        sock.close()
        return json.loads(buf.decode())
    except (OSError, json.JSONDecodeError) as err:
        errors.append(f"{tag}: rpc failed: {err}")
        return None


def expect(resp, tag, errors, **fields):
    if resp is None:
        return None
    for key, want in fields.items():
        if resp.get(key) != want:
            errors.append(f"{tag}: expected {key}={want!r}, "
                          f"got {resp.get(key)!r}")
    return resp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--router", required=True)
    parser.add_argument("--worker", required=True)
    args = parser.parse_args()

    if hasattr(signal, "SIGALRM"):
        signal.alarm(SESSION_TIMEOUT_S)

    errors = []
    procs = []
    try:
        run(args, errors, procs)
    finally:
        for proc in procs:
            if proc and proc.poll() is None:
                proc.kill()

    for err in errors:
        print(f"check_dist: {err}", file=sys.stderr)
    if not errors:
        print("check_dist: OK — routing, cache tier, gossip parity, islands, "
              "failover, shutdown all clean")
    sys.exit(1 if errors else 0)


def run(args, errors, procs):
    # Lint gate: no backends is a startup error, not a silent empty ring.
    gate = subprocess.run([args.router, "--tcp", "0"], capture_output=True,
                          text=True)
    if gate.returncode != 2:
        errors.append(f"lint gate: backend-less router exited "
                      f"{gate.returncode}, want 2")
    if "dist.no-backends" not in gate.stderr:
        errors.append("lint gate: stderr does not name dist.no-backends")

    port1, port2 = reserve_port(), reserve_port()
    w1, _ = spawn([args.worker, "--tcp", str(port1), "--workers", "1",
                   "--cache", "32", "--peer", f"127.0.0.1:{port2}"],
                  "worker1", errors)
    w2, _ = spawn([args.worker, "--tcp", str(port2), "--workers", "1",
                   "--cache", "32", "--peer", f"127.0.0.1:{port1}"],
                  "worker2", errors)
    procs.extend([w1, w2])
    if w1 is None or w2 is None:
        return
    router, rport = spawn([args.router, "--tcp", "0",
                           "--backend", f"127.0.0.1:{port1}",
                           "--backend", f"127.0.0.1:{port2}"],
                          "router", errors)
    procs.append(router)
    if router is None:
        return

    expect(rpc(rport, {"cmd": "ping"}, "ping", errors), "ping", errors,
           ok=True, role="router")
    expect(rpc(rport, {"cmd": "bogus"}, "bad cmd", errors), "bad cmd",
           errors, ok=False)

    # Routed submit -> valid plan; identical resubmit answers from the
    # distributed cache tier at admission.
    req = {"cmd": "submit", "problem": "hanoi:4", "pop": 60, "gens": 60,
           "seed": 7}
    sub = expect(rpc(rport, req, "submit", errors), "submit", errors, ok=True)
    done = None
    if sub and isinstance(sub.get("id"), int):
        done = rpc(rport, {"cmd": "wait", "id": sub["id"],
                           "timeout_ms": 60000}, "wait", errors)
        expect(done, "wait", errors, ok=True, state="done", valid=True)
    rerun = expect(rpc(rport, req, "resubmit", errors), "resubmit", errors,
                   ok=True, state="done", cached=True)
    if rerun and done and rerun.get("plan") != done.get("plan"):
        errors.append(f"cached plan {rerun.get('plan')} differs from the "
                      f"original {done.get('plan')}")

    # Cross-worker parity: the NON-primary worker must serve a direct
    # cache_probe once the gossiped insert lands.
    route = expect(rpc(rport, dict(req, cmd="route"), "route", errors),
                   "route", errors, ok=True)
    if route and route.get("fp") and route.get("primary"):
        other = port2 if route["primary"].endswith(str(port1)) else port1
        for _ in range(100):
            probe = rpc(other, {"cmd": "cache_probe", "fp": route["fp"]},
                        "cross probe", errors)
            if probe and probe.get("hit"):
                break
            time.sleep(0.05)
        else:
            errors.append("cross probe: non-primary worker never served the "
                          "gossiped plan")

    # Cross-process island run sharded over both workers.
    isl = rpc(rport, {"cmd": "submit", "problem": "hanoi:4", "pop": 60,
                      "gens": 40, "seed": 3, "islands": 4, "interval": 5,
                      "migrants": 2}, "islands", errors, timeout=120)
    expect(isl, "islands", errors, ok=True, state="done", islands=4,
           workers=2, valid=True)

    # Failover: a long request lands on one worker; kill that worker while
    # it is planning. The router must replay the idempotent submit on the
    # survivor and the pending wait must still complete.
    sub = expect(rpc(rport, {"cmd": "submit", "problem": "tiles:4",
                             "pop": 200, "gens": 4000, "seed": 9},
                     "failover submit", errors),
                 "failover submit", errors, ok=True)
    if sub and isinstance(sub.get("id"), int):
        time.sleep(0.1)
        doomed = None
        for proc, port in ((w1, port1), (w2, port2)):
            stats = rpc(port, {"cmd": "stats"}, "worker stats", errors)
            if stats and stats.get("planning", 0) >= 1:
                doomed = proc
        if doomed is None:
            errors.append("failover: neither worker reported the request "
                          "mid-plan")
        else:
            doomed.send_signal(signal.SIGKILL)
            fin = rpc(rport, {"cmd": "wait", "id": sub["id"],
                              "timeout_ms": 120000}, "failover wait", errors,
                      timeout=130)
            expect(fin, "failover wait", errors, ok=True, state="done")
    stats = expect(rpc(rport, {"cmd": "stats"}, "router stats", errors),
                   "router stats", errors, ok=True)
    if stats:
        if not isinstance(stats.get("retries"), int) or stats["retries"] < 1:
            errors.append(f"router stats: expected >= 1 retry after the kill, "
                          f"got {stats.get('retries')!r}")
        if stats.get("backends_up") != 1:
            errors.append(f"router stats: expected 1 backend up after the "
                          f"kill, got {stats.get('backends_up')!r}")
        if not isinstance(stats.get("cache_hits_primary"), int) or \
                stats["cache_hits_primary"] < 1:
            errors.append("router stats: the resubmit never hit the "
                          "distributed cache tier")

    expect(rpc(rport, {"cmd": "shutdown"}, "shutdown", errors), "shutdown",
           errors, ok=True)
    wait_exit(router, "router", errors)
    # The surviving worker exits through its own shutdown verb too, so no
    # process but the deliberately killed one ends on a signal.
    for proc, port in ((w1, port1), (w2, port2)):
        if proc.poll() is None:
            expect(rpc(port, {"cmd": "shutdown"}, "worker shutdown", errors),
                   "worker shutdown", errors, ok=True)
            wait_exit(proc, "worker", errors)


def wait_exit(proc, tag, errors):
    try:
        rc = proc.wait(timeout=20)
        if rc != 0:
            errors.append(f"{tag} exited {rc} after shutdown")
    except subprocess.TimeoutExpired:
        errors.append(f"{tag} did not exit after shutdown")


if __name__ == "__main__":
    main()
