#!/usr/bin/env python3
"""End-to-end smoke for the gaplan_serve NDJSON front end.

Usage:
  scripts/check_serve.py --exec BINARY [ARGS ...]

Drives one protocol session against the binary (stdin/stdout pipes) acting as
two interleaved clients with concurrently outstanding requests:

  * alice submits a deep Hanoi problem, bob a shallow one; bob's answer comes
    back first and both plans are valid,
  * resubmitting bob's exact request answers "done" at admission (plan cache),
    bit-identical to the first plan,
  * a long multiphase request is cancelled mid-flight and lands terminal,
  * malformed lines and unknown commands produce ok:false errors, not exits,
  * stats reports the cache hit and the completions, shutdown drains cleanly.

The session runs with GAPLAN_TRACE pointing at a temporary journal, which is
then validated through check_trace.py (required ev: server) plus an op-coverage
check (submit, complete, cancel, and shutdown must all appear).

A second process runs with --tcp PORT and is driven over the socket:

  * a submit/wait session,
  * clients that pipeline metrics frames and reset the connection (SO_LINGER
    0) before reading the answers; the server must survive writing into the
    dead socket and still answer stats, then shut down cleanly.

Exit status: 0 when the session and the journal are clean, 1 otherwise.
"""
import argparse
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time

import check_trace

SESSION_TIMEOUT_S = 100


class Session:
    """One NDJSON conversation: send a line, read the paired response."""

    def __init__(self, proc):
        self.proc = proc
        self.errors = []

    def rpc(self, obj, tag):
        line = json.dumps(obj) if isinstance(obj, dict) else obj
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        if not raw:
            self.errors.append(f"{tag}: server closed stdout mid-session")
            return None
        try:
            resp = json.loads(raw)
        except json.JSONDecodeError as err:
            self.errors.append(f"{tag}: response is not JSON ({err}): {raw!r}")
            return None
        return resp

    def expect(self, resp, tag, **fields):
        if resp is None:
            return None
        for key, want in fields.items():
            got = resp.get(key)
            if got != want:
                self.errors.append(f"{tag}: expected {key}={want!r}, got {got!r}")
        return resp


def run_session(argv, journal):
    env = dict(os.environ, GAPLAN_TRACE=journal)
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    s = Session(proc)

    # Two clients with concurrently outstanding work: alice's request is much
    # deeper than bob's, so bob overtakes her in wall time even though he
    # submitted second.
    alice = s.expect(
        s.rpc({"cmd": "submit", "problem": "hanoi:6", "pop": 60, "gens": 40,
               "phases": 40, "seed": 5, "client": "alice"}, "alice submit"),
        "alice submit", ok=True, id=1)
    bob_req = {"cmd": "submit", "problem": "hanoi:3", "pop": 60, "gens": 30,
               "phases": 10, "seed": 2, "client": "bob"}
    bob = s.expect(s.rpc(bob_req, "bob submit"), "bob submit", ok=True, id=2)

    bob_done = s.rpc({"cmd": "wait", "id": 2}, "bob wait")
    s.expect(bob_done, "bob wait", ok=True, state="done", valid=True)
    alice_done = s.rpc({"cmd": "wait", "id": 1}, "alice wait")
    s.expect(alice_done, "alice wait", ok=True, state="done", valid=True)

    # Bob resubmits the identical request: answered at admission, and the
    # cached plan is bit-identical to the one he already holds.
    rerun = s.rpc(bob_req, "bob resubmit")
    s.expect(rerun, "bob resubmit", ok=True, state="done")
    if rerun and isinstance(rerun.get("id"), int):
        cached = s.rpc({"cmd": "poll", "id": rerun["id"]}, "bob cached poll")
        s.expect(cached, "bob cached poll", ok=True, state="done", cached=True)
        if cached and bob_done and cached.get("plan") != bob_done.get("plan"):
            s.errors.append(
                f"cached plan {cached.get('plan')} differs from the original "
                f"{bob_done.get('plan')}")

    # Cancel a long request mid-flight; it must land in a terminal state.
    long_req = {"cmd": "submit", "problem": "hanoi:7", "pop": 40, "gens": 3,
                "phases": 100000, "seed": 9, "client": "alice"}
    long_sub = s.expect(s.rpc(long_req, "long submit"), "long submit", ok=True)
    if long_sub and isinstance(long_sub.get("id"), int):
        long_id = long_sub["id"]
        s.expect(s.rpc({"cmd": "cancel", "id": long_id}, "cancel"),
                 "cancel", ok=True, cancelled=True)
        final = s.rpc({"cmd": "wait", "id": long_id, "timeout_ms": 30000},
                      "cancelled wait")
        if final and final.get("state") not in ("cancelled", "done"):
            s.errors.append(f"cancelled request ended in {final.get('state')!r}")

    # Protocol errors answer in-band; the session survives them.
    s.expect(s.rpc("this is not json", "bad line"), "bad line", ok=False)
    s.expect(s.rpc({"cmd": "bogus"}, "bad cmd"), "bad cmd", ok=False)
    s.expect(s.rpc({"cmd": "submit", "problem": "nonsense:1"}, "bad spec"),
             "bad spec", ok=False)

    stats = s.rpc({"cmd": "stats"}, "stats")
    s.expect(stats, "stats", ok=True)
    if stats:
        if not isinstance(stats.get("cache_hits"), int) or stats["cache_hits"] < 1:
            s.errors.append(f"stats: expected >= 1 cache hit, got "
                            f"{stats.get('cache_hits')!r}")
        if not isinstance(stats.get("completed"), int) or stats["completed"] < 3:
            s.errors.append(f"stats: expected >= 3 completions, got "
                            f"{stats.get('completed')!r}")

    s.expect(s.rpc({"cmd": "shutdown"}, "shutdown"), "shutdown",
             ok=True, state="shutting-down")

    proc.stdin.close()
    rc = proc.wait()
    if rc != 0:
        s.errors.append(f"gaplan_serve exited {rc}")
    if alice is None or bob is None:
        s.errors.append("initial submissions failed; session incomplete")
    return s.errors


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_tcp_server(argv):
    """gaplan_serve --tcp on a free port; retries when the port was taken."""
    for _ in range(8):
        port = free_port()
        proc = subprocess.Popen(argv + ["--tcp", str(port)],
                                stdin=subprocess.PIPE,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        banner = proc.stderr.readline().strip()
        if banner == f"gaplan_serve: listening on 127.0.0.1:{port}":
            return proc, port
        proc.kill()
        proc.wait()
    return None, None


class TcpSession(Session):
    """The same conversation over one TCP connection."""

    def __init__(self, port):
        super().__init__(None)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, obj, tag):
        try:
            self.stream.write(json.dumps(obj) + "\n")
            self.stream.flush()
            raw = self.stream.readline()
        except OSError as err:
            self.errors.append(f"{tag}: socket error: {err}")
            return None
        if not raw:
            self.errors.append(f"{tag}: server closed the connection")
            return None
        return json.loads(raw)

    def close(self):
        self.stream.close()
        self.sock.close()


def reset_after_pipelining(port, frames=50):
    """Pipelines `frames` metrics requests and resets without reading."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b'{"cmd":"metrics"}\n' * frames)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))


def run_tcp_session(argv):
    proc, port = start_tcp_server(argv)
    if proc is None:
        return ["tcp: gaplan_serve could not listen on any port"]
    errors = []
    try:
        s = TcpSession(port)
        sub = s.expect(
            s.rpc({"cmd": "submit", "problem": "hanoi:3", "pop": 60,
                   "gens": 30, "phases": 10, "seed": 2}, "tcp submit"),
            "tcp submit", ok=True, id=1)
        if sub:
            s.expect(s.rpc({"cmd": "wait", "id": 1}, "tcp wait"), "tcp wait",
                     ok=True, state="done", valid=True)
        s.close()
        errors.extend(s.errors)

        for _ in range(3):
            reset_after_pipelining(port)
        time.sleep(0.5)  # let the server write into the reset sockets
        if proc.poll() is not None:
            errors.append(f"tcp: gaplan_serve died (exit {proc.returncode}) "
                          "after a client reset mid-response")
            return errors
        s = TcpSession(port)
        s.expect(s.rpc({"cmd": "stats"}, "tcp stats after reset"),
                 "tcp stats after reset", ok=True)
        s.expect(s.rpc({"cmd": "shutdown"}, "tcp shutdown"), "tcp shutdown",
                 ok=True, state="shutting-down")
        s.close()
        errors.extend(s.errors)
    except OSError as err:
        errors.append(f"tcp: {err}")
    finally:
        proc.stdin.close()  # the stdin loop ends at EOF
        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
    if rc != 0:
        errors.append(f"tcp: gaplan_serve exited {rc}")
    return errors


def check_journal(journal):
    errors = check_trace.validate(journal, ["server"])
    ops = set()
    try:
        with open(journal, encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # check_trace already reported it
                if isinstance(event, dict) and event.get("ev") == "server":
                    ops.add(event.get("op"))
    except OSError as err:
        errors.append(f"cannot re-read journal: {err}")
    for op in ("submit", "complete", "cancel", "shutdown"):
        if op not in ops:
            errors.append(f"journal has no server op '{op}'")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--exec",
        dest="exec_argv",
        nargs=argparse.REMAINDER,
        required=True,
        metavar="ARG",
        help="gaplan_serve binary (plus arguments) to drive; everything after "
             "--exec is the command line",
    )
    args = parser.parse_args()
    if not args.exec_argv:
        parser.error("--exec needs a command")

    if hasattr(signal, "SIGALRM"):  # hard stop if the server wedges
        signal.alarm(SESSION_TIMEOUT_S)

    with tempfile.TemporaryDirectory(prefix="gaplan_serve_") as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        errors = run_session(args.exec_argv, journal)
        errors.extend(check_journal(journal))
    errors.extend(run_tcp_session(args.exec_argv))

    for err in errors:
        print(f"check_serve: {err}", file=sys.stderr)
    if not errors:
        print("check_serve: OK — session, cache hit, cancel, journal, and TCP "
              "leg clean")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
