#!/usr/bin/env python3
"""Numeric command-line flags of gaplan_serve, gaplan_worker and gaplan_router
are parsed strictly.

Usage:
  scripts/check_cli_flags.py --serve BIN --worker BIN --router BIN

Checks that:

  * a malformed --workers/--queue/--cache/--cache-shards/--metrics-dump-ms
    value (negative, trailing junk) exits 2 with a message naming the flag,
    instead of running with a wrapped or truncated number,
  * --tcp accepts only an integer in [0, 65535], on all three binaries,
  * well-formed values still start the service,
  * gaplan_worker --config honours a .serve file's metrics-dump-path.

Exit status: 0 when every case holds, 1 otherwise.
"""
import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 30


def expect_bad_value(argv, flag, value, errors):
    tag = " ".join([os.path.basename(argv[0])] + argv[1:])
    try:
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=5)
    except subprocess.TimeoutExpired:
        errors.append(f"{tag}: still running after 5 s instead of exiting 2")
        return
    want = f"bad value '{value}' for {flag}"
    if proc.returncode != 2:
        errors.append(f"{tag}: expected exit 2, got {proc.returncode}")
    if want not in proc.stderr:
        errors.append(f"{tag}: stderr does not say {want!r}: "
                      f"{proc.stderr.strip()!r}")


def check_serve(serve, errors):
    for flag, value in [("--cache", "-5"), ("--queue", "-1"),
                        ("--workers", "2x"), ("--metrics-dump-ms", "-3"),
                        ("--tcp", "70000"), ("--tcp", "-1"),
                        ("--tcp", "12ab")]:
        expect_bad_value([serve, flag, value], flag, value, errors)
    proc = subprocess.run(
        [serve, "--workers", "2", "--queue", "8", "--cache", "4", "--tcp",
         "0"], input='{"cmd":"shutdown"}\n', capture_output=True, text=True,
        timeout=TIMEOUT_S)
    if proc.returncode != 0 or '"ok":true' not in proc.stdout:
        errors.append(f"gaplan_serve with valid flags: exit "
                      f"{proc.returncode}, stdout {proc.stdout.strip()!r}")


def check_worker(worker, errors):
    for flag, value in [("--cache", "-5"), ("--queue", "-1"),
                        ("--workers", "2x"), ("--cache-shards", "x"),
                        ("--tcp", "65536"), ("--tcp", "-1")]:
        argv = [worker, flag, value]
        if flag != "--tcp":
            argv += ["--tcp", "0"]
        expect_bad_value(argv, flag, value, errors)


def rpc(port, obj):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(json.dumps(obj) + "\n")
        stream.flush()
        return json.loads(stream.readline())


def check_worker_metrics_dump(worker, errors):
    with tempfile.TemporaryDirectory(prefix="gaplan_flags_") as tmp:
        dump = os.path.join(tmp, "worker.prom")
        config = os.path.join(tmp, "worker.serve")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(f"metrics-dump-path {dump}\nmetrics-dump-ms 20\n")
        proc = subprocess.Popen([worker, "--config", config, "--tcp", "0"],
                                stdout=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            if "listening on 127.0.0.1:" not in banner:
                errors.append(f"worker --config: no banner: {banner!r}")
                return
            port = int(banner.rsplit(":", 1)[1])
            deadline = time.monotonic() + TIMEOUT_S
            while not os.path.exists(dump) and time.monotonic() < deadline:
                time.sleep(0.02)
            if not os.path.exists(dump):
                errors.append("worker --config dropped the .serve file's "
                              "metrics-dump-path: no dump written")
            rpc(port, {"cmd": "shutdown"})
            if proc.wait(timeout=TIMEOUT_S) != 0:
                errors.append(f"worker --config: exit {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def check_router(router, errors):
    for value in ["abc", "70000", "-1"]:
        expect_bad_value([router, "--backend", "127.0.0.1:1", "--tcp", value],
                         "--tcp", value, errors)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True)
    parser.add_argument("--worker", required=True)
    parser.add_argument("--router", required=True)
    args = parser.parse_args()

    errors = []
    check_serve(args.serve, errors)
    check_worker(args.worker, errors)
    check_worker_metrics_dump(args.worker, errors)
    check_router(args.router, errors)

    for err in errors:
        print(f"check_cli_flags: {err}", file=sys.stderr)
    if not errors:
        print("check_cli_flags: OK — malformed numeric flags rejected by name")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
