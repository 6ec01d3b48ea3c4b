#!/usr/bin/env python3
"""planner_cli parses --builtin specs strictly.

Usage:
  scripts/check_planner_cli.py --exec PLANNER_CLI

Checks that a malformed, out-of-range or surplus --builtin field exits 2
with a diagnostic naming the field, before any planning starts, and that
well-formed specs of every kind still plan (exit 0 or 1).

Exit status: 0 when every case holds, 1 otherwise.
"""
import argparse
import subprocess
import sys

TIMEOUT_S = 60

# (spec, text the diagnostic must contain)
BAD_SPECS = [
    ("tiles:3x:7", "size is not an integer in 'tiles:3x:7'"),
    ("tiles:3:7:9", "too many fields in 'tiles:3:7:9'"),
    ("tiles:9", "size out of range"),
    ("hanoi:0", "disks out of range"),
    ("hanoi:5:x", "initial stake is not an integer"),
    ("hanoi:5:0:1:2", "too many fields"),
    ("sokoban:1:0", "too many fields"),
    ("cube:5x", "depth is not an integer in 'cube:5x'"),
    ("cube:5:-1", "seed is not an integer"),
    ("cube:5:7:1", "too many fields in 'cube:5:7:1'"),
    ("cube:5000", "depth out of range"),
    ("chess:1", "unknown built-in 'chess'"),
]

GOOD_SPECS = ["hanoi:3", "sokoban:0", "tiles:2:7", "cube:1:7"]

QUICK = ["--quiet", "--pop", "20", "--gens", "10", "--phases", "1"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exec", required=True, help="planner_cli binary")
    args = ap.parse_args()
    errors = []
    for spec, want in BAD_SPECS:
        proc = subprocess.run([args.exec, "--builtin", spec] + QUICK,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        if proc.returncode != 2:
            errors.append(f"{spec}: expected exit 2, got {proc.returncode}")
        if want not in proc.stderr:
            errors.append(f"{spec}: stderr does not say {want!r}: "
                          f"{proc.stderr.strip()!r}")
        if proc.stdout:
            errors.append(f"{spec}: planned anyway: {proc.stdout.strip()!r}")
    for spec in GOOD_SPECS:
        proc = subprocess.run([args.exec, "--builtin", spec] + QUICK,
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        if proc.returncode not in (0, 1) or "PLAN" not in proc.stdout:
            errors.append(f"{spec}: exit {proc.returncode}, stdout "
                          f"{proc.stdout.strip()!r}, stderr "
                          f"{proc.stderr.strip()!r}")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    if not errors:
        print(f"ok: {len(BAD_SPECS)} malformed specs rejected, "
              f"{len(GOOD_SPECS)} well-formed specs planned")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
