#!/usr/bin/env python3
"""Regenerates one committed paper CSV and requires it byte-identical.

Usage:
  scripts/check_paper_csv.py --exec BINARY --expect path/to/committed.csv

The bench binary runs at its default protocol in a temporary working
directory with GAPLAN_CSV_DIR pointing there; the environment knobs that
resize or redirect a bench (GAPLAN_PAPER_SCALE, GAPLAN_RUNS, GAPLAN_GENS,
GAPLAN_POP, GAPLAN_SEED, GAPLAN_METRICS, GAPLAN_TRACE) are cleared first. The CSV it
writes under the committed file's name is then compared byte for byte with
the committed file; on a mismatch the first differing line is printed.

Only CSVs without wall-time columns regenerate exactly, and only from a
portable build (no -march=native: FMA contraction changes floating-point
results). Exit status: 0 when identical, 1 otherwise.
"""
import argparse
import os
import subprocess
import sys
import tempfile

CLEARED = ("GAPLAN_PAPER_SCALE", "GAPLAN_RUNS", "GAPLAN_GENS", "GAPLAN_POP",
           "GAPLAN_SEED", "GAPLAN_METRICS", "GAPLAN_TRACE")


def first_difference(want, got):
    a = want.splitlines()
    b = got.splitlines()
    for i in range(max(len(a), len(b))):
        la = a[i] if i < len(a) else "<end>"
        lb = b[i] if i < len(b) else "<end>"
        if la != lb:
            return f"line {i + 1}\n  committed:   {la}\n  regenerated: {lb}"
    return "line endings or trailing bytes differ"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exec", dest="binary", required=True)
    ap.add_argument("--expect", required=True)
    args = ap.parse_args()

    name = os.path.basename(args.expect)
    with open(args.expect, "rb") as f:
        want = f.read()
    env = {k: v for k, v in os.environ.items() if k not in CLEARED}
    with tempfile.TemporaryDirectory() as tmp:
        env["GAPLAN_CSV_DIR"] = tmp
        proc = subprocess.run([args.binary], cwd=tmp, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            print(f"check_paper_csv: {args.binary} exited "
                  f"{proc.returncode}")
            return 1
        path = os.path.join(tmp, name)
        if not os.path.exists(path):
            print(f"check_paper_csv: {args.binary} wrote no {name}")
            return 1
        with open(path, "rb") as f:
            got = f.read()
    if got != want:
        print(f"check_paper_csv: {name} differs from the committed file at "
              + first_difference(want.decode(errors="replace"),
                                 got.decode(errors="replace")))
        return 1
    print(f"check_paper_csv: {name} identical ({len(want)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
