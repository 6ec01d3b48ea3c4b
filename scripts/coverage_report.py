#!/usr/bin/env python3
"""Aggregate gcov coverage of an instrumented build (scripts/coverage.sh).

Usage:
  scripts/coverage_report.py --build DIR --root SRC [--allow FILE] [--json OUT]

Runs `gcov --json-format --stdout` on every .gcda file under DIR and merges
the per-translation-unit records of the sources under SRC/src and
SRC/examples:

  * a line counts as executable when any translation unit compiled code for
    it, and as run when any of them ran it (headers are compiled into many);
  * a function definition is one source position (file, line, column); it
    ran when any instantiation of it ran (templates, inline copies).

Prints line and function coverage per module (a src/ directory or an
examples/ program), then every definition that never ran. The allow-list
holds one `path | demangled name | reason` entry per line (`#` comments);
listed definitions are reported but tolerated.

Exit status: 0 when every never-run definition is allow-listed, 1 otherwise.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

# Compiler-generated per-TU initialisers: they run at load time but are not
# definitions anyone wrote.
GENERATED_PREFIXES = ("_GLOBAL__", "__static_initialization_and_destruction")


def gcov_json(gcda):
    """gcov's JSON document for one .gcda file (None when gcov fails)."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", os.path.basename(gcda)],
        cwd=os.path.dirname(gcda), capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout)


def module_of(rel):
    parts = rel.split("/")
    if parts[0] == "src" and len(parts) > 2:
        return "src/" + parts[1]
    return rel  # a top-level src/ file or an examples/ program


def collect(build, root):
    gcdas = []
    for dirpath, _, files in os.walk(build):
        gcdas += [os.path.join(dirpath, f) for f in files
                  if f.endswith(".gcda")]
    if not gcdas:
        sys.exit(f"coverage_report: no .gcda files under {build}")
    roots = [os.path.join(root, "src") + os.sep,
             os.path.join(root, "examples") + os.sep]
    lines = {}  # rel -> {line: ran}
    funcs = {}  # (rel, line, column) -> [demangled name, ran]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for doc in pool.map(gcov_json, gcdas):
            if doc is None:
                continue
            cwd = doc.get("current_working_directory", "")
            for rec in doc["files"]:
                path = os.path.realpath(os.path.join(cwd, rec["file"]))
                if not any(path.startswith(r) for r in roots):
                    continue
                rel = os.path.relpath(path, root)
                seen = lines.setdefault(rel, {})
                for ln in rec["lines"]:
                    n = ln["line_number"]
                    seen[n] = seen.get(n, False) or ln["count"] > 0
                for fn in rec["functions"]:
                    if fn["name"].startswith(GENERATED_PREFIXES):
                        continue
                    key = (rel, fn["start_line"], fn["start_column"])
                    entry = funcs.setdefault(key, [fn["demangled_name"], False])
                    entry[1] = entry[1] or fn["execution_count"] > 0
    return lines, funcs


def read_allow(path):
    allow = {}
    if not path or not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as handle:
        for no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(" | ")]
            if len(parts) < 3 or not parts[-1]:
                sys.exit(f"{path}:{no}: want 'path | name | reason'")
            allow[(parts[0], " | ".join(parts[1:-1]))] = parts[-1]
    return allow


def pct(hit, total):
    return 100.0 * hit / total if total else 100.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--allow")
    parser.add_argument("--json", help="also write the numbers here")
    args = parser.parse_args()
    root = os.path.realpath(args.root)
    lines, funcs = collect(os.path.realpath(args.build), root)

    modules = {}
    for rel, seen in lines.items():
        m = modules.setdefault(module_of(rel), [0, 0, 0, 0])
        m[0] += sum(seen.values())
        m[1] += len(seen)
    for (rel, _, _), (_, ran) in funcs.items():
        m = modules.setdefault(module_of(rel), [0, 0, 0, 0])
        m[2] += ran
        m[3] += 1

    print(f"{'module':34} {'lines':>15} {'functions':>15}")
    for name in sorted(modules):
        lh, lt, fh, ft = modules[name]
        print(f"{name:34} {lh:6}/{lt:<6} {pct(lh, lt):5.1f}% "
              f"{fh:5}/{ft:<5} {pct(fh, ft):5.1f}%")
    lh = sum(m[0] for m in modules.values())
    lt = sum(m[1] for m in modules.values())
    fh = sum(m[2] for m in modules.values())
    ft = sum(m[3] for m in modules.values())
    print(f"{'total':34} {lh:6}/{lt:<6} {pct(lh, lt):5.1f}% "
          f"{fh:5}/{ft:<5} {pct(fh, ft):5.1f}%")

    allow = read_allow(args.allow)
    never = sorted((rel, line, name)
                   for (rel, line, _), (name, ran) in funcs.items() if not ran)
    unlisted = [(r, l, n) for r, l, n in never if (r, n) not in allow]
    never_keys = {(r, n) for r, _, n in never}
    print(f"\nnever-run definitions: {len(never)} "
          f"({len(never) - len(unlisted)} allow-listed)")
    for rel, line, name in never:
        reason = allow.get((rel, name))
        tag = f"allowed: {reason}" if reason else "NOT ALLOW-LISTED"
        print(f"  {rel}:{line}  {name}  [{tag}]")
    for rel, name in sorted(set(allow) - never_keys):
        print(f"  stale allow-list entry (it ran, or is gone): {rel} | {name}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"lines": [lh, lt], "functions": [fh, ft],
                       "modules": modules,
                       "never_run": [f"{r}:{l} {n}" for r, l, n in never]},
                      handle, indent=1)
    if unlisted:
        print(f"\ncoverage_report: {len(unlisted)} never-run definition(s) "
              "are neither tested nor allow-listed", file=sys.stderr)
    sys.exit(1 if unlisted else 0)


if __name__ == "__main__":
    main()
