#!/usr/bin/env python3
"""Offline analyzer for gaplan run journals (obs v2 span trees).

Reconstructs per-request timelines from a gaplan-serve journal — every
request is one trace rooted at its "server" complete span, with queue_wait /
cache_probe / slice children and phase/generation spans beneath the slices —
and reports where each request's wall-clock went:

  admit     config tuning, lint and fingerprint before the first cache
            probe (admit span)
  queue     admission wait (queue_wait segment 0)
  preempt   yield-preemption waits (queue_wait segments >= 1)
  setup     building the request's planning job (job_setup span)
  ga        worker slices actually planning (slice spans)
  publish   result, cache insert and cache listener after the last slice
            (publish span)
  cache     cache probe latency (cache_probe spans)
  other     unattributed remainder (lock waits, bookkeeping)

Standalone GA journals (run_multiphase, the replanner) are summarized too:
every parentless run/replan/grid_execute/islands span becomes a "runs" entry
with per-phase convergence telemetry (generations, first/last best fitness,
evaluation time) from its generation spans.

Usage:
  scripts/analyze_trace.py journal.jsonl [--json OUT] [--check]
  scripts/analyze_trace.py --serve BIN [ARG ...] [--json OUT] [--check]

--serve runs a canned NDJSON session through the gaplan_serve binary with
GAPLAN_TRACE pointing at a temporary journal, then analyzes that journal
(the trace_analyze_smoke ctest drives this mode).

--check additionally asserts that span sums reproduce each completed
request's end-to-end latency within --tolerance (default 5%, with an
--abs-ms floor for cache-hit requests that finish in microseconds), and
exits 1 on any violation.

The --json report is stable, machine-readable output; bench_serve writes a
matching "attribution" block in BENCH_serve.json so harnesses can diff the
service's own histogram view against the journal's span-tree view.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

SPAN_ROOTS = ("run", "replan", "grid_execute", "islands")

# Canned session for --serve: three fresh requests (one multi-phase, one
# prioritized), a duplicate that must hit the plan cache, and telemetry verbs.
SERVE_SESSION = [
    {"cmd": "submit", "problem": "hanoi:3", "gens": 30, "pop": 40, "seed": 1},
    {"cmd": "submit", "problem": "hanoi:3", "gens": 30, "pop": 40, "seed": 2,
     "priority": 1},
    {"cmd": "submit", "problem": "hanoi:4", "gens": 40, "pop": 60, "seed": 3,
     "phases": 3},
    {"cmd": "wait", "id": 1},
    {"cmd": "wait", "id": 2},
    {"cmd": "wait", "id": 3},
    {"cmd": "submit", "problem": "hanoi:3", "gens": 30, "pop": 40, "seed": 1},
    {"cmd": "wait", "id": 4},
    {"cmd": "trace", "id": 4},
    {"cmd": "metrics", "format": "prometheus"},
    {"cmd": "stats"},
    {"cmd": "shutdown"},
]


def parse_segments(path):
    """Splits the journal at trace_start markers (process restarts reset the
    trace id counters) and returns a list of event lists."""
    segments = [[]]
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"analyze_trace: line {line_no}: bad JSON ({err})")
            if event.get("ev") == "trace_start" and segments[-1]:
                segments.append([])
                continue
            event["_line"] = line_no
            segments[-1].append(event)
    return [seg for seg in segments if seg]


class Tree:
    """Span trees of one journal segment, indexed per trace."""

    def __init__(self, events):
        self.spans = {}     # (trace, span) -> event
        self.children = {}  # (trace, span) -> [child events]
        self.events = events
        for ev in events:
            trace, span = ev.get("trace"), ev.get("span")
            if trace is None or span is None:
                continue
            self.spans[(trace, span)] = ev
        for ev in events:
            trace, parent = ev.get("trace"), ev.get("parent")
            if trace is None or parent is None or ev.get("span") is None:
                continue  # annotations don't contribute timeline intervals
            self.children.setdefault((trace, parent), []).append(ev)

    def kids(self, trace, span, ev_name=None):
        out = self.children.get((trace, span), [])
        if ev_name is not None:
            out = [e for e in out if e.get("ev") == ev_name]
        return sorted(out, key=lambda e: e.get("ts_ms", 0.0))


def phase_summary(tree, trace, phase_ev):
    """Convergence telemetry of one phase span from its generation children."""
    gens = tree.kids(trace, phase_ev["span"], "generation")
    out = {
        "generations": phase_ev.get("generations", len(gens)),
        "found_valid": phase_ev.get("found_valid"),
        "best_goal_fit": phase_ev.get("best_goal_fit"),
        "best_fitness": phase_ev.get("best_fitness"),
        "dur_ms": phase_ev.get("dur_ms", 0.0),
        "eval_ms": round(sum(g.get("dur_ms", 0.0) for g in gens), 3),
    }
    if gens:
        out["first_gen_best_fitness"] = gens[0].get("best_fitness")
        out["last_gen_best_fitness"] = gens[-1].get("best_fitness")
        out["first_gen_best_goal_fit"] = gens[0].get("best_goal_fit")
        out["last_gen_best_goal_fit"] = gens[-1].get("best_goal_fit")
    return out


def descendant_phases(tree, trace, span):
    """All phase spans beneath `span`, in emission order (slices and runs
    both parent phases, possibly through intermediate spans)."""
    phases, stack = [], [span]
    while stack:
        node = stack.pop()
        for child in tree.kids(trace, node):
            if child.get("ev") == "phase":
                phases.append(child)
            stack.append(child["span"])
    return sorted(phases, key=lambda e: e.get("ts_ms", 0.0))


def analyze_request(tree, complete):
    """Timeline + latency attribution for one served request's trace."""
    trace, root = complete["trace"], complete["span"]
    total = complete.get("dur_ms", 0.0)
    waits = tree.kids(trace, root, "queue_wait")
    slices = tree.kids(trace, root, "slice")
    probes = tree.kids(trace, root, "cache_probe")

    def span_ms(name):
        return sum(e.get("dur_ms", 0.0) for e in tree.kids(trace, root, name))

    queue_ms = sum(w.get("dur_ms", 0.0) for w in waits if w.get("seg", 0) == 0)
    preempt_ms = sum(w.get("dur_ms", 0.0) for w in waits if w.get("seg", 0) > 0)
    ga_ms = sum(s.get("dur_ms", 0.0) for s in slices)
    cache_ms = sum(p.get("dur_ms", 0.0) for p in probes)
    admit_ms = span_ms("admit")
    setup_ms = span_ms("job_setup")
    publish_ms = span_ms("publish")
    accounted = (admit_ms + queue_ms + preempt_ms + setup_ms + ga_ms +
                 publish_ms + cache_ms)

    req = {
        "req": complete.get("req"),
        "trace": trace,
        "state": complete.get("state"),
        "cached": complete.get("cached"),
        "valid": complete.get("valid"),
        "yields": complete.get("yields"),
        "total_ms": round(total, 3),
        "breakdown": {
            "admit_ms": round(admit_ms, 3),
            "queue_ms": round(queue_ms, 3),
            "preempt_ms": round(preempt_ms, 3),
            "setup_ms": round(setup_ms, 3),
            "ga_ms": round(ga_ms, 3),
            "publish_ms": round(publish_ms, 3),
            "cache_ms": round(cache_ms, 3),
            "other_ms": round(total - accounted, 3),
        },
        "accounted_ms": round(accounted, 3),
        "slices": [
            {
                "slice": s.get("slice"),
                "phases": s.get("phases"),
                "dur_ms": s.get("dur_ms", 0.0),
            }
            for s in slices
        ],
        "phases": [
            phase_summary(tree, trace, p)
            for p in descendant_phases(tree, trace, root)
        ],
    }
    return req


def analyze(path):
    segments = parse_segments(path)
    requests, runs = [], []
    for events in segments:
        tree = Tree(events)
        for ev in events:
            if (ev.get("ev") == "server" and ev.get("op") == "complete"
                    and ev.get("trace") is not None
                    and ev.get("span") is not None):
                requests.append(analyze_request(tree, ev))
            elif (ev.get("ev") in SPAN_ROOTS and ev.get("trace") is not None
                  and ev.get("span") is not None and ev.get("parent") is None):
                runs.append({
                    "ev": ev["ev"],
                    "trace": ev["trace"],
                    "dur_ms": ev.get("dur_ms", 0.0),
                    # The island model interleaves generations with no phase
                    # layer, so count generations across the whole trace too.
                    "generations": sum(
                        1 for e in events
                        if e.get("ev") == "generation"
                        and e.get("trace") == ev["trace"]
                    ),
                    "phases": [
                        phase_summary(tree, ev["trace"], p)
                        for p in descendant_phases(tree, ev["trace"], ev["span"])
                    ],
                })

    agg = {
        "count": len(requests),
        "done": sum(1 for r in requests if r["state"] == "done"),
        "cached": sum(1 for r in requests if r["cached"]),
        "yields": sum(r["yields"] or 0 for r in requests),
    }
    for key in ("admit_ms", "queue_ms", "preempt_ms", "setup_ms", "ga_ms",
                "publish_ms", "cache_ms", "other_ms"):
        agg[key] = round(sum(r["breakdown"][key] for r in requests), 3)
    agg["total_ms"] = round(sum(r["total_ms"] for r in requests), 3)

    return {
        "journal": os.path.abspath(path),
        "segments": len(segments),
        "requests": requests,
        "aggregate": agg,
        "runs": runs,
    }


def check_report(report, tolerance, abs_ms):
    """Latency-reproduction check: for every completed request, the span sums
    must account for the end-to-end latency within `tolerance` (relative) or
    `abs_ms` (absolute, for cache hits measured in microseconds). Over-
    accounting beyond the same bound is equally a bug (spans overlap)."""
    violations = []
    for r in report["requests"]:
        if r["state"] != "done":
            continue  # cancelled/timed-out trees are legitimately partial
        total, accounted = r["total_ms"], r["accounted_ms"]
        slack = max(total * tolerance, abs_ms)
        if abs(total - accounted) > slack:
            violations.append(
                f"req {r['req']} (trace {r['trace']}): spans account for "
                f"{accounted:.3f}ms of {total:.3f}ms end-to-end "
                f"(slack {slack:.3f}ms)"
            )
        if not r["cached"] and not r["phases"]:
            violations.append(
                f"req {r['req']} (trace {r['trace']}): planned request has "
                f"no phase spans"
            )
    if report["aggregate"]["count"] == 0 and not report["runs"]:
        violations.append("journal contains no request or run span trees")
    return violations


def run_serve_session(argv):
    """Drives the canned session through a gaplan_serve binary with tracing
    on; returns the journal path (inside `tmpdir`) once the server exits."""
    tmpdir = tempfile.mkdtemp(prefix="gaplan_analyze_")
    journal = os.path.join(tmpdir, "journal.jsonl")
    env = dict(os.environ, GAPLAN_TRACE=journal)
    stdin = "".join(json.dumps(line) + "\n" for line in SERVE_SESSION)
    proc = subprocess.run(argv, env=env, input=stdin, text=True,
                          capture_output=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"analyze_trace: server exited {proc.returncode}")
    responses = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    if len(responses) != len(SERVE_SESSION):
        raise SystemExit(
            f"analyze_trace: {len(responses)} responses to "
            f"{len(SERVE_SESSION)} commands"
        )
    for i, resp in enumerate(responses):
        if not resp.get("ok"):
            raise SystemExit(f"analyze_trace: command {i + 1} failed: {resp}")
    return journal


def render_text(report):
    lines = [f"analyze_trace: {report['journal']}"]
    agg = report["aggregate"]
    if agg["count"]:
        lines.append(
            f"  {agg['count']} requests ({agg['done']} done, "
            f"{agg['cached']} cached, {agg['yields']} yields), "
            f"{agg['total_ms']:.1f}ms total"
        )
        lines.append(
            f"  breakdown: admit {agg['admit_ms']:.3f}ms | queue "
            f"{agg['queue_ms']:.1f}ms | preempt {agg['preempt_ms']:.1f}ms | "
            f"setup {agg['setup_ms']:.3f}ms | ga {agg['ga_ms']:.1f}ms | "
            f"publish {agg['publish_ms']:.3f}ms | cache "
            f"{agg['cache_ms']:.3f}ms | other {agg['other_ms']:.3f}ms"
        )
    for r in report["requests"]:
        b = r["breakdown"]
        tag = " cached" if r["cached"] else ""
        lines.append(
            f"  req {r['req']:>3} {r['state']:>9}{tag}: {r['total_ms']:8.2f}ms"
            f" = admit {b['admit_ms']:.3f} + queue {b['queue_ms']:.2f}"
            f" + preempt {b['preempt_ms']:.2f} + setup {b['setup_ms']:.3f}"
            f" + ga {b['ga_ms']:.2f} + publish {b['publish_ms']:.3f}"
            f" + cache {b['cache_ms']:.3f} + other {b['other_ms']:.3f}"
            f"  ({len(r['phases'])} phases)"
        )
    for run in report["runs"]:
        lines.append(
            f"  {run['ev']} trace {run['trace']}: {run['dur_ms']:.2f}ms, "
            f"{len(run['phases'])} phases, {run['generations']} generations"
        )
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("journal", nargs="?", help="journal file to analyze")
    parser.add_argument("--serve", nargs="+", metavar="ARG",
                        help="gaplan_serve command to drive with the canned "
                             "session, tracing into a temporary journal")
    parser.add_argument("--json", metavar="OUT",
                        help="write the JSON report here ('-' for stdout)")
    parser.add_argument("--check", action="store_true",
                        help="verify span sums reproduce request latency")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative latency-reproduction slack (default 5%%)")
    parser.add_argument("--abs-ms", type=float, default=1.0,
                        help="absolute slack floor in ms (default 1.0)")
    args = parser.parse_args()

    if bool(args.journal) == bool(args.serve):
        parser.error("pass exactly one of: a journal path, or --serve")

    journal = args.journal or run_serve_session(args.serve)
    report = analyze(journal)

    violations = check_report(report, args.tolerance, args.abs_ms) \
        if args.check else []
    report["check"] = {"ok": not violations, "violations": violations}

    if args.json == "-":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as out:
                json.dump(report, out, indent=2)
                out.write("\n")
        print(render_text(report))

    for v in violations:
        print(f"analyze_trace: CHECK FAILED: {v}", file=sys.stderr)
    sys.exit(1 if violations else 0)


if __name__ == "__main__":
    main()
