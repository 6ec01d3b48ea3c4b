#!/usr/bin/env python3
"""Validates a gaplan run journal (JSONL trace, see docs/API.md).

Usage:
  scripts/check_trace.py journal.jsonl [--require EV ...]
  scripts/check_trace.py --exec BINARY [ARGS ...] [--require EV ...]

With --exec, the binary is run with GAPLAN_TRACE pointing at a temporary
journal, which is then validated. Every line must be a JSON object carrying
ts_ms (non-negative, non-decreasing per thread), ev, and tid; --require
asserts that at least one event of each named type is present. Span events
must carry a non-negative dur_ms.

Planning-service events (ev == "server", emitted by serve::PlanService) must
carry a known op; lifecycle ops reference a positive request id, rejections a
reason, and "complete" a terminal state plus non-negative queue/plan/total
timings.

Span-tree checks (obs v2): events carrying a "trace" id form per-trace span
trees. Every "parent" must resolve to a span id defined within the same
trace (and the same trace_start segment — trace ids restart with the
process), every child span's [ts - dur, ts] interval must nest inside its
parent's, and every admitted service request (a "server" submit event with a
trace) must terminate in exactly one terminal-state "complete" event.

Exit status: 0 on a valid journal, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

SPAN_EVENTS = {"run", "phase", "replan", "grid_execute", "islands", "island",
               "slice", "queue_wait", "cache_probe", "admit", "job_setup",
               "publish"}

# ts_ms prints with microsecond precision and dur_ms with 6 significant
# digits, so parent/child bounds computed from independently rounded numbers
# can disagree by a hair; anything past this is a real nesting violation.
NEST_EPS_MS = 0.1

LINT_SEVERITIES = {"error", "warning", "info"}

SERVER_OPS = {"submit", "reject", "yield", "complete", "cancel", "drain",
              "shutdown"}

SERVER_TERMINAL_STATES = {"done", "failed", "timed-out", "cancelled",
                          "rejected"}


def check_lint_event(event, i, errors):
    """Static-analysis findings (ev == "lint") must carry a stable dotted
    code, a known severity, a message, and the emitting context."""
    code = event.get("code")
    if not isinstance(code, str) or "." not in code:
        errors.append(f"line {i}: lint event needs a dotted 'code' string")
    if event.get("severity") not in LINT_SEVERITIES:
        errors.append(
            f"line {i}: lint severity must be one of {sorted(LINT_SEVERITIES)}"
        )
    if not isinstance(event.get("msg"), str) or not event.get("msg"):
        errors.append(f"line {i}: lint event needs a non-empty 'msg'")
    if not isinstance(event.get("ctx"), str):
        errors.append(f"line {i}: lint event needs a 'ctx' string")
    line_no = event.get("line")
    if line_no is not None and (not isinstance(line_no, int) or line_no < 1):
        errors.append(f"line {i}: lint 'line' must be a positive integer")


def check_server_event(event, i, errors):
    """Planning-service lifecycle events (ev == "server")."""
    op = event.get("op")
    if op not in SERVER_OPS:
        errors.append(
            f"line {i}: server op must be one of {sorted(SERVER_OPS)}, "
            f"got {op!r}"
        )
        return
    if op in ("submit", "yield", "cancel", "complete"):
        req = event.get("req")
        if not isinstance(req, int) or isinstance(req, bool) or req < 1:
            errors.append(f"line {i}: server '{op}' needs a positive 'req' id")
        if not isinstance(event.get("state"), str) or not event.get("state"):
            errors.append(f"line {i}: server '{op}' needs a 'state' string")
    if op == "reject":
        if not isinstance(event.get("reason"), str) or not event.get("reason"):
            errors.append(f"line {i}: server reject needs a 'reason' string")
    if op == "complete":
        if event.get("state") not in SERVER_TERMINAL_STATES:
            errors.append(
                f"line {i}: server complete state must be terminal "
                f"({sorted(SERVER_TERMINAL_STATES)}), got {event.get('state')!r}"
            )
        for key in ("queue_ms", "plan_ms", "dur_ms"):
            val = event.get(key)
            if not isinstance(val, (int, float)) or isinstance(val, bool) \
                    or val < 0:
                errors.append(
                    f"line {i}: server complete needs non-negative '{key}'"
                )
        for key in ("cached", "valid"):
            if not isinstance(event.get(key), bool):
                errors.append(f"line {i}: server complete needs boolean '{key}'")


def _is_id(v):
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def new_segment():
    """Span-tree state for one trace_start segment (trace/span ids restart
    with the process, so trees never span a trace_start marker)."""
    return {
        "spans": {},        # (trace, span) -> node dict
        "annotations": [],  # events with trace+parent but no span id
        "submits": {},      # trace -> first submit line
        "completes": {},    # trace -> terminal "complete" count
    }


def collect_span(event, i, segment, errors):
    """Files one event into the segment's span-tree state."""
    trace = event.get("trace")
    if trace is None:
        return
    if not _is_id(trace):
        errors.append(f"line {i}: 'trace' must be a positive integer")
        return
    span = event.get("span")
    parent = event.get("parent")
    ts = event.get("ts_ms")
    dur = event.get("dur_ms")
    if span is not None:
        if not _is_id(span):
            errors.append(f"line {i}: 'span' must be a positive integer")
            return
        if parent is not None and (not _is_id(parent) or parent == span):
            errors.append(f"line {i}: bad 'parent' {parent!r} for span {span}")
            return
        if not _is_num(dur) or dur < 0 or not _is_num(ts):
            errors.append(f"line {i}: span {span} needs ts_ms and dur_ms >= 0")
            return
        key = (trace, span)
        if key in segment["spans"]:
            errors.append(
                f"line {i}: span id {span} reused within trace {trace} "
                f"(first at line {segment['spans'][key]['line']})"
            )
            return
        segment["spans"][key] = {
            "start": ts - dur, "end": ts, "parent": parent,
            "ev": event.get("ev"), "line": i,
        }
    elif parent is not None:
        if not _is_id(parent):
            errors.append(f"line {i}: 'parent' must be a positive integer")
            return
        segment["annotations"].append((trace, parent, event.get("ev"), i))
    if event.get("ev") == "server":
        op = event.get("op")
        if op == "submit":
            segment["submits"].setdefault(trace, i)
        elif op == "complete" and event.get("state") in SERVER_TERMINAL_STATES:
            segment["completes"][trace] = segment["completes"].get(trace, 0) + 1


def check_segment(segment, errors):
    """Structural checks once a segment is complete: parents resolve within
    their trace, children nest inside parent bounds, and every admitted
    request's tree has exactly one terminal event."""
    spans = segment["spans"]
    for (trace, span), node in sorted(spans.items()):
        parent_id = node["parent"]
        if parent_id is None:
            continue
        parent = spans.get((trace, parent_id))
        if parent is None:
            errors.append(
                f"line {node['line']}: span {span} ('{node['ev']}') references "
                f"parent {parent_id} which never appears in trace {trace}"
            )
            continue
        if (node["start"] < parent["start"] - NEST_EPS_MS
                or node["end"] > parent["end"] + NEST_EPS_MS):
            errors.append(
                f"line {node['line']}: span {span} ('{node['ev']}') "
                f"[{node['start']:.3f}, {node['end']:.3f}] escapes parent "
                f"{parent_id} ('{parent['ev']}') "
                f"[{parent['start']:.3f}, {parent['end']:.3f}]"
            )
    for trace, parent_id, ev, line in segment["annotations"]:
        if (trace, parent_id) not in spans:
            errors.append(
                f"line {line}: annotation '{ev}' references parent "
                f"{parent_id} which never appears in trace {trace}"
            )
    for trace, line in sorted(segment["submits"].items()):
        n = segment["completes"].get(trace, 0)
        if n != 1:
            errors.append(
                f"line {line}: request trace {trace} has {n} terminal "
                f"'complete' events (want exactly one)"
            )


def validate(path, required):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as err:
        return [f"cannot read journal: {err}"]

    errors = []
    if not lines:
        errors.append("journal is empty")
    seen = {}
    last_ts = {}
    segment = new_segment()
    for i, line in enumerate(lines, start=1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            errors.append(f"line {i}: not valid JSON ({err})")
            continue
        if not isinstance(event, dict):
            errors.append(f"line {i}: not a JSON object")
            continue
        for key in ("ts_ms", "ev", "tid"):
            if key not in event:
                errors.append(f"line {i}: missing required key '{key}'")
        ev = event.get("ev")
        ts = event.get("ts_ms")
        tid = event.get("tid")
        if ev == "trace_start":
            # A new process (or reopened sink) appended to this journal;
            # its monotonic clock — and its trace/span id counters —
            # restart from zero.
            last_ts.clear()
            check_segment(segment, errors)
            segment = new_segment()
        if isinstance(ts, (int, float)):
            if ts < 0:
                errors.append(f"line {i}: negative ts_ms {ts}")
            if isinstance(tid, int):
                if tid in last_ts and ts < last_ts[tid]:
                    errors.append(
                        f"line {i}: ts_ms went backwards on tid {tid} "
                        f"({last_ts[tid]} -> {ts})"
                    )
                last_ts[tid] = ts
        if isinstance(ev, str):
            seen[ev] = seen.get(ev, 0) + 1
            if ev in SPAN_EVENTS:
                dur = event.get("dur_ms")
                if not isinstance(dur, (int, float)) or dur < 0:
                    errors.append(f"line {i}: span '{ev}' lacks a valid dur_ms")
            if ev == "lint":
                check_lint_event(event, i, errors)
            if ev == "server":
                check_server_event(event, i, errors)
        collect_span(event, i, segment, errors)
    check_segment(segment, errors)
    for ev in required:
        if ev not in seen:
            errors.append(f"required event type '{ev}' never appears")
    if not errors:
        summary = ", ".join(f"{ev}:{n}" for ev, n in sorted(seen.items()))
        print(f"check_trace: OK — {len(lines)} events ({summary})")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("journal", nargs="?", help="journal file to validate")
    parser.add_argument(
        "--exec",
        dest="exec_argv",
        nargs="+",
        metavar="ARG",
        help="run this command with GAPLAN_TRACE set, then validate its journal",
    )
    parser.add_argument(
        "--require",
        nargs="+",
        default=[],
        metavar="EV",
        help="event types that must appear at least once",
    )
    args = parser.parse_args()

    if bool(args.journal) == bool(args.exec_argv):
        parser.error("pass exactly one of: a journal path, or --exec")

    if args.exec_argv:
        with tempfile.TemporaryDirectory(prefix="gaplan_trace_") as tmp:
            journal = os.path.join(tmp, "journal.jsonl")
            env = dict(os.environ, GAPLAN_TRACE=journal)
            proc = subprocess.run(args.exec_argv, env=env)
            if proc.returncode != 0:
                sys.exit(f"check_trace: command exited {proc.returncode}")
            errors = validate(journal, args.require)
    else:
        errors = validate(args.journal, args.require)

    for err in errors:
        print(f"check_trace: {err}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
