#!/usr/bin/env python3
"""Validates BENCH_*.json reports (bench_eval, bench_chaos, bench_serve,
bench_dist; see
docs/API.md).

Usage:
  scripts/check_bench.py BENCH_eval.json [BENCH_chaos.json ...]
  scripts/check_bench.py --exec BINARY [ARGS ...]

With --exec, the binary is run with GAPLAN_CSV_DIR pointing at a temporary
directory (and reduced iteration counts unless GAPLAN_RUNS/GAPLAN_GENS are
already set), then every BENCH_*.json it wrote is validated. The schema is
chosen per file from the report's top-level "bench" key.

bench_eval checks: config entries carry numeric throughput fields with sane
signs, hit rates lie in [0, 1], and the headline speedup is positive.

bench_chaos checks: the sweep covers a zero and at least one non-zero failure
rate, completion rates lie in [0, 1], the adaptive manager's completion rate
strictly exceeds the static script's at every non-zero failure rate, and the
run was clean (no exception, silent degradation, or billing mismatch).

bench_serve checks: the client sweep covers 1 and 8 clients with positive
throughput, p95 >= p50, cache hit rates lie in [0, 1], the 8-client speedup
over the serialized baseline is at least 4x, the warm cache-hit median is
under 1 ms, and the histogram-derived latency attribution (queue_wait /
slice / cache_probe — the split analyze_trace.py rebuilds from span trees)
is present with sane numbers.

Exit status: 0 when every report is valid, 1 otherwise.
"""
import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

EVAL_CONFIG_KEYS = {
    "name": str,
    "seconds": (int, float),
    "evaluations": int,
    "evals_per_sec": (int, float),
    "ops_decoded": int,
    "ops_decoded_per_sec": (int, float),
    "cache_hits": int,
    "cache_misses": int,
    "cache_hit_rate": (int, float),
    "resume_genes_skipped": int,
    "eval_ms": (int, float),
    "reproduce_ms": (int, float),
}

CHAOS_SIDE_KEYS = {
    "completed": int,
    "runs": int,
    "completion_rate": (int, float),
    "avg_makespan": (int, float),
    "avg_cost": (int, float),
    "avg_replans": (int, float),
    "avg_waits": (int, float),
}


def check_eval_config(entry, where, errors):
    if not isinstance(entry, dict):
        errors.append(f"{where}: not a JSON object")
        return
    for key, kind in EVAL_CONFIG_KEYS.items():
        if key not in entry:
            errors.append(f"{where}: missing key '{key}'")
        elif not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            errors.append(f"{where}: '{key}' has wrong type")
    for key in ("seconds", "evals_per_sec", "ops_decoded_per_sec"):
        if isinstance(entry.get(key), (int, float)) and entry[key] <= 0:
            errors.append(f"{where}: '{key}' must be positive, got {entry[key]}")
    rate = entry.get("cache_hit_rate")
    if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
        errors.append(f"{where}: cache_hit_rate {rate} outside [0, 1]")
    # Rep-variance fields (PR 7): the headline best-of-reps number must come
    # with its spread, and the reported seconds must be the recorded minimum.
    for key in ("seconds_min", "seconds_median", "seconds_stddev"):
        if key not in entry:
            errors.append(f"{where}: missing rep-variance key '{key}'")
        elif not isinstance(entry[key], (int, float)) or isinstance(entry[key], bool):
            errors.append(f"{where}: '{key}' has wrong type")
    smin, smed, sdev = (entry.get(k) for k in
                        ("seconds_min", "seconds_median", "seconds_stddev"))
    if isinstance(smin, (int, float)) and isinstance(smed, (int, float)):
        if smin > smed:
            errors.append(f"{where}: seconds_min {smin} > seconds_median {smed}")
        secs = entry.get("seconds")
        if isinstance(secs, (int, float)) and abs(secs - smin) > 1e-6:
            errors.append(f"{where}: seconds {secs} != seconds_min {smin}")
    if isinstance(sdev, (int, float)) and sdev < 0:
        errors.append(f"{where}: seconds_stddev must be non-negative")


# The evaluation pass over the kernel's LUT (soa) must beat the same pass over
# ProblemOps (Hanoi behind bench/without_kernel.hpp, the same runner) by at
# least this factor on the recorded Hanoi-7 workload (the regression ctest
# uses the same floor on a shorter run).
SOA_SPEEDUP_FLOOR = 1.5


def validate_eval(doc, errors):
    for key in ("workload", "configs", "speedup_evals_per_sec",
                "speedup_evals_per_sec_soa", "sokoban_cache", "workflow_cache"):
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")

    configs = doc.get("configs")
    if not isinstance(configs, list) or len(configs) < 3:
        errors.append("'configs' must be a list with at least three entries")
    else:
        for i, entry in enumerate(configs):
            check_eval_config(entry, f"configs[{i}]", errors)
        names = [c.get("name") for c in configs if isinstance(c, dict)]
        for want in ("cold", "incremental", "soa"):
            if want not in names:
                errors.append(f"no config named '{want}'")

    speedup = doc.get("speedup_evals_per_sec")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        errors.append(f"speedup_evals_per_sec must be positive, got {speedup!r}")

    speedup_soa = doc.get("speedup_evals_per_sec_soa")
    if not isinstance(speedup_soa, (int, float)) or speedup_soa <= 0:
        errors.append(
            f"speedup_evals_per_sec_soa must be positive, got {speedup_soa!r}")
    elif speedup_soa < SOA_SPEEDUP_FLOOR:
        errors.append(
            f"speedup_evals_per_sec_soa {speedup_soa:.2f} below the "
            f"{SOA_SPEEDUP_FLOOR}x floor (kernel decode regressed)")

    sok = doc.get("sokoban_cache")
    if isinstance(sok, dict):
        rate = sok.get("cache_hit_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            errors.append(f"sokoban_cache.cache_hit_rate invalid: {rate!r}")
    elif sok is not None:
        errors.append("'sokoban_cache' is not a JSON object")

    # The workflow cache block A/Bs the valid-ops cache on one trajectory:
    # both sides must have run the same evaluations.
    wf = doc.get("workflow_cache")
    if isinstance(wf, dict):
        rate = wf.get("cache_hit_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            errors.append(f"workflow_cache.cache_hit_rate invalid: {rate!r}")
        sides = [wf.get(k) for k in ("cache", "no_cache")]
        if not all(isinstance(x, dict) for x in sides):
            errors.append("workflow_cache needs 'cache' and 'no_cache' objects")
        elif sides[0].get("evaluations") != sides[1].get("evaluations"):
            errors.append("workflow_cache: cache and no_cache ran different "
                          "trajectories (evaluations differ)")
        ratio = wf.get("speedup_evals_per_sec_median")
        if not isinstance(ratio, (int, float)) or ratio <= 0:
            errors.append(
                f"workflow_cache.speedup_evals_per_sec_median invalid: {ratio!r}")
    elif wf is not None:
        errors.append("'workflow_cache' is not a JSON object")

    if not errors and isinstance(speedup, (int, float)):
        print(f"check_bench: OK (bench_eval) — speedup {speedup:.2f}x, "
              f"soa {speedup_soa:.2f}x, {len(configs)} configs")


def check_chaos_side(entry, where, errors):
    if not isinstance(entry, dict):
        errors.append(f"{where}: not a JSON object")
        return
    for key, kind in CHAOS_SIDE_KEYS.items():
        if key not in entry:
            errors.append(f"{where}: missing key '{key}'")
        elif not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            errors.append(f"{where}: '{key}' has wrong type")
    rate = entry.get("completion_rate")
    if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
        errors.append(f"{where}: completion_rate {rate} outside [0, 1]")
    completed, runs = entry.get("completed"), entry.get("runs")
    if isinstance(completed, int) and isinstance(runs, int):
        if runs <= 0:
            errors.append(f"{where}: runs must be positive")
        elif not 0 <= completed <= runs:
            errors.append(f"{where}: completed {completed} outside [0, {runs}]")


def validate_chaos(doc, errors):
    for key in ("workload", "sweep", "adaptive_dominates", "clean"):
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")

    sweep = doc.get("sweep")
    nonzero = 0
    if not isinstance(sweep, list) or len(sweep) < 2:
        errors.append("'sweep' must be a list with at least two entries")
    else:
        rates = []
        for i, entry in enumerate(sweep):
            where = f"sweep[{i}]"
            if not isinstance(entry, dict):
                errors.append(f"{where}: not a JSON object")
                continue
            rate = entry.get("failure_rate")
            if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
                    or not 0.0 <= rate <= 1.0:
                errors.append(f"{where}: failure_rate invalid: {rate!r}")
                continue
            rates.append(rate)
            check_chaos_side(entry.get("adaptive"), f"{where}.adaptive", errors)
            check_chaos_side(entry.get("static"), f"{where}.static", errors)
            if rate > 0.0 and isinstance(entry.get("adaptive"), dict) \
                    and isinstance(entry.get("static"), dict):
                nonzero += 1
                a = entry["adaptive"].get("completion_rate")
                s = entry["static"].get("completion_rate")
                if isinstance(a, (int, float)) and isinstance(s, (int, float)) \
                        and a <= s:
                    errors.append(
                        f"{where}: adaptive completion rate {a} does not "
                        f"strictly exceed static {s} at failure rate {rate}")
        if rates and 0.0 not in rates:
            errors.append("sweep has no zero-failure-rate baseline entry")
        if not nonzero:
            errors.append("sweep has no non-zero failure-rate entry")

    if doc.get("adaptive_dominates") is not True:
        errors.append(f"adaptive_dominates is {doc.get('adaptive_dominates')!r},"
                      " expected true")
    if doc.get("clean") is not True:
        errors.append(f"clean is {doc.get('clean')!r}, expected true"
                      " (exception, silent degradation, or billing mismatch)")

    if not errors:
        print(f"check_bench: OK (bench_chaos) — {nonzero} non-zero failure "
              f"rates, adaptive dominates, audits clean")


SERVE_LOAD_KEYS = {
    "seconds": (int, float),
    "requests_per_sec": (int, float),
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "cache_hit_rate": (int, float),
    "completed": int,
    "rejected": int,
}


def check_serve_load(entry, where, errors, require_hit_rate=True):
    if not isinstance(entry, dict):
        errors.append(f"{where}: not a JSON object")
        return
    for key, kind in SERVE_LOAD_KEYS.items():
        if key not in entry:
            errors.append(f"{where}: missing key '{key}'")
        elif not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            errors.append(f"{where}: '{key}' has wrong type")
    for key in ("seconds", "requests_per_sec"):
        if isinstance(entry.get(key), (int, float)) and entry[key] <= 0:
            errors.append(f"{where}: '{key}' must be positive, got {entry[key]}")
    p50, p95 = entry.get("p50_ms"), entry.get("p95_ms")
    if isinstance(p50, (int, float)) and isinstance(p95, (int, float)) \
            and p95 < p50:
        errors.append(f"{where}: p95_ms {p95} below p50_ms {p50}")
    rate = entry.get("cache_hit_rate")
    if isinstance(rate, (int, float)) and require_hit_rate \
            and not 0.0 <= rate <= 1.0:
        errors.append(f"{where}: cache_hit_rate {rate} outside [0, 1]")
    if isinstance(entry.get("completed"), int) and entry["completed"] <= 0:
        errors.append(f"{where}: no requests completed")
    if isinstance(entry.get("rejected"), int) and entry["rejected"] != 0:
        errors.append(f"{where}: {entry['rejected']} requests rejected "
                      "(bench queues must be sized to the offered load)")


def validate_serve(doc, errors):
    for key in ("workload", "client_sweep", "mix_sweep", "baseline_serialized",
                "speedup_8_clients", "warm_hit_p50_ms", "warm_hit_p95_ms"):
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")

    sweep = doc.get("client_sweep")
    if not isinstance(sweep, list) or len(sweep) < 2:
        errors.append("'client_sweep' must be a list with at least two entries")
    else:
        clients = []
        for i, entry in enumerate(sweep):
            where = f"client_sweep[{i}]"
            check_serve_load(entry, where, errors)
            if isinstance(entry, dict) and isinstance(entry.get("clients"), int):
                clients.append(entry["clients"])
        for want in (1, 8):
            if want not in clients:
                errors.append(f"client_sweep has no {want}-client entry")

    mix = doc.get("mix_sweep")
    if not isinstance(mix, list) or len(mix) < 2:
        errors.append("'mix_sweep' must be a list with at least two entries")
    else:
        distinct = set()
        for i, entry in enumerate(mix):
            where = f"mix_sweep[{i}]"
            check_serve_load(entry, where, errors)
            if isinstance(entry, dict) and isinstance(entry.get("distinct"), int):
                distinct.add(entry["distinct"])
        if len(distinct) < 2:
            errors.append("mix_sweep does not vary the distinct-request count")

    check_serve_load(doc.get("baseline_serialized"), "baseline_serialized",
                     errors, require_hit_rate=False)

    # Histogram-derived latency attribution (the same queue/slice/cache split
    # scripts/analyze_trace.py rebuilds from span trees).
    attribution = doc.get("attribution")
    if not isinstance(attribution, dict):
        errors.append("missing 'attribution' object")
    else:
        for part in ("queue_wait", "slice", "cache_probe"):
            entry = attribution.get(part)
            if not isinstance(entry, dict):
                errors.append(f"attribution.{part} missing")
                continue
            for key in ("count", "sum_ms", "mean_ms", "p95_ms"):
                val = entry.get(key)
                if not isinstance(val, (int, float)) or isinstance(val, bool) \
                        or val < 0:
                    errors.append(
                        f"attribution.{part}.{key} must be a non-negative "
                        f"number, got {val!r}"
                    )
        slice_entry = attribution.get("slice")
        if isinstance(slice_entry, dict) and slice_entry.get("count") == 0:
            errors.append("attribution.slice.count is 0 — the load sweeps "
                          "never measured a planning slice")

    speedup = doc.get("speedup_8_clients")
    if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
        errors.append(f"speedup_8_clients must be a number, got {speedup!r}")
    elif speedup < 4.0:
        errors.append(f"speedup_8_clients {speedup} below the 4x floor")

    warm = doc.get("warm_hit_p50_ms")
    if not isinstance(warm, (int, float)) or isinstance(warm, bool):
        errors.append(f"warm_hit_p50_ms must be a number, got {warm!r}")
    elif not 0.0 < warm < 1.0:
        errors.append(f"warm_hit_p50_ms {warm} not inside (0, 1) ms")

    if not errors:
        print(f"check_bench: OK (bench_serve) — speedup {speedup:.2f}x at 8 "
              f"clients, warm hit p50 {warm:.4f} ms")


def validate_dist(doc, errors):
    for key in ("workload", "worker_sweep", "speedup_2_workers",
                "speedup_4_workers", "cross_worker", "failover"):
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")

    sweep = doc.get("worker_sweep")
    if not isinstance(sweep, list) or len(sweep) != 3:
        errors.append("'worker_sweep' must be a list of three entries (1/2/4 "
                      "workers)")
    else:
        workers = []
        for i, entry in enumerate(sweep):
            where = f"worker_sweep[{i}]"
            if not isinstance(entry, dict):
                errors.append(f"{where}: not a JSON object")
                continue
            for key in ("workers", "seconds", "requests_per_sec", "submitted",
                        "completed", "cache_hit_rate", "retries"):
                val = entry.get(key)
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    errors.append(f"{where}: '{key}' must be a number, "
                                  f"got {val!r}")
            if isinstance(entry.get("workers"), int):
                workers.append(entry["workers"])
            for key in ("seconds", "requests_per_sec"):
                if isinstance(entry.get(key), (int, float)) and entry[key] <= 0:
                    errors.append(f"{where}: '{key}' must be positive, "
                                  f"got {entry[key]}")
            rate = entry.get("cache_hit_rate")
            if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
                errors.append(f"{where}: cache_hit_rate {rate} outside [0, 1]")
            # Every submitted request must complete: the sweep has no faults
            # injected, so a lost request is a routing bug, not noise.
            sub, comp = entry.get("submitted"), entry.get("completed")
            if isinstance(sub, int) and isinstance(comp, int) and sub != comp:
                errors.append(f"{where}: completed {comp} != submitted {sub}")
        if workers != [1, 2, 4]:
            errors.append(f"worker_sweep must cover workers 1, 2, 4 in order, "
                          f"got {workers}")

    for key, floor in (("speedup_2_workers", 1.7), ("speedup_4_workers", 3.0)):
        val = doc.get(key)
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            errors.append(f"{key} must be a number, got {val!r}")
        elif val < floor:
            errors.append(f"{key} {val} below the {floor}x floor")

    cross = doc.get("cross_worker")
    if not isinstance(cross, dict):
        errors.append("missing 'cross_worker' object")
    else:
        reqs, hits = cross.get("requests"), cross.get("hits")
        rate = cross.get("cross_worker_hit_rate")
        if not isinstance(reqs, int) or reqs <= 0:
            errors.append(f"cross_worker.requests must be positive, got {reqs!r}")
        if not isinstance(hits, int) or hits != reqs:
            errors.append(f"cross_worker: only {hits!r} of {reqs!r} non-primary "
                          "probes hit — gossip parity not reached")
        if not isinstance(rate, (int, float)) or rate < 0.999:
            errors.append(f"cross_worker_hit_rate {rate!r} below parity")

    failover = doc.get("failover")
    if not isinstance(failover, dict):
        errors.append("missing 'failover' object")
    else:
        for key in ("submitted", "completed", "lost", "retries", "mark_downs"):
            val = failover.get(key)
            if not isinstance(val, int) or isinstance(val, bool) or val < 0:
                errors.append(f"failover.{key} must be a non-negative integer, "
                              f"got {val!r}")
        if failover.get("lost") != 0:
            errors.append(f"failover lost {failover.get('lost')!r} requests — "
                          "killing a worker must not drop idempotent submits")
        if isinstance(failover.get("retries"), int) and failover["retries"] < 1:
            errors.append("failover.retries is 0 — the kill never exercised "
                          "the retry path (the doomed worker is only killed "
                          "once it reports a request mid-plan)")
        if isinstance(failover.get("mark_downs"), int) \
                and failover["mark_downs"] < 1:
            errors.append("failover.mark_downs is 0 — the dead worker was "
                          "never detected")

    if not errors:
        print(f"check_bench: OK (bench_dist) — "
              f"{doc['speedup_2_workers']:.2f}x at 2 workers, "
              f"{doc['speedup_4_workers']:.2f}x at 4, cross-worker parity "
              f"{doc['cross_worker']['hits']}/{doc['cross_worker']['requests']}, "
              f"failover lost {doc['failover']['lost']}")


SCHEMAS = {
    "bench_eval": validate_eval,
    "bench_chaos": validate_chaos,
    "bench_serve": validate_serve,
    "bench_dist": validate_dist,
}


def validate(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        return [f"cannot parse {path}: {err}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level is not a JSON object"]
    for key in ("bench", "schema_version"):
        if key not in doc:
            errors.append(f"missing top-level key '{key}'")
    checker = SCHEMAS.get(doc.get("bench"))
    if checker is None:
        errors.append(f"unknown bench name: {doc.get('bench')!r}")
        return errors
    checker(doc, errors)
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*",
                        help="BENCH_*.json file(s) to validate")
    parser.add_argument(
        "--exec",
        dest="exec_argv",
        nargs="+",
        metavar="ARG",
        help="run this command with GAPLAN_CSV_DIR set, then validate every "
             "BENCH_*.json it wrote",
    )
    args = parser.parse_args()

    if bool(args.reports) == bool(args.exec_argv):
        parser.error("pass exactly one of: report path(s), or --exec")

    errors = []
    if args.exec_argv:
        with tempfile.TemporaryDirectory(prefix="gaplan_bench_") as tmp:
            env = dict(os.environ, GAPLAN_CSV_DIR=tmp)
            # Smoke scale: tiny protocol unless the caller already chose one.
            env.setdefault("GAPLAN_RUNS", "1")
            env.setdefault("GAPLAN_GENS", "25")
            env.setdefault("GAPLAN_POP", "60")
            proc = subprocess.run(args.exec_argv, env=env)
            if proc.returncode != 0:
                sys.exit(f"check_bench: command exited {proc.returncode}")
            reports = sorted(glob.glob(os.path.join(tmp, "BENCH_*.json")))
            if not reports:
                sys.exit("check_bench: command wrote no BENCH_*.json")
            for report in reports:
                errors.extend(validate(report))
    else:
        for report in args.reports:
            errors.extend(validate(report))

    for err in errors:
        print(f"check_bench: {err}", file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
