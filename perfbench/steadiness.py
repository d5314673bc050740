#!/usr/bin/env python3
"""Steadiness record: run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 101] [--workloads a,b]

Runs each workload --runs times (seeds first-seed, first-seed+1, ...)
for BENCHMARK.json's run_seconds, untraced, then once traced, and writes
perfbench/STEADINESS.json: for every end-to-end metric its ten values
(and the unscaled ones, before the host-speed factor), their median,
and the spread (third quartile minus first quartile, as
statistics.quantiles(values, n=4) gives them, over the median) beside
the bound in BENCHMARK.json, and checks the per-layer metrics predicted
to stay flat on a workload (FLAT) against the traced run.  A metric is
steady when its spread is at most a third of its bound.  setup_s is
exempt (EXEMPT): its spread is recorded and marked like the others, but
does not fail the record.  Every run must also be correct with nothing
failed.  Exits 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

OUT = os.path.join("perfbench", "STEADINESS.json")

# Metrics and workloads considered and left out of BENCHMARK.json, with
# the reason.  BENCHMARK.json's schema has no room for them.
DROPPED = {
    "failed_ratio": "always 0 on a correct run, and an end-to-end metric must never be 0; "
                    "it is printed by every run, carried by the result's 'failed' count, "
                    "and reported as a per-layer metric of the traced run",
}


# Per-layer metrics predicted to stay flat on a workload (ISSUE table):
# (metrics, workload, test, why).  "zero" metrics must read exactly 0;
# "share" metrics must stay within 5% of the replay round; "noise"
# counts within 5% of the population.
FLAT = [
    (["loadgen.build_us_per_onion", "loadgen.verify_us_per_msg"], "dial-tcp", "zero",
     "dialing builds no Loadgen onions"),
    (["dialing.build_us_per_request", "dialing.scan_us_per_invitation",
      "dialing.invitations_per_drop"], "conv-tcp", "zero", "no dialing"),
    (["dialing.build_us_per_request", "dialing.scan_us_per_invitation",
      "dialing.invitations_per_drop"], "conv-noise", "zero", "no dialing"),
    (["server0.forward_ms", "server1.forward_ms"], "conv-tcp", "share",
     "mu=4 adds 8 noise onions per mixing server"),
    (["server0.noise_onions", "server1.noise_onions"], "conv-tcp", "noise",
     "mu=4 adds 8 noise onions per mixing server"),
    (["server2.exchange_ms"], "conv-noise", "share", "the exchange share is small"),
    (["server0.backward_ms", "server1.backward_ms"], "dial-tcp", "share",
     "dialing replies are 1-byte acks"),
    (["rpc.encode_ms", "rpc.decode_ms"], "conv-noise", "share",
     "no sockets; the in-process Chain still relays Rpc part frames"),
    (["link.bytes_per_msg", "link.frames_per_round", "link.reconnects",
      "remote.fetch_ms_per_drop"], "conv-noise", "zero", "no sockets"),
    (["daemon%d.%s" % (i, m) for i in range(3)
      for m in ["cpu_ms", "idle_ms", "transport_cpu_ms"]
      + ["stage.%s_ms" % st for st in
         ["peel", "noise", "shuffle", "exchange", "reseal", "unpeel"]]],
     "conv-noise", "zero", "no daemons"),
]
SHARE = 0.05

# End-to-end metrics whose spread is recorded but not required to be
# steady, with the reason.
EXEMPT = {
    "setup_s": "set-up is five ~1 s deploy-and-warm-up cycles per run whose times vary "
               "by up to ~25% within a run; it is held only to its median between two "
               "sets of runs moving by at most its bound",
}


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (%d):\n%s" %
                         (workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def flat_checks(traced, population):
    """Evaluate FLAT against one traced run per workload."""
    rows = []
    for metrics, workload, test, why in FLAT:
        if workload not in traced:
            continue
        got = traced[workload]
        round_ms = got["replay.round_ms"]["value"]
        for m in metrics:
            v = got[m]["value"]
            if test == "zero":
                holds, ref = v == 0, 0
            elif test == "share":
                holds, ref = abs(v) <= SHARE * round_ms, SHARE * round_ms
            else:
                holds, ref = v <= SHARE * population[workload], SHARE * population[workload]
            rows.append({"metric": m, "workload": workload, "value": v, "test": test,
                         "limit": ref, "holds": holds, "why": why})
    return rows


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=OUT)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host_cores": os.cpu_count(),
        "run_seconds": seconds,
        "runs": args.runs,
        "first_seed": args.first_seed,
        "rule": "spread = (Q3 - Q1) / median over the runs; steady when spread <= bound / 3; "
                "metrics in 'exempt' are marked the same way but do not fail the record",
        "exempt": EXEMPT,
        "dropped": DROPPED,
        "workloads": {},
    }
    steady = True
    traced_metrics, population = {}, {}
    for name in args.workloads.split(","):
        values, raw = {}, {}
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(name, seed, seconds)
            if not result["correct"] or result["failed"] != 0:
                print("%s seed %d: incorrect result" % (name, seed), file=sys.stderr)
                steady = False
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            with open(os.path.join("perfbench", "results", "%s-seed%d-trace0.json"
                                   % (name, seed))) as f:
                for metric, v in json.load(f)["raw_metrics"].items():
                    raw.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, {m: round(v["value"], 3)
                                                    for m, v in result["metrics"].items()}),
                  flush=True)
        rows = {}
        for metric, vals in values.items():
            med, sp = spread(vals)
            bound = bounds[metric]
            ok = sp <= bound / 3
            steady = steady and (ok or metric in EXEMPT)
            raw_med, raw_sp = spread(raw[metric])
            rows[metric] = {"median": med, "spread": sp, "bound": bound,
                            "spread_over_bound": sp / bound, "steady": ok, "values": vals,
                            "raw_median": raw_med, "raw_spread": raw_sp,
                            "raw_values": raw[metric]}
            print("  %-24s median %12.4f spread %.3f bound %.2f %s (unscaled spread %.3f)" %
                  (metric, med, sp, bound,
                   "ok" if ok else "UNSTEADY (exempt)" if metric in EXEMPT else "UNSTEADY",
                   raw_sp), flush=True)
        record["workloads"][name] = rows
        traced = run_once(name, args.first_seed, seconds, trace=1)
        if not traced["correct"] or traced["failed"] != 0:
            print("%s traced seed %d: incorrect result" % (name, args.first_seed),
                  file=sys.stderr)
            steady = False
        traced_metrics[name] = traced["metrics"]
        with open(os.path.join("perfbench", "results", "%s-seed%d-trace1.json"
                               % (name, args.first_seed))) as f:
            population[name] = json.load(f)["parameters"]["population"]
    record["flat_predictions"] = flat_checks(traced_metrics, population)
    for row in record["flat_predictions"]:
        if not row["holds"]:
            print("flat prediction fails: %s on %s = %g (limit %g)" %
                  (row["metric"], row["workload"], row["value"], row["limit"]), flush=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
