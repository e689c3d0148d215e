#!/usr/bin/env python3
"""Self-tests of the time-to-completion benchmark.

    python3 perfbench/selftest.py [--seeds 1 7]

For every seed, every workload runs one traced run (the first seed) or one
untraced run (the others) and must pass all of its output checks. On top:

  * cross-engine: for arm_exc and arm_forward, no fault may be proven
    redundant/untestable under the SAT engine alone (t6-sat, a run of the
    t6-auto rows that is not a benchmark workload) and detected under
    t6-auto, or the other way round (EngineResult::statuses);
  * determinism: a second process with the first seed reproduces every
    t6-auto per-fault status vector and every bist-chip coverage and
    signature;
  * traced runs report self time for every layer that does work;
  * every run reports exactly the metrics and units BENCHMARK.json names,
    and no end-to-end metric reads 0.

Takes about a minute; exits non-zero on the first failing test.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

PROVEN = "RT"  # redundant (SAT UNSAT proof) or untestable (PODEM search)
# Layers whose traced self time must be positive, per workload.
BUSY_LAYERS = {
    "t6-auto": ("rtl.parse_s", "elab.elaborate_s", "core.build_s",
                "core.extract_s", "synth.run_s", "synth.optimize_s",
                "atpg.run_s", "atpg.random_s", "atpg.deterministic_s",
                "atpg.worker_busy_s", "atpg.sat_escalation_s", "sat.solve_s"),
    "bist-chip": ("rtl.parse_s", "elab.elaborate_s", "core.build_s",
                  "synth.run_s", "synth.optimize_s", "atpg.bist_s"),
}


def fail(msg):
    print("FAIL: " + msg, flush=True)
    sys.exit(1)


def rows_of(raw):
    """Rows of the first untraced pass, by name."""
    for p in raw["passes"]:
        if not p["pass"]["traced"]:
            return {row["row"]: row for row in p["rows"]}
    fail("%s has no untraced pass" % raw["meta"]["workload"])


def fingerprint(raw):
    """The outputs that must repeat exactly for a fixed seed."""
    keys = {"t6-auto": ("statuses",),
            "bist-chip": ("coverage_percent", "good_signature")}
    fields = keys[raw["meta"]["workload"]]
    return {name: tuple(row[f] for f in fields)
            for name, row in rows_of(raw).items()}


def declared_metrics(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_run(workload, seed, trace):
    raw = run.run_raw(workload, seed, 1, trace)
    result = run.evaluate(raw, trace)
    if not result["correct"]:
        fail("%s seed %d: %d of %d rows failed their checks"
             % (workload, seed, result["failed"], result["attempted"]))
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != declared_metrics(trace):
        fail("%s: metrics or units differ from BENCHMARK.json: %s" % (
            workload, sorted(set(reported.items()) ^
                             set(declared_metrics(trace).items()))))
    if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
        fail("%s: an end-to-end metric reads 0" % workload)
    if trace:
        idle = [name for name in BUSY_LAYERS[workload]
                if result["metrics"][name]["value"] <= 0.0]
        if idle:
            fail("%s: traced run reports no self time for %s" % (workload, idle))
    print("ok   %-9s seed %d%s" % (workload, seed, " (traced)" if trace else ""),
          flush=True)
    return raw


def cross_engine(auto, seed):
    sat = run.run_raw("t6-sat", seed, 1, 0)
    attempted, failures = run.check(sat)
    if failures:
        fail("t6-sat seed %d: %d of %d rows failed their checks"
             % (seed, len(failures), attempted))
    sat_rows, auto_rows = rows_of(sat), rows_of(auto)
    for name in run.ROWS["t6-sat"]:
        a, b = sat_rows[name]["statuses"], auto_rows[name]["statuses"]
        bad = [i for i, (x, y) in enumerate(zip(a, b))
               if (x in PROVEN and y == "D") or (x == "D" and y in PROVEN)]
        if len(a) != len(b) or bad:
            fail("cross-engine %s seed %d: faults %s are proven untestable by "
                 "one engine and detected by the other" % (name, seed, bad))
    print("ok   cross-engine seed %d" % seed, flush=True)


def main():
    ap = argparse.ArgumentParser(description="benchmark self-tests")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    seeds = ap.parse_args().seeds

    run.build()
    first = {}
    for i, seed in enumerate(seeds):
        raws = {w: check_run(w, seed, 1 if i == 0 else 0) for w in run.WORKLOADS}
        cross_engine(raws["t6-auto"], seed)
        if i == 0:
            first = raws
    for workload in run.WORKLOADS:
        again = run.run_raw(workload, seeds[0], 1, 0)
        if fingerprint(again) != fingerprint(first[workload]):
            fail("%s seed %d: outputs differ between two processes"
                 % (workload, seeds[0]))
        print("ok   determinism %s seed %d" % (workload, seeds[0]), flush=True)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
