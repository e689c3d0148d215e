#!/usr/bin/env python3
"""Time-to-completion benchmark for the FACTOR flow.

    python3 perfbench/run.py --workload t6-auto --seed 1 --seconds 60 --trace 0

Builds perfbench/factor_perfbench from the library sources (CMake, Release,
into .bench_build/perfbench), runs one workload in one process, checks its
outputs and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_DIR = os.path.join(BUILD_ROOT, "perfbench-runs")
BINARY = os.path.join(BUILD_DIR, "factor_perfbench")

WORKLOADS = ("t6-auto", "bist-chip")
MUTS = ("arm_alu", "regfile_struct", "arm_exc", "arm_forward")
# t6-sat runs the t6-auto rows under the SAT engine alone; it is not a
# benchmark workload, selftest.py uses it for the cross-engine check.
T6_ENGINE = {"t6-auto": "auto", "t6-sat": "sat"}
ROWS = {"t6-auto": ("arm_exc", "arm_forward"), "t6-sat": ("arm_exc", "arm_forward"),
        "bist-chip": MUTS}
ATPG_JOBS = 4
# Collapsed stuck-at fault totals, pinned by hand: the Table 6 transformed
# modules (composed extraction, arm2z PIER allowlist) and the MUT scopes of
# the processor-level netlist. Neither depends on the seed.
TRANSFORMED_FAULTS = {"arm_exc": 95, "arm_forward": 45}
CHIP_SCOPE_FAULTS = {"arm_alu": 1404, "regfile_struct": 5661,
                     "arm_exc": 95, "arm_forward": 45}
# Hard stop for one benchmark process; a run must end within 180 s.
PROCESS_TIMEOUT_S = 170

# Span name -> per-layer self-time metric. Spans opened by the benchmark
# (rtl.parse, core.build, core.full_design, atpg.bist, and the outer
# elab.elaborate / atpg.run)
# fold together with the spans the library emits under the same layer.
SPAN_LAYER = {
    "rtl.parse": "rtl.parse_s",
    "elab.elaborate": "elab.elaborate_s",
    "core.build": "core.build_s",
    "core.full_design": "core.build_s",
    "transform.build": "core.build_s",
    "extract.mut": "core.extract_s",
    "synth.run": "synth.run_s",
    "synth.optimize": "synth.optimize_s",
    "synth.optimize.pass": "synth.optimize_s",
    "atpg.run": "atpg.run_s",
    "atpg.random_phase": "atpg.random_s",
    "atpg.deterministic_phase": "atpg.deterministic_s",
    "atpg.worker": "atpg.worker_busy_s",
    "atpg.retry_phase": "atpg.retry_s",
    "atpg.sat_phase": "atpg.sat_escalation_s",
    "atpg.compaction": "atpg.compaction_s",
    "atpg.bist": "atpg.bist_s",
    "sat.solve": "sat.solve_s",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---- build -------------------------------------------------------------------

def build():
    """Configure and build the benchmark binary; exit 1 when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src" % ROOT)
        sys.exit(1)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(1)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "factor_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log("build failed: " + " ".join(cmd))
                sys.exit(1)


# ---- one benchmark process ---------------------------------------------------

def run_raw(workload, seed, seconds, trace):
    """Run the binary once; returns its raw document with the trace events
    of every traced section attached as raw["traces"]."""
    os.makedirs(RUN_DIR, exist_ok=True)
    raw_path = os.path.join(RUN_DIR, "%s.%d.%d.json" % (workload, seed, trace))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--raw", raw_path]
    try:
        rc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                            timeout=PROCESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, PROCESS_TIMEOUT_S))
        sys.exit(1)
    if rc != 0:
        log("factor_perfbench exited with code %d" % rc)
        sys.exit(1)
    with open(raw_path) as f:
        raw = json.load(f)
    raw["traces"] = []
    for path in raw["trace_files"]:
        with open(path) as f:
            raw["traces"].append([json.loads(line) for line in f if line.strip()])
        os.remove(path)
    return raw


# ---- statistics --------------------------------------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def self_times(events):
    """Per-layer self time in seconds: each span's duration minus the part
    its child spans on the same thread cover. Spans on pool threads are
    summed as busy time."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append(ev)
    totals = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["start_us"], e["depth"]))
        open_at = {}  # depth -> innermost span opened at that depth
        child_us = {}
        for ev in evs:
            parent = open_at.get(ev["depth"] - 1)
            if parent is not None:
                child_us[id(parent)] = child_us.get(id(parent), 0) + ev["dur_us"]
            open_at[ev["depth"]] = ev
        for ev in evs:
            layer = SPAN_LAYER.get(ev["name"])
            if layer is None:  # still a child of its parent, but no layer
                continue
            own = max(0, ev["dur_us"] - child_us.get(id(ev), 0))
            totals[layer] = totals.get(layer, 0.0) + own * 1e-6
    return totals


# ---- output checks -------------------------------------------------------------

def check(raw):
    """Check every row of every pass; returns (attempted, failure messages
    keyed by (pass index, row name))."""
    workload = raw["meta"]["workload"]
    passes = raw["passes"]
    failures = {}

    def fail(k, row, msg):
        failures.setdefault((k, row["row"]), []).append(msg)

    first = {row["row"]: row for row in passes[0]["rows"]}
    signatures = set()
    attempted = 0
    for k, p in enumerate(passes):
        names = [row["row"] for row in p["rows"]]
        expected = ROWS[workload]
        if tuple(names) != tuple(expected):
            failures.setdefault((k, "pass"), []).append(
                "rows %s, expected %s" % (names, list(expected)))
        for row in p["rows"]:
            attempted += 1
            name = row["row"]
            ref = first.get(name, row)
            if workload in T6_ENGINE:
                n = row["faults"]
                st = row["statuses"]
                if n != TRANSFORMED_FAULTS[name]:
                    fail(k, row, "faults %d != pinned %d" % (n, TRANSFORMED_FAULTS[name]))
                if row["detected"] + row["redundant"] + row["untestable"] + row["aborted"] != n:
                    fail(k, row, "classified faults do not sum to %d" % n)
                if len(st) != n:
                    fail(k, row, "%d statuses for %d faults" % (len(st), n))
                counts = {c: st.count(c) for c in "DRTAU"}
                if (counts["D"], counts["R"], counts["T"], counts["A"], counts["U"]) != (
                        row["detected"], row["redundant"], row["untestable"], row["aborted"], 0):
                    fail(k, row, "status vector disagrees with the counts")
                if row["status"] != "ok" or row["transform_status"] != "ok":
                    fail(k, row, "status %s / transform %s (%s)" % (
                        row["status"], row["transform_status"], row["status_detail"]))
                if row["guard_stopped"]:
                    fail(k, row, "work-quota backstop fired")
                if (row["engine"], row["threads"], row["sim_width_bits"]) != (
                        T6_ENGINE[workload], ATPG_JOBS, raw["meta"]["sim_width_bits"]):
                    fail(k, row, "ran engine %s, %d threads, width %d" % (
                        row["engine"], row["threads"], row["sim_width_bits"]))
                if st != ref["statuses"]:
                    fail(k, row, "per-fault statuses differ from pass 0 (nondeterminism)")
            else:
                if row["faults"] != CHIP_SCOPE_FAULTS[name]:
                    fail(k, row, "faults %d != pinned %d" % (row["faults"], CHIP_SCOPE_FAULTS[name]))
                if row["patterns_applied"] != raw["meta"]["bist_patterns"]:
                    fail(k, row, "applied %d patterns" % row["patterns_applied"])
                if not 0.0 < row["coverage_percent"] <= 100.0:
                    fail(k, row, "coverage %r out of range" % row["coverage_percent"])
                if row["coverage_percent"] != ref["coverage_percent"]:
                    fail(k, row, "coverage differs from pass 0 (nondeterminism)")
                signatures.add(row["good_signature"])
    if len(signatures) > 1:
        # The good machine does not depend on the fault scope.
        for k, p in enumerate(passes):
            for row in p["rows"]:
                fail(k, row, "good-machine MISR signatures differ across scopes: %s"
                     % sorted(signatures))
    return attempted, failures


# ---- metrics -------------------------------------------------------------------

def row_time(raw, passes, name, key):
    """One row's time over the given passes (0 if the workload has no such
    row). bist-chip is single-threaded and does identical work every pass,
    so host noise only ever adds time and the fastest run is the least
    disturbed one. Parallel PODEM speculates, so a t6-auto row's own work
    varies from pass to pass, the fastest is a lucky outlier, and the
    median is its typical cost."""
    values = [row[key] for p in passes for row in p["rows"] if row["row"] == name]
    if not values:
        return 0.0
    return min(values) if raw["meta"]["workload"] == "bist-chip" else statistics.median(values)


def end_to_end(raw):
    untraced = [p for p in raw["passes"] if not p["pass"]["traced"]]
    rows = ROWS[raw["meta"]["workload"]]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "completion_s": (sum(row_time(raw, untraced, r, "wall_s") for r in rows), "s"),
        "cpu_s": (sum(row_time(raw, untraced, r, "cpu_s") for r in rows), "s"),
        "peak_rss_mb": (raw["meta"]["peak_rss_bytes"] / 2.0 ** 20, "MB"),
    }


def quality(workload, rows):
    """Fault totals and test-set size over one pass's rows."""
    faults = sum(r["faults"] for r in rows)
    if workload == "t6-auto":
        detected = sum(r["detected"] for r in rows)
        settled = sum(r["detected"] + r["redundant"] + r["untestable"] for r in rows)
        sequences = sum(r["random_sequences"] + r["deterministic_tests"] for r in rows)
    else:
        detected = sum(round(r["coverage_percent"] * r["faults"] / 100.0) for r in rows)
        settled = detected
        sequences = sum(r["patterns_applied"] // r["frames_per_sequence"] for r in rows)
    return 100.0 * ratio(detected, faults), 100.0 * ratio(settled, faults), sequences


def section_layers(raw, p, events):
    """Per-layer metrics of one traced section (one set-up plus one pass)."""
    workload = raw["meta"]["workload"]
    rows = p["rows"]

    def c(name):
        return p["setup"].get("c." + name, 0) + p["pass"].get("c." + name, 0)

    m = {name: 0.0 for name in set(SPAN_LAYER.values())}
    m.update(self_times(events))
    m["elab.instances"] = p["setup"]["c.elab.instances"]
    hits, exp = c("extract.cache.hits"), c("extract.cache.misses")
    m["core.extract.expansions"] = exp
    m["core.extract.hits"] = hits
    m["core.extract.hit_ratio"] = ratio(hits, hits + exp)
    m["core.surrounding_gates"] = sum(r.get("surrounding_gates", 0) for r in rows)
    m["core.mut_gates"] = sum(r.get("mut_gates", 0) for r in rows)
    built, removed = c("synth.gates_built"), c("synth.optimize.gates_removed")
    m["synth.gates_built"] = built
    m["synth.gates_removed"] = removed
    m["synth.reduction_pct"] = 100.0 * ratio(removed, built)
    for name in ("atpg.random.sequences", "atpg.abort.backtrack_limit",
                 "atpg.abort.depth_limit", "atpg.abort.sat_budget",
                 "atpg.podem.calls", "atpg.podem.tests", "atpg.podem.decisions",
                 "atpg.podem.simulations", "fault_sim.gate_evals",
                 "fault_sim.faulty_frames", "fault_sim.events_skipped",
                 "fault_sim.faults_dropped", "sat.solves", "sat.conflicts",
                 "sat.propagations", "sat.learned_clauses"):
        m[name] = c(name)
    m["atpg.podem.yield"] = ratio(m["atpg.podem.tests"], m["atpg.podem.calls"])
    evals, skipped = m["fault_sim.gate_evals"], m["fault_sim.events_skipped"]
    m["fault_sim.skip_ratio"] = ratio(skipped, skipped + evals)
    m["fault_sim.gate_evals_per_s"] = ratio(evals, p["pass"]["wall_s"])
    attempts = sum(r.get("sat_attempts", 0) for r in rows)
    settled = sum(r.get("sat_recovered", 0) + r.get("sat_redundant", 0) for r in rows)
    m["sat.attempts"] = attempts
    m["sat.solves_per_attempt"] = ratio(m["sat.solves"], attempts)
    m["sat.yield"] = ratio(settled, attempts)
    m["sat.propagations_per_attempt"] = ratio(m["sat.propagations"], attempts)
    m["util.pool.tasks"] = c("atpg.pool.tasks")
    m["util.pool.steals"] = c("atpg.pool.steals")
    idle_s = c("atpg.pool.idle_ns") * 1e-9
    m["util.pool.idle_s"] = idle_s
    atpg_wall = sum(r.get("atpg_s", 0.0) for r in rows)
    pool_wall = (ATPG_JOBS - 1) * atpg_wall if workload == "t6-auto" else 0.0
    m["util.pool.busy_share"] = max(0.0, 1.0 - idle_s / pool_wall) if pool_wall else 0.0
    cov, eff, seqs = quality(workload, rows)
    m["coverage_pct"] = cov
    m["efficiency_pct"] = eff
    m["test_sequences"] = seqs
    return m


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"), ("_ratio", "ratio"),
         ("_share", "ratio"), (".yield", "ratio"))


def unit_of(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(raw):
    untraced = [p for p in raw["passes"] if not p["pass"]["traced"]]
    traced = [p for p in raw["passes"] if p["pass"]["traced"]]
    sections = [section_layers(raw, p, ev) for p, ev in zip(traced, raw["traces"])]
    m = {name: (statistics.median(s[name] for s in sections), unit_of(name))
         for name in sections[0]}
    for name in MUTS:
        m["row_s." + name] = (row_time(raw, untraced, name, "wall_s"), "s")
    walls = [p["pass"]["wall_s"] for p in untraced]
    m["completion_s.p90"] = (statistics.quantiles(walls, n=10, method="inclusive")[-1]
                             if len(walls) > 1 else walls[0], "s")
    plain = statistics.median(walls)
    with_trace = statistics.median(p["pass"]["wall_s"] for p in traced)
    m["obs.trace_overhead_pct"] = (100.0 * (with_trace - plain) / plain, "%")
    return m


# ---- report --------------------------------------------------------------------

def evaluate(raw, trace):
    attempted, failures = check(raw)
    for (k, row), msgs in sorted(failures.items()):
        for msg in msgs:
            log("check failed: pass %d row %s: %s" % (k, row, msg))
    metrics = per_layer(raw) if trace else end_to_end(raw)
    failed = len(failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build()
    raw = run_raw(args.workload, args.seed, args.seconds, args.trace)
    result = evaluate(raw, args.trace)
    meta = raw["meta"]
    print("# workload=%s seed=%d engine=%s jobs=%d sim_width_bits=%d "
          "sat_conflict_budget=%d passes=%d env_cleared=%s" % (
              meta["workload"], meta["seed"], meta["engine"], meta["jobs"],
              meta["sim_width_bits"], meta["sat_conflict_budget"],
              len(raw["passes"]), ",".join(raw["env_cleared"]) or "-"))
    for name, m in result["metrics"].items():
        print("#   %-34s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
