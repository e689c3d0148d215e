// Time-to-completion benchmark for the FACTOR flow (see perfbench/README.md).
//
// One process runs one named workload: fixed work under deterministic caps
// (explicit engine options, a per-solve conflict cap, a work-quota backstop
// and no wall-clock budget), repeated as whole passes for about --seconds.
// It times every call into the library's public functions, snapshots the
// global obs::Registry around each row, and writes the raw measurements as
// one JSON document to --raw. perfbench/run.py turns that document into the
// reported metrics and runs the output checks.
//
// With --trace 1 the passes alternate between untraced and traced; a traced
// section is one set-up plus one pass under obs::Tracer, written as NDJSON
// to <--raw>.trace.<k>.ndjson.
//
//   factor_perfbench --workload t6-auto --seed 1 --seconds 60 --trace 0 \
//       --raw out.json
#include "atpg/bist.hpp"
#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "core/extractor.hpp"
#include "core/transform.hpp"
#include "designs/designs.hpp"
#include "elab/elaborator.hpp"
#include "obs/obs.hpp"
#include "rtl/ast.hpp"
#include "rtl/parser.hpp"
#include "util/diagnostics.hpp"
#include "util/journal.hpp"
#include "util/phase.hpp"
#include "util/run_guard.hpp"
#include "util/sysinfo.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

extern char** environ;

namespace {

using namespace factor;

// ---- fixed work --------------------------------------------------------------

constexpr size_t kAtpgJobs = 4;
/// Per-solve conflict cap and per-fault PODEM backtrack cap. A few faults
/// of every row hit them, and each such fault costs the full cap, so the
/// caps set how long a pass takes; at these values a t6-auto pass takes
/// about three seconds, so a run holds some twenty passes and their median
/// spans the host's quiet and slow stretches alike.
constexpr uint64_t kSatConflictBudget = 500;
constexpr uint32_t kMaxBacktracks = 100;
/// The random phase always runs all its batches. With the default stale
/// stop (3 batches without a new detection), or with 64 or 128 batches,
/// whether one more hard fault of arm_exc was left to PODEM and SAT
/// depended on the seed; on such seeds a pass took up to 45% longer and
/// peak memory almost doubled. 512 batches detected it on every seed tried.
constexpr size_t kRandomBatches = 512;
/// Work-quota backstop per ATPG row, in guard ticks per stuck-at fault site
/// (two per net). The engine ticks once per random batch, targeted fault and
/// SAT attempt, so rows use about one tick per collapsed fault; a row that
/// reaches the quota is reported as failed.
constexpr uint64_t kQuotaTicksPerFault = 8;
constexpr uint64_t kQuotaSlack = 1024;
constexpr size_t kBistPatterns = 16384;
/// Parallel-pattern width of every fault simulation. The width shapes the
/// random-pattern stream, so it is fixed here rather than left to the
/// build's ISA: the work is the same whatever flags the library has.
constexpr size_t kSimWidthBits = 256;
/// Set-up repetitions before the first pass and after every pass; the
/// median of all of them is reported as setup_s.
constexpr int kSetupRepeats = 15;
constexpr int kSetupRepeatsPerPass = 1;
/// Untraced passes every run makes, however long they take. run.py reports
/// each row's median or fastest time over the passes: the host alternates
/// between normal and markedly slower phases that last seconds to minutes.
constexpr size_t kMinPasses = 3;
constexpr size_t kMaxPasses = 2000;

const char* const kT6Rows[] = {"arm_exc", "arm_forward"};
const char* const kBistRows[] = {"arm_alu", "regfile_struct", "arm_exc",
                                 "arm_forward"};

/// Registry counters recorded as per-row and per-pass deltas.
const char* const kCounters[] = {
    "elab.instances",
    "extract.cache.hits",
    "extract.cache.misses",
    "synth.gates_built",
    "synth.optimize.gates_removed",
    "atpg.random.sequences",
    "atpg.abort.backtrack_limit",
    "atpg.abort.depth_limit",
    "atpg.abort.sat_budget",
    "atpg.abort.time_budget",
    "atpg.podem.calls",
    "atpg.podem.tests",
    "atpg.podem.decisions",
    "atpg.podem.simulations",
    "fault_sim.gate_evals",
    "fault_sim.faulty_frames",
    "fault_sim.events_skipped",
    "fault_sim.faults_dropped",
    "sat.solves",
    "sat.conflicts",
    "sat.propagations",
    "sat.learned_clauses",
    "atpg.pool.tasks",
    "atpg.pool.steals",
    "atpg.pool.idle_ns",
};

// ---- measurement helpers -------------------------------------------------------

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::vector<uint64_t> snapshot_counters() {
    std::vector<uint64_t> v;
    for (const char* name : kCounters) v.push_back(obs::counter(name).value());
    return v;
}

void add_counter_deltas(obs::Doc& doc, const std::vector<uint64_t>& before) {
    const std::vector<uint64_t> after = snapshot_counters();
    for (size_t i = 0; i < after.size(); ++i) {
        doc.add(std::string("c.") + kCounters[i], after[i] - before[i]);
    }
}

/// Wall and CPU time plus counter deltas over one measured span of work.
class Meter {
  public:
    Meter() : counters_(snapshot_counters()), cpu0_(cpu_seconds()) {}

    void finish(obs::Doc& doc) const {
        doc.add("wall_s", since(t0_)).add("cpu_s", cpu_seconds() - cpu0_);
        add_counter_deltas(doc, counters_);
    }

  private:
    std::vector<uint64_t> counters_;
    double cpu0_;
    Clock::time_point t0_ = Clock::now();
};

char status_char(atpg::FaultStatus s) {
    switch (s) {
    case atpg::FaultStatus::Undetected: return 'U';
    case atpg::FaultStatus::Detected: return 'D';
    case atpg::FaultStatus::Untestable: return 'T';
    case atpg::FaultStatus::Aborted: return 'A';
    case atpg::FaultStatus::Redundant: return 'R';
    }
    return '?';
}

// ---- the design under test -----------------------------------------------------

struct Loaded {
    std::unique_ptr<rtl::Design> design;
    util::DiagEngine diags;
    std::unique_ptr<elab::ElaboratedDesign> elaborated;

    [[nodiscard]] const elab::InstNode& mut(const std::string& name) const {
        for (const auto& m : designs::arm2z_muts()) {
            if (m.display_name != name) continue;
            const auto* node = elaborated->find_by_path(m.instance_path);
            if (node == nullptr) break;
            return *node;
        }
        throw std::runtime_error("arm2z has no MUT '" + name + "'");
    }
};

/// Parse and elaborate arm2z, with one span around each public call;
/// `row` labels the spans ("setup" or "pass").
std::unique_ptr<Loaded> load_arm2z(const char* row) {
    auto ld = std::make_unique<Loaded>();
    ld->design = std::make_unique<rtl::Design>();
    {
        obs::Span span("rtl.parse");
        span.attr("row", row);
        rtl::Parser::parse_source(designs::arm2z_source(), "arm2z.v",
                                  *ld->design, ld->diags);
    }
    if (ld->diags.has_errors()) {
        throw std::runtime_error("arm2z failed to parse:\n" +
                                 ld->diags.dump());
    }
    {
        obs::Span span("elab.elaborate");
        span.attr("row", row);
        elab::Elaborator el(*ld->design, ld->diags);
        ld->elaborated = el.elaborate(designs::kArm2zTop);
    }
    if (!ld->elaborated) {
        throw std::runtime_error("arm2z failed to elaborate:\n" +
                                 ld->diags.dump());
    }
    return ld;
}

core::TransformOptions table6_transform_options() {
    core::TransformOptions topts;
    topts.pier_allowlist = designs::arm2z_piers();
    return topts;
}

// ---- workloads ---------------------------------------------------------------

struct Config {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string raw_path;
};

/// What set-up leaves behind for the passes.
struct Setup {
    std::unique_ptr<Loaded> loaded;
    std::unique_ptr<synth::Netlist> chip; // bist-chip only
    std::vector<size_t> chip_scope_faults;
};

uint64_t bist_seed(uint64_t seed) {
    // The LFSR needs a non-zero 32-bit seed, with room for the per-word
    // offsets run_bist adds.
    return 1 + seed % 0x7fffffffull;
}

class Bench {
  public:
    explicit Bench(Config cfg) : cfg_(std::move(cfg)) {
        // t6-sat is the same flow under the SAT engine alone. It is not a
        // benchmark workload; selftest.py runs it to check that PODEM and
        // SAT never disagree on a fault.
        if (cfg_.workload == "t6-auto" || cfg_.workload == "t6-sat") {
            engine_ = cfg_.workload == "t6-sat" ? atpg::EngineKind::Sat
                                                : atpg::EngineKind::Auto;
            rows_.assign(std::begin(kT6Rows), std::end(kT6Rows));
        } else if (cfg_.workload == "bist-chip") {
            rows_.assign(std::begin(kBistRows), std::end(kBistRows));
        } else {
            throw std::runtime_error("unknown workload '" + cfg_.workload +
                                     "' (t6-auto, bist-chip, t6-sat)");
        }
    }

    [[nodiscard]] bool is_bist() const { return cfg_.workload == "bist-chip"; }
    [[nodiscard]] atpg::EngineKind engine() const { return engine_; }

    Setup setup() {
        Setup s;
        s.loaded = load_arm2z("setup");
        if (is_bist()) {
            core::TransformBuilder builder(*s.loaded->elaborated,
                                           s.loaded->diags);
            {
                obs::Span span("core.full_design");
                span.attr("row", "setup");
                s.chip = std::make_unique<synth::Netlist>(builder.full_design());
            }
            for (const auto& row : rows_) {
                atpg::FaultList list(
                    *s.chip, core::TransformBuilder::net_prefix(
                                 s.loaded->mut(row)));
                s.chip_scope_faults.push_back(list.size());
            }
        }
        return s;
    }

    /// One pass over every row of the workload; returns the pass record.
    obs::Doc pass(Setup& s, std::vector<obs::Doc>& rows) {
        obs::Doc pass_doc;
        Meter meter;
        if (is_bist()) {
            bist_pass(s, rows);
        } else {
            t6_pass(s, rows);
        }
        meter.finish(pass_doc);
        return pass_doc;
    }

  private:
    void t6_pass(Setup& s, std::vector<obs::Doc>& out) {
        const Loaded& ld = *s.loaded;
        core::ExtractionSession session(*ld.elaborated, core::Mode::Composed,
                                        s.loaded->diags);
        core::TransformBuilder builder(*ld.elaborated, s.loaded->diags);
        const core::TransformOptions topts = table6_transform_options();
        for (const auto& row : rows_) {
            obs::Doc doc;
            doc.add("row", row);
            Meter meter;
            const auto t_build = Clock::now();
            core::TransformedModule tm;
            {
                obs::Span span("core.build");
                span.attr("row", row);
                tm = builder.build(ld.mut(row), session, topts);
            }
            const double build_s = since(t_build);

            util::RunGuard guard(util::GuardLimits{
                0.0, kQuotaTicksPerFault * 2 * tm.netlist.num_nets() + kQuotaSlack,
                0, 0});
            atpg::EngineOptions opts;
            opts.engine = engine_;
            opts.jobs = kAtpgJobs;
            opts.sat_conflict_budget = kSatConflictBudget;
            opts.seed = cfg_.seed;
            opts.time_budget_s = 0.0;
            opts.guard = &guard;
            opts.scope_prefix = tm.mut_prefix;
            opts.max_backtracks = kMaxBacktracks;
            opts.retry_rounds = 0;
            opts.collect_tests = false;
            opts.sim_width = kSimWidthBits;
            opts.random_batches = kRandomBatches;
            opts.random_stale_limit = kRandomBatches;

            const auto t_atpg = Clock::now();
            atpg::EngineResult r;
            {
                obs::Span span("atpg.run");
                span.attr("row", row);
                r = atpg::run_atpg(tm.netlist, opts);
            }
            const double atpg_s = since(t_atpg);
            meter.finish(doc);

            std::string statuses;
            statuses.reserve(r.statuses.size());
            for (auto st : r.statuses) statuses.push_back(status_char(st));
            doc.add("build_s", build_s)
                .add("atpg_s", atpg_s)
                .add("transform_status", std::string(util::to_string(tm.status)))
                .add("status", std::string(util::to_string(r.status)))
                .add("status_detail", r.status_detail)
                .add("guard_stopped", guard.stopped())
                .add("engine", r.engine)
                .add("threads", r.threads)
                .add("sim_width_bits", r.sim_width_bits)
                .add("faults", r.total_faults)
                .add("detected", r.detected)
                .add("redundant", r.redundant)
                .add("untestable", r.untestable)
                .add("aborted", r.aborted)
                .add("random_sequences", r.random_sequences)
                .add("deterministic_tests", r.deterministic_tests)
                .add("sat_attempts", r.sat_attempts)
                .add("sat_recovered", r.sat_recovered)
                .add("sat_redundant", r.sat_redundant)
                .add("surrounding_gates", tm.surrounding_gates)
                .add("mut_gates", tm.mut_gates)
                .add("statuses", statuses);
            out.push_back(std::move(doc));
        }
    }

    void bist_pass(Setup& s, std::vector<obs::Doc>& out) {
        const Loaded& ld = *s.loaded;
        for (size_t i = 0; i < rows_.size(); ++i) {
            const std::string& row = rows_[i];
            obs::Doc doc;
            doc.add("row", row);
            atpg::BistOptions opts;
            opts.patterns = kBistPatterns;
            opts.seed = bist_seed(cfg_.seed);
            opts.sim_width = kSimWidthBits;
            opts.scope_prefix = core::TransformBuilder::net_prefix(ld.mut(row));
            Meter meter;
            atpg::BistResult r;
            {
                obs::Span span("atpg.bist");
                span.attr("row", row);
                r = atpg::run_bist(*s.chip, opts);
            }
            meter.finish(doc);
            const size_t faults = s.chip_scope_faults[i];
            doc.add("faults", faults)
                .add("coverage_percent", r.coverage_percent)
                .add("patterns_applied", r.patterns_applied)
                .add("frames_per_sequence", opts.frames_per_sequence)
                .add("good_signature", r.good_signature);
            out.push_back(std::move(doc));
        }
    }

    Config cfg_;
    atpg::EngineKind engine_ = atpg::EngineKind::Auto;
    std::vector<std::string> rows_;
};

// ---- main ------------------------------------------------------------------

/// No FACTOR_* variable may change a workload: engine, conflict cap, jobs,
/// sim width/mode and the bench budget knobs are all read from the
/// environment when an option is left at its default.
std::vector<std::string> clear_factor_env() {
    std::vector<std::string> names;
    for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
        std::string kv(*e);
        if (kv.rfind("FACTOR_", 0) != 0) continue;
        names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const auto& n : names) unsetenv(n.c_str());
    return names;
}

Config parse_args(int argc, char** argv) {
    Config c;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload") {
            c.workload = v;
        } else if (a == "--seed") {
            c.seed = std::stoull(v);
        } else if (a == "--seconds") {
            c.seconds = std::stod(v);
        } else if (a == "--trace") {
            c.trace = v == "1";
        } else if (a == "--raw") {
            c.raw_path = v;
        } else {
            throw std::runtime_error("unknown argument " + a);
        }
    }
    if (c.workload.empty() || c.raw_path.empty()) {
        throw std::runtime_error("--workload and --raw are required");
    }
    return c;
}

std::string json_array(const std::vector<std::string>& items) {
    std::string s = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) s += ',';
        s += items[i];
    }
    return s + "]";
}

int run(const Config& cfg, const std::vector<std::string>& cleared) {
    Bench bench(cfg);

    // Set-up is timed kSetupRepeats times up front and kSetupRepeatsPerPass
    // times after every pass, so its median spans the whole run.
    std::vector<std::string> setup_samples;
    auto time_setups = [&](int n) {
        for (int i = 0; i < n; ++i) {
            const auto t0 = Clock::now();
            Setup discarded = bench.setup();
            setup_samples.push_back(obs::json_number(since(t0)));
        }
    };
    time_setups(kSetupRepeats - 1);
    const auto t_setup = Clock::now();
    Setup setup = bench.setup();
    setup_samples.push_back(obs::json_number(since(t_setup)));

    std::vector<std::string> passes;
    std::vector<std::string> trace_files;
    size_t untraced = 0;
    size_t traced = 0;
    double longest = 0.0;
    const auto t_start = Clock::now();
    for (size_t k = 0; k < kMaxPasses; ++k) {
        const bool trace_this = cfg.trace && (k % 2 == 1);
        std::vector<obs::Doc> rows;
        obs::Doc pass_doc;
        obs::Doc setup_part;
        if (trace_this) {
            // A traced section: one set-up plus one pass, spans in memory.
            obs::Tracer::global().start("");
            Meter meter;
            Setup traced_setup = bench.setup();
            meter.finish(setup_part);
            pass_doc = bench.pass(traced_setup, rows);
            const std::string ndjson = obs::Tracer::global().stop();
            const std::string path =
                cfg.raw_path + ".trace." + std::to_string(traced) + ".ndjson";
            if (!util::atomic_publish(path, ndjson)) {
                throw std::runtime_error("cannot write trace " + path);
            }
            trace_files.push_back("\"" + obs::json_escape(path) + "\"");
            ++traced;
        } else {
            pass_doc = bench.pass(setup, rows);
            ++untraced;
        }
        longest = std::max(longest, pass_doc.number("wall_s"));
        std::vector<std::string> row_json;
        for (const auto& r : rows) row_json.push_back(r.to_json());
        pass_doc.add("traced", trace_this);
        passes.push_back("{\"pass\":" + pass_doc.to_json() +
                         ",\"setup\":" + setup_part.to_json() +
                         ",\"rows\":" + json_array(row_json) + "}");
        std::fprintf(stderr, "perfbench: %s pass %zu%s %.3fs\n",
                     cfg.workload.c_str(), k, trace_this ? " (traced)" : "",
                     pass_doc.number("wall_s"));
        time_setups(kSetupRepeatsPerPass);
        const bool enough = cfg.trace ? untraced > 0 && traced > 0
                                      : untraced >= kMinPasses;
        if (enough && since(t_start) + longest > cfg.seconds) break;
    }

    std::vector<std::string> env_json;
    for (const auto& n : cleared) {
        env_json.push_back("\"" + obs::json_escape(n) + "\"");
    }
    obs::Doc meta;
    meta.add("workload", cfg.workload)
        .add("seed", cfg.seed)
        .add("bist_seed", bist_seed(cfg.seed))
        .add("engine", std::string(bench.is_bist()
                                       ? "none"
                                       : atpg::to_string(bench.engine())))
        .add("jobs", bench.is_bist() ? size_t{1} : kAtpgJobs)
        .add("sat_conflict_budget", kSatConflictBudget)
        .add("bist_patterns", kBistPatterns)
        .add("sim_width_bits", kSimWidthBits)
        .add("peak_rss_bytes", util::peak_rss_bytes());
    std::ostringstream out;
    out << "{\"schema\":\"factor.perfbench.raw.v1\",\"meta\":" << meta.to_json()
        << ",\"env_cleared\":" << json_array(env_json)
        << ",\"setup_s\":" << json_array(setup_samples)
        << ",\"passes\":" << json_array(passes)
        << ",\"trace_files\":" << json_array(trace_files) << "}\n";
    if (!util::atomic_publish(cfg.raw_path, out.str())) {
        throw std::runtime_error("cannot write " + cfg.raw_path);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const auto cleared = clear_factor_env();
        return run(parse_args(argc, argv), cleared);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "factor_perfbench: %s\n", e.what());
        return 2;
    }
}
