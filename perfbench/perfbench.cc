/**
 * @file
 * The repository benchmark: times the simulator's public calls from
 * outside, one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--source-id ID]
 *
 * Every collective operation takes the path mtsim takes:
 * topo::makeTopology -> Algorithm::build (or composeHierarchical) ->
 * coll::validateSchedule -> runtime::Machine::tryRun ->
 * runtime::writeMetricsJson. Training operations call
 * train::evaluateIteration. Topologies and Machines are built during
 * set-up (timed K times, median reported as setup_s). Round 0 runs
 * every operation once and checks its outputs; further rounds repeat
 * the same operations until --seconds have elapsed, and every repeat
 * must return a result identical to round 0's. wall_s sums each
 * operation's median host time over the timed rounds.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics (end-to-end with --trace 0, per-layer with
 * --trace 1). See README.md for the metrics and workloads.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "accel/model_zoo.hh"
#include "accel/systolic.hh"
#include "coll/algorithm.hh"
#include "coll/data_plane.hh"
#include "coll/functional.hh"
#include "coll/hierarchical.hh"
#include "coll/schedule.hh"
#include "coll/validate.hh"
#include "common/random.hh"
#include "net/flit_network.hh"
#include "ni/schedule_table.hh"
#include "obs/profile.hh"
#include "obs/results.hh"
#include "runtime/machine.hh"
#include "runtime/metrics.hh"
#include "topo/factory.hh"
#include "topo/hierarchical.hh"
#include "train/trainer.hh"
#include "tracer.hh"

using namespace multitree;
using perfbench::Clock;
using perfbench::secondsBetween;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** One all-reduce operation of a collective workload. */
struct CollPoint {
    const char *topo;
    const char *algo;        ///< variant name or hier:<island>+<spine>
    std::uint64_t bytes;     ///< nominal payload; the seed adds <= 1/64
    bool flit = false;
    bool in_network = false; ///< mcast+reduce fabric
};

struct CollWorkload {
    const char *name;
    bool lossy; ///< seeded drop/corrupt plan, reliability on
    std::vector<CollPoint> points;
};

constexpr std::uint64_t KiB = 1024;

/** Every registered variant at 4, 8 and 16 KiB on the flit backend
 *  (hdrm only runs on a bipartite fabric). */
std::vector<CollPoint>
lossyPoints()
{
    std::vector<CollPoint> points;
    for (const coll::AlgorithmVariant &v : coll::algorithmVariants()) {
        const char *topo = v.name == "hdrm" ? "bigraph-4x8" : "torus-8x8";
        for (std::uint64_t kib : {4, 8, 16})
            points.push_back({topo, v.name.c_str(), kib * KiB, true});
    }
    return points;
}

const std::vector<CollWorkload> &
collWorkloads()
{
    static const std::vector<CollWorkload> w = {
        {"flow-sweep",
         false,
         {
             {"torus-16x16", "multitree", 256 * KiB},
             {"torus-16x16", "ring", 64 * KiB},
             {"torus-32x32", "ring", 16 * KiB},
             {"hier:torus-4x4+fattree-16", "hier:multitree+ring",
              256 * KiB},
         }},
        {"flit-saturated",
         false,
         {
             {"torus-8x8", "multitree", 1024 * KiB, true},
             {"fattree-16", "ring", 1024 * KiB, true},
             {"fattree-16", "multitree", 1024 * KiB, true, true},
         }},
        {"flit-latency-lossy", true, lossyPoints()},
    };
    return w;
}

/**
 * Timed rounds per run, whatever --seconds says: a median needs more
 * than one sample, and a fixed floor keeps the heap's high-water mark
 * (peak_rss_mib) from depending on how many rounds fit.
 */
constexpr int kMinRounds = 2;

/** dnn-train: Fig. 11 iterations on one fabric (flow backend). */
const char *const kTrainTopo = "torus-8x8";
const std::vector<std::string> kTrainModels = {"alexnet", "ncf",
                                               "fasterrcnn"};
const std::vector<std::string> kTrainAlgos = {"multitree", "ring"};

/**
 * Low-rate faults: every operation retries a handful of messages and
 * never exhausts its attempts (0.009^8 per transfer). Rarer faults
 * would make the simulated time hinge on whether any fault lands.
 */
constexpr double kDropProb = 0.006;
constexpr double kCorruptProb = 0.003;

// ------------------------------------------------------------------
// Command line and reporting helpers
// ------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
    std::string source_id = "unknown";
};

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 21;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "flow-sweep|flit-saturated|flit-latency-lossy|"
                 "dnn-train --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--source-id ID]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *flag)
{
    if (s.empty() || s.size() > 18
        || s.find_first_not_of("0123456789") != std::string::npos)
        usage((std::string(flag) + " needs a non-negative integer")
                  .c_str());
    return std::strtoull(s.c_str(), nullptr, 10);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = parseUint(v, "--seed");
        else if (a == "--seconds")
            o.seconds = static_cast<double>(parseUint(v, "--seconds"));
        else if (a == "--trace")
            o.trace = parseUint(v, "--trace") != 0;
        else if (a == "--trace-out")
            o.trace_out = v;
        else if (a == "--source-id")
            o.source_id = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.seconds < 1 || o.seconds > 600)
        usage("--seconds must be in [1, 600]");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Independent, reproducible stream per (seed, purpose, index). */
Rng
streamFor(std::uint64_t seed, std::uint64_t purpose, std::uint64_t idx)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull + purpose * 0x100000001b3ull
               + idx + 1);
}

/** Seeded payload: nominal plus up to 1/64 more, whole 64-byte units. */
std::uint64_t
seededBytes(std::uint64_t nominal, std::uint64_t seed, std::size_t idx)
{
    Rng rng = streamFor(seed, 1, idx);
    return nominal + 64 * rng.nextBounded(nominal / 64 / 64 + 1);
}

/** One recorded metric value with its unit. */
struct Metric {
    std::string name;
    double value;
    const char *unit;
};

/** Running totals of one workload's run. */
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems; ///< first few, for stderr

    void
    fail(const std::string &op, const std::string &why, bool wrong)
    {
        ++failed;
        if (wrong)
            correct = false;
        if (problems.size() < 8)
            problems.push_back(op + ": " + why);
    }
};

// ------------------------------------------------------------------
// Output checks (never inside a timed interval)
// ------------------------------------------------------------------

/**
 * Run @p sched through coll::runFunctional on seeded integer-valued
 * float inputs and compare every node's output with the element-wise
 * sum computed here. Runs in a forked child so the check's buffers
 * never count toward the benchmark process's peak RSS.
 */
bool
functionalSumHolds(const coll::Schedule &sched, std::uint64_t seed,
                   std::size_t idx)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        const std::size_t nodes = static_cast<std::size_t>(
            sched.num_nodes);
        const std::size_t elems = sched.total_bytes / 4;
        Rng rng = streamFor(seed, 2, idx);
        std::vector<std::vector<float>> in(nodes,
                                           std::vector<float>(elems));
        std::vector<float> sum(elems, 0.0f);
        for (auto &row : in) {
            for (std::size_t e = 0; e < elems; ++e) {
                row[e] = static_cast<float>(rng.nextBounded(8));
                sum[e] += row[e]; // integers < 2^24: exact in float
            }
        }
        const auto out = coll::runFunctional(sched, in);
        bool ok = out.size() == nodes;
        for (std::size_t n = 0; ok && n < nodes; ++n)
            ok = out[n] == sum;
        _exit(ok ? 0 : 1);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Bandwidth floor of an all-reduce: every node must receive at least
 * S payload bytes (one reduced value per element), and can take in at
 * most flit_bytes per cycle on each channel that ends at it.
 */
Tick
receiveBound(const topo::Topology &topo, std::uint64_t bytes,
             const net::NetworkConfig &cfg)
{
    std::vector<std::uint64_t> in_channels(
        static_cast<std::size_t>(topo.numNodes()), 0);
    for (const topo::Channel &ch : topo.channels())
        if (ch.dst < topo.numNodes())
            ++in_channels[static_cast<std::size_t>(ch.dst)];
    Tick bound = 0;
    for (std::uint64_t c : in_channels) {
        if (c == 0)
            return 0;
        bound = std::max<Tick>(bound, bytes / (c * cfg.flit_bytes));
    }
    return bound;
}

bool
sameResult(const runtime::RunReport &a, const runtime::RunReport &b)
{
    const runtime::RunResult &x = a.result, &y = b.result;
    return a.ok == b.ok && x.time == y.time && x.bandwidth == y.bandwidth
           && x.messages == y.messages
           && x.payload_flits == y.payload_flits
           && x.head_flits == y.head_flits && x.flit_hops == y.flit_hops
           && x.head_hops == y.head_hops
           && x.nop_windows == y.nop_windows
           && x.mcast_injections == y.mcast_injections
           && x.combined_groups == y.combined_groups
           && x.combiner_alu_flits == y.combiner_alu_flits
           && a.dropped == b.dropped && a.corrupted == b.corrupted
           && a.retransmits == b.retransmits
           && a.timeouts == b.timeouts && a.acks == b.acks
           && a.duplicates == b.duplicates;
}

bool
sameTiming(const train::IterationTiming &a,
           const train::IterationTiming &b)
{
    return a.fwd == b.fwd && a.bwd == b.bwd
           && a.allreduce == b.allreduce
           && a.total_nonoverlap == b.total_nonoverlap
           && a.comm_layerwise == b.comm_layerwise
           && a.overlap_hidden == b.overlap_hidden
           && a.exposed_comm == b.exposed_comm
           && a.total_overlap == b.total_overlap;
}

// ------------------------------------------------------------------
// Per-layer metric table (the traced run prints all of them)
// ------------------------------------------------------------------

const std::vector<std::pair<const char *, const char *>> kLayerSeconds = {
    {"topo.make_s", "topo.make"},
    {"runtime.machine_s", "runtime.machine"},
    {"runtime.run_s", "runtime.run"},
    {"core.build_s", "core.build"},
    {"coll.build_s", "coll.build"},
    {"coll.validate_s", "coll.validate"},
    {"coll.fuse_s", "coll.fuse"},
    {"ni.tables_s", "ni.tables"},
    {"obs.export_s", "obs.export"},
    {"accel.compute_s", "accel.compute"},
    {"train.iteration_s", "train.iteration"},
};

const std::vector<std::pair<const char *, const char *>> kLayerCounts = {
    {"core.builds", "count"},
    {"coll.transfers", "count"},
    {"ni.nop_windows", "count"},
    {"ni.retransmits", "count"},
    {"ni.timeouts", "count"},
    {"ni.acks", "count"},
    {"ni.duplicates", "count"},
    {"net.messages", "count"},
    {"net.flit_hops", "count"},
    {"net.head_flits", "count"},
    {"net.active_cycles", "cycles"},
    {"net.mcast_injections", "count"},
    {"net.combined_groups", "count"},
    {"sim.events", "count"},
    {"fault.dropped", "count"},
    {"fault.corrupted", "count"},
    {"obs.cp_nic_wait_cycles", "cycles"},
    {"obs.cp_inj_queue_cycles", "cycles"},
    {"obs.cp_head_route_cycles", "cycles"},
    {"obs.cp_serialization_cycles", "cycles"},
    {"obs.cp_credit_stall_cycles", "cycles"},
    {"obs.cp_reduction_cycles", "cycles"},
    {"obs.cp_mcast_branch_cycles", "cycles"},
    {"obs.cp_tail_wait_cycles", "cycles"},
    {"accel.compute_cycles", "cycles"},
    {"train.hidden_comm_us", "us"},
    {"train.exposed_comm_us", "us"},
};

// ------------------------------------------------------------------
// Collective workloads
// ------------------------------------------------------------------

/** A workload's fabrics: topologies outlive the machines on them. */
struct Fabrics {
    std::map<std::string, std::unique_ptr<topo::Topology>> topos;
    std::map<std::string, std::unique_ptr<runtime::Machine>> machines;
};

std::string
fabricKey(const CollPoint &p)
{
    return std::string(p.topo) + (p.flit ? "/flit" : "/flow")
           + (p.in_network ? "/mcast+reduce" : "");
}

runtime::RunOptions
fabricOptions(const CollPoint &p, const CollWorkload &w,
              std::uint64_t seed, obs::Profiler *prof)
{
    runtime::RunOptions o;
    o.backend = p.flit ? runtime::Backend::Flit : runtime::Backend::Flow;
    o.net.threads = 1;
    if (p.in_network)
        o.net.in_network = net::InNetworkMode::MulticastReduce;
    if (w.lossy) {
        fault::FaultConfig fc;
        fc.seed = streamFor(seed, 3, 0).next();
        fc.drop_prob = kDropProb;
        fc.corrupt_prob = kCorruptProb;
        o.fault = fc;
        o.reliability.enabled = true;
    }
    o.profiler = prof;
    return o;
}

Fabrics
makeFabrics(const CollWorkload &w, std::uint64_t seed,
            obs::Profiler *prof, Tracer &tr)
{
    Fabrics f;
    for (const CollPoint &p : w.points) {
        auto &t = f.topos[p.topo];
        if (!t)
            t = tr.span("topo.make",
                        [&] { return topo::makeTopology(p.topo); });
        auto &m = f.machines[fabricKey(p)];
        if (!m) {
            m = tr.span("runtime.machine", [&] {
                return std::make_unique<runtime::Machine>(
                    *t, fabricOptions(p, w, seed, prof));
            });
        }
    }
    return f;
}

/** Output of one collective operation (schedule kept for checks). */
struct CollOutcome {
    coll::Schedule sched;
    runtime::RunReport rep;
    std::string error; ///< non-empty when the operation failed
    double wall_s = 0;
    std::uint64_t events = 0;
};

/** The timed operation: build -> validate -> run -> export. */
CollOutcome
runCollective(const CollPoint &p, std::uint64_t bytes, bool lossy,
              runtime::Machine &m, Tracer &tr)
{
    CollOutcome out;
    const topo::Topology &topo = m.topology();
    const auto t0 = Clock::now();
    std::string island, spine;
    runtime::RunOverrides ov;
    if (coll::parseHierarchicalAlgo(p.algo, island, spine)) {
        const auto &hier =
            dynamic_cast<const topo::HierarchicalTopology &>(topo);
        out.sched = tr.span("coll.build", [&] {
            return coll::composeHierarchical(hier, island, spine,
                                             bytes);
        });
    } else {
        const auto &variant = coll::findAlgorithmVariant(p.algo);
        ov.flow_control = variant.flow_control;
        const bool core = variant.base.rfind("multitree", 0) == 0;
        out.sched = tr.span(core ? "core.build" : "coll.build", [&] {
            return coll::makeAlgorithm(variant.base)->build(topo, bytes);
        });
    }
    const auto valid = tr.span("coll.validate", [&] {
        return coll::validateSchedule(out.sched, topo);
    });
    if (valid.ok) {
        const std::uint64_t ev0 = m.eventQueue().executed();
        out.rep = tr.span("runtime.run",
                          [&] { return m.tryRun(out.sched, ov); });
        out.events = m.eventQueue().executed() - ev0;
        if (out.rep.ok) {
            std::ostringstream os;
            tr.span("obs.export", [&] {
                runtime::writeMetricsJson(os, m, out.rep.result,
                                          lossy ? &out.rep : nullptr);
            });
        } else {
            out.error = "tryRun not ok: "
                        + out.rep.diagnostic.substr(0, 200);
        }
    } else {
        out.error = "invalid schedule: " + valid.error;
    }
    out.wall_s = secondsBetween(t0, Clock::now());
    return out;
}

/** Round-0 output checks of one collective; empty string = pass. */
std::string
checkCollective(const CollPoint &p, const CollWorkload &w,
                const CollOutcome &o, const runtime::Machine &m,
                const coll::DataPlane *plane, std::uint64_t seed,
                std::size_t idx)
{
    const topo::Topology &topo = m.topology();
    const runtime::RunResult &r = o.rep.result;
    if (!functionalSumHolds(o.sched, seed, idx))
        return "runFunctional result differs from the element-wise sum";
    const Tick floor =
        receiveBound(topo, o.sched.total_bytes, m.options().net);
    if (floor == 0 || r.time < floor)
        return "completion " + std::to_string(r.time)
               + " below the receive-bandwidth floor "
               + std::to_string(floor);
    if (!w.lossy && !p.in_network
        && r.messages != o.sched.stats(topo).edge_count)
        return "messages " + std::to_string(r.messages)
               + " != schedule transfers "
               + std::to_string(o.sched.stats(topo).edge_count);
    if (plane != nullptr && !plane->consistent())
        return "DataPlane inconsistent: " + plane->describeMismatch(3);
    return "";
}

/** Layer probes that are separate calls, made after a traced op. */
void
traceProbes(const CollPoint &p, const CollOutcome &o,
            runtime::Machine &m, const obs::Profiler &prof, Tracer &tr)
{
    const topo::Topology &topo = m.topology();
    const runtime::RunResult &r = o.rep.result;
    const std::string algo = p.algo;
    if (algo.rfind("multitree", 0) == 0)
        tr.count("core.builds", 1);
    tr.count("coll.transfers",
             static_cast<double>(o.sched.stats(topo).edge_count));
    if (p.in_network) {
        coll::Schedule fused = o.sched;
        tr.span("coll.fuse",
                [&] { return coll::fuseMulticast(fused, topo); });
        tr.span("ni.tables",
                [&] { return ni::buildScheduleTables(fused, topo); });
    } else {
        tr.span("ni.tables",
                [&] { return ni::buildScheduleTables(o.sched, topo); });
    }
    tr.count("ni.nop_windows", static_cast<double>(r.nop_windows));
    tr.count("ni.retransmits", static_cast<double>(o.rep.retransmits));
    tr.count("ni.timeouts", static_cast<double>(o.rep.timeouts));
    tr.count("ni.acks", static_cast<double>(o.rep.acks));
    tr.count("ni.duplicates", static_cast<double>(o.rep.duplicates));
    tr.count("net.messages", static_cast<double>(r.messages));
    tr.count("net.flit_hops", r.flit_hops);
    tr.count("net.head_flits", r.head_flits);
    tr.count("net.mcast_injections",
             static_cast<double>(r.mcast_injections));
    tr.count("net.combined_groups",
             static_cast<double>(r.combined_groups));
    tr.count("sim.events", static_cast<double>(o.events));
    tr.count("fault.dropped", static_cast<double>(o.rep.dropped));
    tr.count("fault.corrupted", static_cast<double>(o.rep.corrupted));
    if (const auto *flit =
            dynamic_cast<const net::FlitNetwork *>(&m.network())) {
        tr.count("net.active_cycles",
                 static_cast<double>(flit->activeCycles()));
        tr.count("net.flit_cycles", static_cast<double>(r.time));
    }
    // Lossy runs with retransmitted duplicates have no unambiguous
    // critical path; those operations contribute nothing here.
    const obs::CriticalPath cp = obs::extractCriticalPath(prof);
    if (cp.ok) {
        for (std::size_t c = 0; c < obs::kNumLatencyCategories; ++c) {
            tr.count(std::string("obs.cp_")
                         + obs::categoryName(
                             static_cast<obs::LatencyCategory>(c))
                         + "_cycles",
                     static_cast<double>(cp.by_category[c]));
        }
        tr.count("obs.cp_tail_wait_cycles",
                 static_cast<double>(cp.tail_wait));
    }
}

struct WorkloadRun {
    Tally tally;
    std::vector<double> setup_s;          ///< one entry per set-up
    std::vector<std::string> op_names;
    std::vector<std::vector<double>> op_s; ///< host s, per op per round
    std::vector<double> op_sim_us;         ///< simulated us, per op
    std::vector<std::string> op_detail;    ///< extra per-op figures
    double sim_time_us = 0;                ///< per round (identical)
    int rounds = 0;                        ///< timed rounds
};

/** Time @p reps set-ups of @p make; keep the last result. */
template <class T, class F>
T
timedSetups(int reps, std::vector<double> &times, F &&make)
{
    std::optional<T> keep;
    for (int i = 0; i < reps; ++i) {
        keep.reset(); // tear-down stays outside the timed interval
        const auto t0 = Clock::now();
        keep.emplace(make());
        times.push_back(secondsBetween(t0, Clock::now()));
    }
    return std::move(*keep);
}

WorkloadRun
runCollWorkload(const CollWorkload &w, const Options &opt, Tracer &tr)
{
    WorkloadRun run;
    Tracer quiet(false);
    const std::size_t nops = w.points.size();
    std::vector<std::uint64_t> bytes(nops);
    for (std::size_t i = 0; i < nops; ++i) {
        bytes[i] = seededBytes(w.points[i].bytes, opt.seed, i);
        run.op_names.push_back(std::string(w.points[i].topo) + " "
                               + w.points[i].algo + " "
                               + std::to_string(bytes[i]) + "B"
                               + (w.points[i].in_network
                                      ? " mcast+reduce"
                                      : ""));
    }

    // Set-up: the untraced run times K set-ups; the traced run builds
    // its untraced reference fabrics plus one profiled set.
    Fabrics fab = timedSetups<Fabrics>(
        opt.trace ? 1 : kSetupReps, run.setup_s,
        [&] { return makeFabrics(w, opt.seed, nullptr, quiet); });
    obs::Profiler prof;
    Fabrics traced;
    if (opt.trace)
        traced = makeFabrics(w, opt.seed, &prof, tr);

    for (std::size_t i = 0; i < nops; ++i) {
        const CollPoint &p = w.points[i];
        std::string island, spine;
        if (!coll::parseHierarchicalAlgo(p.algo, island, spine)
            && !coll::makeAlgorithm(
                    coll::findAlgorithmVariant(p.algo).base)
                    ->supports(*fab.topos.at(p.topo))) {
            std::fprintf(stderr, "perfbench: %s does not support %s\n",
                         p.algo, p.topo);
            std::exit(1);
        }
    }

    // Round 0: every operation once, untraced, then its checks. It is
    // also the first timed round, except where the checks hook into
    // the run (lossy: DataPlane sink) or the timed rounds are traced.
    const bool timed0 = !opt.trace && !w.lossy;
    std::vector<CollOutcome> ref(nops);
    std::vector<bool> bad(nops, false);
    run.op_sim_us.assign(nops, 0);
    run.op_s.assign(nops, {});
    auto start = Clock::now();
    for (std::size_t i = 0; i < nops; ++i) {
        const CollPoint &p = w.points[i];
        runtime::Machine &m = *fab.machines.at(fabricKey(p));
        std::unique_ptr<coll::DataPlane> plane;
        if (w.lossy) {
            // The oracle needs the schedule before the run; building
            // it once more here keeps the timed call untouched.
            const auto &variant = coll::findAlgorithmVariant(p.algo);
            plane = std::make_unique<coll::DataPlane>(
                coll::makeAlgorithm(variant.base)
                    ->build(m.topology(), bytes[i]));
            coll::DataPlane *pl = plane.get();
            m.setAcceptSink([pl](const net::Message &msg) {
                if (msg.tag == ni::kTagAck)
                    return;
                pl->onAccept(msg.src, msg.dst, msg.flow_id,
                             msg.tag == ni::kTagGather, msg.corrupted);
            });
        }
        ref[i] = runCollective(p, bytes[i], w.lossy, m, quiet);
        if (w.lossy)
            m.setAcceptSink(nullptr);
        if (timed0)
            run.op_s[i].push_back(ref[i].wall_s);
        ++run.tally.attempted;
        if (!ref[i].error.empty()) {
            bad[i] = true;
            run.tally.fail(run.op_names[i], ref[i].error, false);
            continue;
        }
        const std::string why =
            checkCollective(p, w, ref[i], m, plane.get(), opt.seed, i);
        if (!why.empty()) {
            bad[i] = true;
            run.tally.fail(run.op_names[i], why, true);
        }
        run.op_sim_us[i] = static_cast<double>(ref[i].rep.result.time)
                           / 1e3;
        run.sim_time_us += run.op_sim_us[i];
    }

    if (timed0)
        ++run.rounds;
    else
        start = Clock::now();

    // Timed rounds (traced rounds use the profiled fabrics).
    Fabrics &use = opt.trace ? traced : fab;
    std::uint64_t op_id = 0;
    while (run.rounds < kMinRounds
           || secondsBetween(start, Clock::now()) < opt.seconds) {
        for (std::size_t i = 0; i < nops; ++i) {
            const CollPoint &p = w.points[i];
            runtime::Machine &m = *use.machines.at(fabricKey(p));
            tr.setOp(++op_id);
            CollOutcome o = tr.span("op", [&] {
                return runCollective(p, bytes[i], w.lossy, m, tr);
            });
            run.op_s[i].push_back(o.wall_s);
            ++run.tally.attempted;
            if (bad[i]) {
                run.tally.fail(run.op_names[i], "failed in round 0",
                               false);
                continue;
            }
            if (!o.error.empty()) {
                run.tally.fail(run.op_names[i], o.error, false);
                continue;
            }
            if (!sameResult(o.rep, ref[i].rep)) {
                run.tally.fail(run.op_names[i],
                               opt.trace ? "traced result differs from "
                                           "the untraced run"
                                         : "repeat differs from round 0",
                               true);
                continue;
            }
            if (opt.trace)
                traceProbes(p, o, m, prof, tr);
        }
        ++run.rounds;
    }
    return run;
}

// ------------------------------------------------------------------
// dnn-train
// ------------------------------------------------------------------

/**
 * Seeded model variant: every layer's parameter count grows by the
 * same factor in [1, 1 + 1/64], so gradient volumes (and hence
 * all-reduce times) depend on the seed while compute and the layer
 * structure (which sizes repeat) stay the zoo network's.
 */
accel::DnnModel
seededModel(const std::string &name, std::uint64_t seed, std::size_t idx)
{
    accel::DnnModel m = accel::makeModel(name);
    Rng rng = streamFor(seed, 4, idx);
    const std::uint64_t k = rng.nextBounded(17); // k / 1024 growth
    for (accel::Layer &l : m.layers)
        l.params += l.params * k / 1024;
    return m;
}

struct TrainFabric {
    std::unique_ptr<topo::Topology> topo;
    /** Reference machines for the isolated all-reduce check. */
    std::map<std::string, std::unique_ptr<runtime::Machine>> machines;
};

TrainFabric
makeTrainFabric(Tracer &tr)
{
    TrainFabric f;
    f.topo = tr.span("topo.make",
                     [&] { return topo::makeTopology(kTrainTopo); });
    for (const std::string &algo : kTrainAlgos) {
        f.machines[algo] = tr.span("runtime.machine", [&] {
            runtime::RunOptions o; // the trainer's defaults: flow
            return std::make_unique<runtime::Machine>(*f.topo, o);
        });
    }
    return f;
}

std::uint64_t
roundToElements(std::uint64_t bytes)
{
    return std::max<std::uint64_t>(4, (bytes + 3) / 4 * 4);
}

/** Round-0 checks of one training iteration; empty string = pass. */
std::string
checkIteration(const accel::DnnModel &model, const std::string &algo,
               const train::IterationTiming &t, TrainFabric &f,
               const train::TrainOptions &opts)
{
    if (t.total_nonoverlap != t.fwd + t.bwd + t.allreduce)
        return "non-overlapped time != fwd + bwd + all-reduce";
    if (t.total_overlap < t.fwd + t.bwd)
        return "overlapped time < fwd + bwd";
    const accel::ComputeBreakdown c =
        accel::modelCompute(model, opts.accel);
    if (c.fwd != t.fwd || c.bwd != t.bwd)
        return "fwd/bwd differ from the systolic model";
    const Tick iso =
        f.machines.at(algo)
            ->run(algo, roundToElements(model.gradientBytes()))
            .time;
    if (iso != t.allreduce)
        return "all-reduce " + std::to_string(t.allreduce)
               + " != isolated run " + std::to_string(iso);
    return "";
}

/** Layer probes for a traced iteration (separate calls). */
void
traceTrainProbes(const accel::DnnModel &model, const std::string &algo,
                 const train::IterationTiming &t,
                 const topo::Topology &topo,
                 const train::TrainOptions &opts, Tracer &tr)
{
    tr.span("accel.compute",
            [&] { return accel::modelCompute(model, opts.accel); });
    tr.count("accel.compute_cycles", static_cast<double>(t.fwd + t.bwd));
    tr.count("train.hidden_comm_us",
             static_cast<double>(t.overlap_hidden) / 1e3);
    tr.count("train.exposed_comm_us",
             static_cast<double>(t.exposed_comm) / 1e3);
    // The trainer builds one schedule per distinct (rounded) payload:
    // the full gradient plus every layer gradient. Rebuild the same
    // set to time the build layer it cannot expose from outside.
    std::vector<std::uint64_t> sizes = {
        roundToElements(model.gradientBytes())};
    for (const accel::Layer &l : model.layers)
        if (l.params > 0)
            sizes.push_back(roundToElements(l.gradientBytes()));
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    const auto &variant = coll::findAlgorithmVariant(algo);
    const bool core = variant.base.rfind("multitree", 0) == 0;
    auto builder = coll::makeAlgorithm(variant.base);
    for (std::uint64_t b : sizes)
        tr.span(core ? "core.build" : "coll.build",
                [&] { return builder->build(topo, b); });
    if (core)
        tr.count("core.builds", static_cast<double>(sizes.size()));
}

WorkloadRun
runTrainWorkload(const Options &opt, Tracer &tr)
{
    WorkloadRun run;
    Tracer quiet(false);
    TrainFabric fab = timedSetups<TrainFabric>(
        opt.trace ? 1 : kSetupReps, run.setup_s,
        [&] { return makeTrainFabric(opt.trace ? tr : quiet); });
    train::TrainOptions opts; // batch 16, flow backend (§V-B)

    struct Op {
        accel::DnnModel model;
        std::string algo;
    };
    std::vector<Op> ops;
    for (std::size_t mi = 0; mi < kTrainModels.size(); ++mi) {
        const accel::DnnModel model =
            seededModel(kTrainModels[mi], opt.seed, mi);
        for (const std::string &algo : kTrainAlgos) {
            ops.push_back({model, algo});
            run.op_names.push_back(kTrainTopo + std::string(" ") + algo
                                   + " " + kTrainModels[mi]);
        }
    }

    const std::size_t nops = ops.size();
    // Round 0 (checked; timed too unless the timed rounds are traced).
    std::vector<train::IterationTiming> ref(nops);
    std::vector<bool> bad(nops, false);
    run.op_sim_us.assign(nops, 0);
    run.op_s.assign(nops, {});
    auto start = Clock::now();
    for (std::size_t i = 0; i < nops; ++i) {
        const auto t0 = Clock::now();
        ref[i] = train::evaluateIteration(ops[i].model, *fab.topo,
                                          ops[i].algo, opts);
        if (!opt.trace)
            run.op_s[i].push_back(secondsBetween(t0, Clock::now()));
        ++run.tally.attempted;
        const std::string why =
            checkIteration(ops[i].model, ops[i].algo, ref[i], fab, opts);
        if (!why.empty()) {
            bad[i] = true;
            run.tally.fail(run.op_names[i], why, true);
        }
        run.op_sim_us[i] = static_cast<double>(ref[i].total_overlap
                                               + ref[i].total_nonoverlap)
                           / 1e3;
        char detail[96];
        std::snprintf(detail, sizeof detail,
                      "  all-reduce %.3f us, fwd+bwd %.3f us",
                      static_cast<double>(ref[i].allreduce) / 1e3,
                      static_cast<double>(ref[i].fwd + ref[i].bwd) / 1e3);
        run.op_detail.push_back(detail);
        run.sim_time_us += run.op_sim_us[i];
    }

    if (opt.trace)
        start = Clock::now();
    else
        ++run.rounds;

    std::uint64_t op_id = 0;
    while (run.rounds < kMinRounds
           || secondsBetween(start, Clock::now()) < opt.seconds) {
        for (std::size_t i = 0; i < nops; ++i) {
            tr.setOp(++op_id);
            const auto t0 = Clock::now();
            const train::IterationTiming t = tr.span("op", [&] {
                return tr.span("train.iteration", [&] {
                    return train::evaluateIteration(
                        ops[i].model, *fab.topo, ops[i].algo, opts);
                });
            });
            const double s = secondsBetween(t0, Clock::now());
            run.op_s[i].push_back(s);
            ++run.tally.attempted;
            if (bad[i]) {
                run.tally.fail(run.op_names[i], "failed in round 0",
                               false);
                continue;
            }
            if (!sameTiming(t, ref[i])) {
                run.tally.fail(run.op_names[i],
                               "repeat differs from round 0", true);
                continue;
            }
            if (opt.trace)
                traceTrainProbes(ops[i].model, ops[i].algo, t,
                                 *fab.topo, opts, tr);
        }
        ++run.rounds;
    }
    return run;
}

// ------------------------------------------------------------------
// Reporting
// ------------------------------------------------------------------

/** Sum over operations of each one's median host time: a transient
 *  stall inflates one sample of one operation, not the figure. */
double
medianRoundSeconds(const WorkloadRun &run)
{
    double sum = 0;
    for (const std::vector<double> &samples : run.op_s)
        sum += median(samples);
    return sum;
}

std::vector<Metric>
endToEndMetrics(const WorkloadRun &run)
{
    return {
        {"wall_s", medianRoundSeconds(run), "s"},
        {"setup_s", median(run.setup_s), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"sim_time_us", run.sim_time_us, "us"},
    };
}

std::vector<Metric>
perLayerMetrics(const WorkloadRun &run, const Tracer &tr)
{
    const double rounds = std::max(1, run.rounds);
    std::vector<Metric> out;
    for (const auto &[metric, span] : kLayerSeconds) {
        const std::string s = span;
        // Set-up layers are timed once per set-up, not per round.
        const bool setup = s == "topo.make" || s == "runtime.machine";
        out.push_back({metric, tr.seconds(s) / (setup ? 1.0 : rounds),
                       "s"});
    }
    for (const auto &[metric, unit] : kLayerCounts)
        out.push_back({metric, tr.counter(metric) / rounds, unit});
    const double active = tr.counter("net.active_cycles");
    const double flit_cycles = tr.counter("net.flit_cycles");
    out.push_back({"net.active_cycle_ratio",
                   flit_cycles > 0 ? active / flit_cycles : 0.0,
                   "ratio"});
    const double events = tr.counter("sim.events");
    out.push_back({"sim.ns_per_event",
                   events > 0 ? tr.seconds("runtime.run") * 1e9 / events
                              : 0.0,
                   "ns"});
    out.push_back({"bench.traced_wall_s", medianRoundSeconds(run),
                   "s"});
    out.push_back({"bench.uncovered_s", tr.selfSeconds("op") / rounds,
                   "s"});
    return out;
}

void
printResult(const Tally &t, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                t.correct ? "true" : "false", t.attempted, t.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Tracer tr(opt.trace);

    const CollWorkload *coll = nullptr;
    for (const CollWorkload &w : collWorkloads())
        if (opt.workload == w.name)
            coll = &w;
    if (coll == nullptr && opt.workload != "dnn-train")
        usage(("unknown workload " + opt.workload).c_str());

    const WorkloadRun run = coll ? runCollWorkload(*coll, opt, tr)
                                 : runTrainWorkload(opt, tr);

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("perfbench %s: seed %" PRIu64 ", commit %s, source %s, "
                "nproc %ld, build %s, trace %d\n",
                opt.workload.c_str(), opt.seed,
                obs::buildCommit().c_str(), opt.source_id.c_str(), nproc,
                PERFBENCH_BUILD_TYPE, opt.trace ? 1 : 0);
    std::printf("  %d timed rounds, %" PRIu64
                " operations attempted, %" PRIu64 " failed\n",
                run.rounds, run.tally.attempted,
                run.tally.failed);
    for (std::size_t i = 0; i < run.op_names.size(); ++i)
        std::printf("  %-48s host %9.4f s  sim %12.3f us%s\n",
                    run.op_names[i].c_str(), median(run.op_s[i]),
                    run.op_sim_us[i],
                    i < run.op_detail.size() ? run.op_detail[i].c_str()
                                             : "");
    for (const std::string &p : run.tally.problems)
        std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());

    if (opt.trace && !opt.trace_out.empty()
        && !tr.writeChromeJson(opt.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
    }
    printResult(run.tally, opt.trace ? perLayerMetrics(run, tr)
                                     : endToEndMetrics(run));
    return 0;
}
