/**
 * @file
 * Repository benchmark program (see README.md in this directory).
 *
 *   tlbench sweep --workload W --seed N --work DIR [--budget B]
 *   tlbench trace --workload W --seed N --work DIR --spans FILE
 *                 [--budget B]
 *
 * `sweep` is one cold repetition of a workload through the production
 * sweep path (harness::sweep::runSweep, 2 workers, a fresh result
 * cache and journal under DIR) and reports host wall/CPU/RSS/set-up
 * time plus every RunResult. `trace` runs the same cold sweep, then
 * replays each spec through the public per-layer calls with spans
 * around each call, and finally re-runs the sweep against the now
 * warm cache; it reports the per-layer metrics and writes the spans.
 *
 * Both modes print one JSON object on stdout; run.py checks the
 * results against the stored expectations and attaches units.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/config.hh"
#include "harness/sweep/resultcache.hh"
#include "harness/sweep/runspec.hh"
#include "harness/sweep/sweep.hh"
#include "harness/system.hh"
#include "paperdata.hh"
#include "phys/physcache.hh"
#include "sim/trace/tracesink.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace tlsim;
using harness::RunResult;
using harness::SystemConfig;
using harness::sweep::RunSpec;

namespace
{

/** Sweep workers for every workload (two leave headroom on 4 vCPUs). */
constexpr int sweepJobs = 2;
/** Set-up repetitions per process; setup_s is their median. */
constexpr int setupRepeats = 7;

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Budget
{
    std::uint64_t functionalWarm, warmup, measure;
};

struct Workload
{
    std::string name;
    std::vector<std::string> benchmarks;
    int cores;
    std::string mem;
    Budget paper;
    Budget tiny;
};

const std::vector<std::string> designs = {"SNUCA2", "DNUCA", "TLC"};

const std::vector<Workload> workloads = {
    {"paper_fig5_mcf", {"mcf"}, 1, "fixed",
     {200'000'000, 3'000'000, 10'000'000}, {400'000, 20'000, 60'000}},
    {"timed_apache_swim", {"apache", "swim"}, 1, "fixed",
     {20'000'000, 3'000'000, 10'000'000}, {100'000, 20'000, 60'000}},
    {"cmp4_ddr", {"apache", "swim"}, 4, "ddr",
     {5'000'000, 1'000'000, 3'000'000}, {50'000, 10'000, 30'000}},
};

const Workload &
workloadByName(const std::string &name)
{
    for (const auto &w : workloads)
        if (w.name == name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

std::vector<RunSpec>
makeSpecs(const Workload &w, const Budget &b, std::uint64_t seed)
{
    std::vector<RunSpec> specs;
    for (const auto &bench : w.benchmarks) {
        for (const auto &design : designs) {
            RunSpec spec;
            spec.benchmark = bench;
            spec.baseSeed = seed;
            spec.config.design = design;
            spec.config.cores = w.cores;
            spec.config.mem.backend = w.mem;
            spec.config.functionalWarm = b.functionalWarm;
            spec.config.warmup = b.warmup;
            spec.config.measure = b.measure;
            specs.push_back(spec);
        }
    }
    return specs;
}

/** Build one System per distinct machine in @p specs. */
void
buildMachines(const std::vector<RunSpec> &specs)
{
    std::set<std::uint64_t> seen;
    for (const auto &spec : specs) {
        if (seen.insert(spec.config.contentHash()).second)
            harness::System system(spec.config);
    }
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
resultJson(const RunSpec &spec, const RunResult &r)
{
    std::ostringstream os;
    harness::sweep::writeResultJson(os, spec, r);
    return os.str();
}

/** {"spec key": {"error": "...", "result": {...}}, ...} */
void
printResults(std::ostream &os, const char *key,
             const std::vector<RunSpec> &specs,
             const std::vector<RunResult> &results)
{
    os << "\"" << key << "\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        os << (i ? ", " : "") << "\""
           << trace::jsonEscape(harness::sweep::specKey(specs[i]))
           << "\": {\"error\": \""
           << trace::jsonEscape(results[i].error)
           << "\", \"result\": " << resultJson(specs[i], results[i])
           << "}";
    }
    os << "}";
}

harness::sweep::SweepOptions
sweepOptions(const std::string &work)
{
    harness::sweep::SweepOptions opts;
    opts.jobs = sweepJobs;
    opts.cacheDir = work + "/cache";
    opts.journalPath = work + "/journal.jsonl";
    opts.verbose = false;
    return opts;
}

// --- sweep mode ----------------------------------------------------

int
runSweepMode(const Workload &w, const Budget &b, std::uint64_t seed,
             const std::string &work)
{
    // A fresh tlsim_repro process builds its spec list and pays the
    // cold physics memo once before the first run; repeat that here
    // and report the median.
    std::vector<double> setups;
    std::vector<RunSpec> specs;
    for (int i = 0; i < setupRepeats; ++i) {
        auto t = Clock::now();
        specs = makeSpecs(w, b, seed);
        phys::PhysCache::instance().clear();
        buildMachines(specs);
        setups.push_back(secondsSince(t));
    }

    double cpu0 = cpuSeconds();
    auto t = Clock::now();
    auto outcome = harness::sweep::runSweep(specs, sweepOptions(work));
    double wall = secondsSince(t);
    double cpu = cpuSeconds() - cpu0;
    if (outcome.cached != 0)
        throw std::runtime_error("the sweep's result cache was not empty");

    std::ostringstream os;
    os.precision(17);
    os << "{\"setup_s\": " << median(setups) << ", \"wall_s\": " << wall
       << ", \"cpu_s\": " << cpu << ", \"peak_rss_mb\": " << peakRssMb()
       << ", ";
    printResults(os, "sweep", specs, outcome.results);
    os << "}\n";
    std::cout << os.str() << std::flush;
    return 0;
}

// --- trace mode ----------------------------------------------------

/** Stats-tree counts recorded at a span boundary. */
struct Counts
{
    double l2Requests = 0, l2Misses = 0, dramReads = 0;
    std::uint64_t tick = 0;
};

Counts
countsOf(harness::System &sys)
{
    return {sys.l2().demandRequests.value(), sys.l2().misses.value(),
            sys.dram().reads.value(), sys.eventQueue().now()};
}

struct Span
{
    int id = 0;
    int parent = -1;
    int run = -1; ///< spec index; -1 outside a replay
    std::string name;
    double start = 0, end = 0; ///< seconds since process start
    bool hasCounts = false;
    Counts counts;

    double seconds() const { return end - start; }
};

/**
 * In-memory span recorder; written out once when the run ends. Ids
 * are handed out under a lock so replay threads can share it.
 */
class Tracer
{
  public:
    int
    begin(const std::string &name, int parent, int run = -1)
    {
        std::lock_guard<std::mutex> lock(mutex);
        Span s;
        s.id = static_cast<int>(spans.size());
        s.parent = parent;
        s.run = run;
        s.name = name;
        s.start = secondsSince(processStart);
        spans.push_back(s);
        return s.id;
    }

    double
    end(int id, const Counts *counts = nullptr)
    {
        double now = secondsSince(processStart);
        std::lock_guard<std::mutex> lock(mutex);
        Span &s = spans[static_cast<std::size_t>(id)];
        s.end = now;
        if (counts) {
            s.hasCounts = true;
            s.counts = *counts;
        }
        return s.seconds();
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os.precision(9);
        os << "{\"schema\": \"tlbench-spans-v1\", \"spans\": [\n";
        for (const auto &s : spans) {
            os << (s.id ? ",\n" : "") << "{\"id\": " << s.id
               << ", \"parent\": " << s.parent << ", \"run\": " << s.run
               << ", \"name\": \"" << s.name << "\", \"start_s\": "
               << s.start << ", \"end_s\": " << s.end;
            if (s.hasCounts) {
                os << ", \"counts\": {\"l2_requests\": "
                   << s.counts.l2Requests
                   << ", \"l2_misses\": " << s.counts.l2Misses
                   << ", \"dram_reads\": " << s.counts.dramReads
                   << ", \"tick\": " << s.counts.tick << "}";
            }
            os << "}";
        }
        os << "\n]}\n";
        if (!os)
            throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    std::mutex mutex;
    std::vector<Span> spans;
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// The next two mirror helpers private to harness/system.cc; the replay
// must reproduce runBenchmark exactly, which run.py checks.

/** Core @p i's trace seed, as harness::runBenchmark derives it. */
std::uint64_t
coreSeed(std::uint64_t run_seed, int i)
{
    return i == 0 ? run_seed
                  : splitmix64(run_seed + static_cast<std::uint64_t>(i));
}

/** harness::runBenchmark's round-robin multi-core execution. */
std::uint64_t
runCores(harness::System &sys,
         std::vector<workload::TraceGenerator> &gens,
         std::uint64_t instructions, std::uint64_t quantum)
{
    if (instructions == 0)
        return 0;
    int n = sys.numCores();
    if (n == 1)
        return sys.core().run(gens[0], instructions);
    auto maxCycle = [&] {
        std::uint64_t c = 0;
        for (int i = 0; i < n; ++i)
            c = std::max(c, sys.core(i).currentCycle());
        return c;
    };
    quantum = std::max<std::uint64_t>(quantum, 1);
    std::uint64_t start = maxCycle();
    std::vector<std::uint64_t> left(static_cast<std::size_t>(n),
                                    instructions);
    for (bool active = true; active;) {
        active = false;
        for (int i = 0; i < n; ++i) {
            auto &l = left[static_cast<std::size_t>(i)];
            if (l == 0)
                continue;
            std::uint64_t chunk = std::min(l, quantum);
            sys.core(i).catchUp();
            sys.core(i).run(gens[static_cast<std::size_t>(i)], chunk);
            l -= chunk;
            active = active || l > 0;
        }
    }
    return maxCycle() - start;
}

/** Host seconds per layer of one replayed spec. */
struct ReplayTimes
{
    double build = 0, funcwarm = 0, warmup = 0, measure = 0,
           extract = 0;
    double l2Requests = 0, l2Misses = 0, dramReads = 0,
           banksAccessed = 0;
};

/**
 * Replay one spec exactly as the sweep executes it, with a span
 * around each per-layer call. Must produce the sweep's RunResult.
 */
RunResult
replaySpec(const RunSpec &spec, int run, int parent, Tracer &tracer,
           ReplayTimes &t)
{
    const auto &profile = workload::profileByName(spec.benchmark);
    SystemConfig cfg = spec.config;
    cfg.core.fetchQuanta = profile.ilpQuanta;
    std::uint64_t seed = harness::sweep::traceSeed(spec);

    int top = tracer.begin("replay", parent, run);
    int s = tracer.begin("harness.build", top, run);
    harness::System sys(cfg, seed);
    t.build = tracer.end(s);

    int n = sys.numCores();
    std::vector<workload::TraceGenerator> gens;
    for (int i = 0; i < n; ++i)
        gens.emplace_back(profile, coreSeed(seed, i));

    s = tracer.begin("harness.funcwarm", top, run);
    for (int i = 0; i < n; ++i)
        sys.functionalWarm(gens[static_cast<std::size_t>(i)],
                           cfg.functionalWarm, i);
    Counts c = countsOf(sys);
    t.funcwarm = tracer.end(s, &c);

    s = tracer.begin("cpu.warmup", top, run);
    runCores(sys, gens, cfg.warmup, cfg.coreQuantum);
    c = countsOf(sys);
    t.warmup = tracer.end(s, &c);

    sys.beginMeasurement();
    s = tracer.begin("cpu.measure", top, run);
    std::uint64_t cycles =
        runCores(sys, gens, cfg.measure, cfg.coreQuantum);
    c = countsOf(sys);
    t.measure = tracer.end(s, &c);

    s = tracer.begin("harness.extract", top, run);
    sys.l2().syncStats();
    RunResult r = harness::extractRunResult(
        sys, cycles, cfg.measure * static_cast<std::uint64_t>(n),
        profile.name);
    t.extract = tracer.end(s);
    tracer.end(top);

    t.l2Requests = sys.l2().demandRequests.value();
    t.l2Misses = sys.l2().misses.value();
    t.dramReads = sys.dram().reads.value();
    t.banksAccessed = sys.l2().banksAccessed.mean() *
                      static_cast<double>(sys.l2().banksAccessed.count());
    return r;
}

/** Drain one spec's traces for its functional-warm length. */
struct Drain
{
    double seconds = 0;
    std::uint64_t records = 0;
};

Drain
drainTraces(const RunSpec &spec, int parent, Tracer &tracer)
{
    const auto &profile = workload::profileByName(spec.benchmark);
    std::uint64_t seed = harness::sweep::traceSeed(spec);
    int s = tracer.begin("workload.gen", parent);
    Drain d;
    for (int i = 0; i < spec.config.cores; ++i) {
        workload::TraceGenerator gen(profile, coreSeed(seed, i));
        // Same instruction accounting as System::functionalWarm.
        for (std::uint64_t done = 0;
             done < spec.config.functionalWarm;) {
            cpu::TraceRecord rec = gen.next();
            done += rec.gap + (rec.isIFetch ? 0 : 1);
            ++d.records;
        }
    }
    d.seconds = tracer.end(s);
    return d;
}

int
runTraceMode(const Workload &w, const Budget &b, std::uint64_t seed,
             const std::string &work, const std::string &spans_path)
{
    Tracer tracer;
    int root = tracer.begin("traced_run", -1);
    auto specs = makeSpecs(w, b, seed);
    std::size_t n = specs.size();

    int s = tracer.begin("phys.cold_build", root);
    phys::PhysCache::instance().clear();
    buildMachines(specs);
    double cold_build = tracer.end(s);
    s = tracer.begin("harness.hot_build", root);
    buildMachines(specs);
    double hot_build = tracer.end(s);

    // The untraced cold sweep: the results every replay must match
    // and the baseline the traced replay's overhead is taken against.
    auto opts = sweepOptions(work);
    s = tracer.begin("sweep.cold", root);
    auto cold = harness::sweep::runSweep(specs, opts);
    double cold_wall = tracer.end(s);

    // Generation cost alone: once per distinct trace, charged to
    // every spec that replays it (each sweep run regenerates it).
    std::map<std::string, Drain> drains;
    double gen_s = 0;
    std::uint64_t records = 0;
    for (const auto &spec : specs) {
        std::string key = spec.benchmark + "/" +
                          std::to_string(harness::sweep::traceSeed(spec)) +
                          "/" + std::to_string(spec.config.cores);
        if (!drains.count(key))
            drains[key] = drainTraces(spec, root, tracer);
        gen_s += drains[key].seconds;
        records += drains[key].records;
    }

    // Replays on as many threads as the sweep has workers.
    std::vector<RunResult> replayed(n);
    std::vector<ReplayTimes> times(n);
    std::atomic<std::size_t> next{0};
    s = tracer.begin("replay_all", root);
    {
        std::vector<std::thread> pool;
        for (int j = 0; j < sweepJobs; ++j) {
            pool.emplace_back([&] {
                for (std::size_t i; (i = next++) < n;) {
                    try {
                        replayed[i] = replaySpec(specs[i],
                                                 static_cast<int>(i), s,
                                                 tracer, times[i]);
                    } catch (const std::exception &e) {
                        replayed[i].error = e.what();
                    }
                }
            });
        }
        for (auto &th : pool)
            th.join();
    }
    double replay_wall = tracer.end(s);

    s = tracer.begin("sweep.rerun", root);
    auto rerun = harness::sweep::runSweep(specs, opts);
    double rerun_s = tracer.end(s);
    tracer.end(root);
    tracer.write(spans_path);

    ReplayTimes sum;
    for (const auto &t : times) {
        sum.build += t.build;
        sum.funcwarm += t.funcwarm;
        sum.warmup += t.warmup;
        sum.measure += t.measure;
        sum.extract += t.extract;
        sum.l2Requests += t.l2Requests;
        sum.l2Misses += t.l2Misses;
        sum.dramReads += t.dramReads;
        sum.banksAccessed += t.banksAccessed;
    }
    double total =
        sum.build + sum.funcwarm + sum.warmup + sum.measure + sum.extract;
    double cores = w.cores;
    double fw_instr = static_cast<double>(b.functionalWarm) * cores *
                      static_cast<double>(n);
    double timed_instr = static_cast<double>(b.warmup + b.measure) *
                         cores * static_cast<double>(n);
    double link_util = 0;
    for (const auto &r : replayed)
        link_util += r.linkUtilizationPct;

    std::map<std::string, double> m;
    m["workload.gen_s"] = gen_s;
    m["workload.gen_ns_per_rec"] = 1e9 * gen_s / records;
    m["harness.funcwarm_s"] = sum.funcwarm;
    m["harness.funcwarm_mips"] = fw_instr / sum.funcwarm / 1e6;
    m["mem.funcwarm_ns_per_rec"] = 1e9 * (sum.funcwarm - gen_s) / records;
    m["cpu.warmup_s"] = sum.warmup;
    m["cpu.measure_s"] = sum.measure;
    m["cpu.timed_mips"] = timed_instr / (sum.warmup + sum.measure) / 1e6;
    m["timed.ns_per_l2_req"] = 1e9 * sum.measure / sum.l2Requests;
    m["harness.build_ms"] = 1e3 * hot_build;
    m["phys.cold_build_ms"] = 1e3 * cold_build;
    m["sweep.rerun_ms"] = 1e3 * rerun_s;
    m["share.gen"] = gen_s / total;
    m["share.funcwarm_cache"] = (sum.funcwarm - gen_s) / total;
    m["share.timed"] = (sum.warmup + sum.measure) / total;
    m["share.build"] = sum.build / total;
    m["trace.overhead_ratio"] = replay_wall / cold_wall;
    m["mem.l2_requests"] = sum.l2Requests;
    m["mem.l2_misses"] = sum.l2Misses;
    m["nuca.banks_per_req"] = sum.banksAccessed / sum.l2Requests;
    m["noc.link_util_pct"] = link_util / static_cast<double>(n);
    m["mem.dram_reads"] = sum.dramReads;

    // Model outputs per design, averaged over the workload's
    // benchmarks; execution time is normalized to SNUCA2 as in Fig 5.
    auto resultOf = [&](const std::string &design,
                        const std::string &bench) -> const RunResult & {
        for (std::size_t i = 0; i < n; ++i)
            if (specs[i].config.design == design &&
                specs[i].benchmark == bench)
                return replayed[i];
        throw std::runtime_error("no run for " + design + "/" + bench);
    };
    double nb = static_cast<double>(w.benchmarks.size());
    for (const auto &design : designs) {
        double ipc = 0, log_norm = 0, err = 0;
        for (const auto &bench : w.benchmarks) {
            const RunResult &r = resultOf(design, bench);
            double norm = static_cast<double>(r.cycles) /
                          static_cast<double>(
                              resultOf("SNUCA2", bench).cycles);
            ipc += r.ipc;
            log_norm += std::log(norm);
            for (const auto &row : paperdata::fig5) {
                if (row.bench != bench)
                    continue;
                double paper = design == "DNUCA" ? row.dnuca : row.tlc;
                err += 100.0 * std::abs(norm - paper) / paper;
            }
        }
        m["model.ipc." + design] = ipc / nb;
        if (design == "SNUCA2")
            continue;
        m["model.norm_exec." + design] = std::exp(log_norm / nb);
        m["model.paper_err_pct." + design] = err / nb;
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << "\"" << k << "\": " << v;
        first = false;
    }
    os << "}, \"rerun_cached\": " << rerun.cached << ", ";
    printResults(os, "sweep", specs, cold.results);
    os << ", ";
    printResults(os, "replay", specs, replayed);
    os << ", ";
    printResults(os, "rerun", specs, rerun.results);
    os << "}\n";
    std::cout << os.str() << std::flush;
    return 0;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: tlbench sweep|trace --workload W --seed N "
                 "--work DIR [--budget paper|tiny] [--spans FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string mode = argv[1], workload, work, spans, budget = "paper";
    std::uint64_t seed = 0;
    bool have_seed = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--work")
            work = value;
        else if (flag == "--spans")
            spans = value;
        else if (flag == "--budget")
            budget = value;
        else
            usage();
    }
    if (argc % 2 != 0 || workload.empty() || work.empty() || !have_seed ||
        (budget != "paper" && budget != "tiny") ||
        (mode == "trace" && spans.empty()))
        usage();
    try {
        const Workload &w = workloadByName(workload);
        const Budget &b = budget == "paper" ? w.paper : w.tiny;
        if (mode == "sweep")
            return runSweepMode(w, b, seed, work);
        if (mode == "trace")
            return runTraceMode(w, b, seed, work, spans);
    } catch (const std::exception &e) {
        std::cerr << "tlbench: " << e.what() << "\n";
        return 1;
    }
    usage();
}
