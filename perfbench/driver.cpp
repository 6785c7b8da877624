/**
 * @file
 * End-to-end benchmark driver: QASM text in, verified QASM text out.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --root REPO [--trace-out FILE]
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *   tokyo_large  heuristic mapping of large circuits on IBM Q20 Tokyo
 *   exact_small  exact A* and the 4-entry portfolio on small instances
 *   serve_mixed  a JSON-lines request stream through the daemon core
 *
 * Every layer is reached through its public entry point only; the
 * driver times layers by wrapping those calls in spans of its own.
 * Inputs are generated from --seed during set-up; the mapper only ever
 * sees the rendered QASM text.  One pass runs every op of the workload
 * once; passes repeat until --seconds have elapsed.  The first pass is
 * the reference: every later pass (traced or not) must reproduce its
 * deterministic outputs exactly.
 *
 * With --trace 0 the run prints the end-to-end metrics.  With
 * --trace 1 it measures an untraced half and a traced half, prints the
 * per-layer metrics and self-time table of the traced half and the
 * tracing overhead (traced minus untraced end-to-end numbers), and
 * writes the spans to --trace-out as a Chrome trace.  The last stdout
 * line is always one JSON object: {"correct","attempted","failed",
 * "metrics"}.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/architectures.hpp"
#include "heuristic/heuristic_mapper.hpp"
#include "ir/generators.hpp"
#include "ir/queko.hpp"
#include "ir/schedule.hpp"
#include "obs/json.hpp"
#include "parallel/portfolio.hpp"
#include "qasm/importer.hpp"
#include "qasm/writer.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/warm.hpp"
#include "sim/verifier.hpp"
#include "toqm/mapper.hpp"

namespace {

using namespace toqm;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------- spans

struct Span
{
    const char *name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
};

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    bool on = false;
    std::vector<Span> spans;

    int
    begin(const char *name, int op, bool root = false)
    {
        if (!on)
            return -1;
        spans.push_back({name, now(), 0.0, root ? -1 : _open, op});
        _open = static_cast<int>(spans.size()) - 1;
        return _open;
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans[id].end = now();
        _open = spans[id].parent;
    }

  private:
    int _open = -1;
};

class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, int op, bool root = false)
        : _tracer(tracer), _id(tracer.begin(name, op, root))
    {}
    ~SpanScope() { _tracer.end(_id); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &_tracer;
    int _id;
};

// ------------------------------------------------------------- helpers

/** Seeded generator; modulo draws keep inputs identical across
 *  standard libraries. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _gen(seed) {}
    std::uint64_t next() { return _gen(); }
    int below(int n) { return static_cast<int>(_gen() % n); }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (int i = static_cast<int>(items.size()) - 1; i > 0; --i)
            std::swap(items[i], items[below(i + 1)]);
    }

  private:
    std::mt19937_64 _gen;
};

std::uint64_t
hashText(const std::string &text)
{
    return serve::fnv1a64(text.data(), text.size());
}

/**
 * Render a circuit as request QASM.  QFT skeletons carry generic GT
 * gates, which the writer lowers to cz; declare them opaque instead so
 * the structured tier still recognises the skeleton.
 */
std::string
renderQasm(const ir::Circuit &circuit)
{
    bool allGt = circuit.size() > 0;
    for (const ir::Gate &g : circuit.gates())
        allGt = allGt && g.kind() == ir::GateKind::GT;
    if (!allGt)
        return qasm::writeCircuit(circuit);
    std::string text = "OPENQASM 2.0;\nopaque gt a,b;\nqreg q[" +
                       std::to_string(circuit.numQubits()) + "];\n";
    for (const ir::Gate &g : circuit.gates())
        text += "gt q[" + std::to_string(g.qubit(0)) + "],q[" +
                std::to_string(g.qubit(1)) + "];\n";
    return text;
}

/** The writer emits GT gates as cz; compare like with like. */
ir::Circuit
gtAsCz(const ir::Circuit &circuit)
{
    ir::Circuit out(circuit.numQubits(), circuit.name());
    for (const ir::Gate &g : circuit.gates()) {
        if (g.kind() == ir::GateKind::GT)
            out.add(ir::Gate(ir::GateKind::CZ, g.qubit(0), g.qubit(1)));
        else
            out.add(g);
    }
    return out;
}

/** Parse "q0->Q3 q1->Q5 ..." from a writer layout comment line. */
bool
parseLayoutLine(const std::string &line, const std::string &prefix,
                std::vector<int> &layout)
{
    if (line.rfind(prefix, 0) != 0)
        return false;
    std::istringstream in(line.substr(prefix.size()));
    std::string token;
    layout.clear();
    while (in >> token) {
        const auto arrow = token.find("->Q");
        if (token.empty() || token[0] != 'q' || arrow == std::string::npos)
            return false;
        const int logical = std::stoi(token.substr(1, arrow - 1));
        if (logical != static_cast<int>(layout.size()))
            return false;
        layout.push_back(std::stoi(token.substr(arrow + 3)));
    }
    return true;
}

/** Rebuild a MappedCircuit from emitted QASM (layout comments + body). */
std::optional<ir::MappedCircuit>
reconstructMapped(const std::string &text)
{
    const auto nl1 = text.find('\n');
    const auto nl2 = nl1 == std::string::npos ? nl1
                                              : text.find('\n', nl1 + 1);
    if (nl2 == std::string::npos)
        return std::nullopt;
    ir::MappedCircuit mapped;
    if (!parseLayoutLine(text.substr(0, nl1),
                         "// initial layout (logical -> physical):",
                         mapped.initialLayout) ||
        !parseLayoutLine(text.substr(nl1 + 1, nl2 - nl1 - 1),
                         "// final layout (logical -> physical):",
                         mapped.finalLayout))
        return std::nullopt;
    mapped.physical = qasm::importString(text).circuit;
    return mapped;
}

/**
 * A random topological order of @p circuit's gates: gates on disjoint
 * qubits commute, so any order keeping each qubit's sequence is the
 * same dependency DAG.
 */
ir::Circuit
commutingReorder(const ir::Circuit &circuit, Rng &rng)
{
    const auto &gates = circuit.gates();
    std::vector<std::vector<int>> onQubit(circuit.numQubits());
    for (int i = 0; i < circuit.size(); ++i)
        for (const int q : gates[i].qubits())
            onQubit[q].push_back(i);
    std::vector<std::size_t> cursor(circuit.numQubits(), 0);
    auto ready = [&](int i) {
        for (const int q : gates[i].qubits())
            if (onQubit[q][cursor[q]] != i)
                return false;
        return true;
    };
    std::vector<int> frontier;
    for (int q = 0; q < circuit.numQubits(); ++q)
        if (!onQubit[q].empty() && ready(onQubit[q][0]))
            frontier.push_back(onQubit[q][0]);
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());

    ir::Circuit out(circuit.numQubits(), circuit.name());
    while (!frontier.empty()) {
        const int pick = rng.below(static_cast<int>(frontier.size()));
        const int i = frontier[pick];
        frontier.erase(frontier.begin() + pick);
        out.add(gates[i]);
        for (const int q : gates[i].qubits())
            ++cursor[q];
        for (const int q : gates[i].qubits()) {
            if (cursor[q] < onQubit[q].size()) {
                const int next = onQubit[q][cursor[q]];
                if (ready(next) &&
                    std::find(frontier.begin(), frontier.end(), next) ==
                        frontier.end())
                    frontier.push_back(next);
            }
        }
    }
    return out;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * (values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

/** Restart the kernel's peak-RSS mark at the current RSS. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS since the last resetPeakRss() (VmHWM), or since process
 *  start (ru_maxrss) where /proc is unreadable. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // in kB
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

// ------------------------------------------------------ op bookkeeping

/** What one op delivered; the deterministic part is compared across
 *  passes. */
struct OpResult
{
    bool ok = true;
    std::string why;      ///< first failure reason
    int cycles = 0;       ///< claimed makespan
    int swaps = 0;
    int ideal = 0;        ///< ir::idealCycles of the input
    long gates = 0;       ///< input gates
    std::uint64_t fingerprint = 0; ///< hash of the emitted text
    std::string tier;     ///< serve tier or mapper kind
    double seconds = 0.0; ///< op latency
    double peakMb = 0.0;  ///< peak RSS while the op ran

    void
    fail(const std::string &reason)
    {
        if (ok)
            why = reason;
        ok = false;
    }
};

/** Per-pass layer counters a workload fills (deterministic ones are
 *  compared across passes). */
struct Counters
{
    std::map<std::string, double> values;
    void add(const std::string &k, double v) { values[k] += v; }
    void max(const std::string &k, double v)
    {
        values[k] = std::max(values[k], v);
    }
};

/** A workload: set-up state plus one op per index. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate inputs from @p seed, render QASM, build services and
     *  do the first arch build. */
    virtual void setup(std::uint64_t seed, Tracer &tracer) = 0;
    virtual int opsPerPass() const = 0;
    /** Start of a pass (fresh per-pass services). */
    virtual void beginPass() {}
    /** Run op @p i (timed), then check it (untimed). */
    virtual OpResult run(int i, Tracer &tracer, Counters &counters) = 0;
    /** End of a pass: per-pass counters from service state. */
    virtual void endPass(Counters &) {}
    /** Ops whose deterministic output is only cycles (races). */
    virtual bool cyclesOnly(int) const { return false; }
    /** Tail percentile reported as latency_ms_tail. */
    virtual double tailQuantile() const = 0;
};

/** Independent output checks shared by the in-process workloads. */
void
checkMapped(OpResult &out, const ir::Circuit &logical,
            const ir::MappedCircuit &mapped,
            const ir::LatencyModel &latency, int claimedCycles)
{
    const int asap = ir::scheduleAsap(mapped.physical, latency).makespan;
    if (asap != claimedCycles)
        out.fail("claimed " + std::to_string(claimedCycles) +
                 " cycles, ASAP re-derivation gives " +
                 std::to_string(asap));
    out.cycles = claimedCycles;
    out.swaps = mapped.physical.numSwaps();
    out.ideal = ir::idealCycles(logical, latency);
}

// ------------------------------------------------------- tokyo_large

/** A named benchmark stand-in: qubits and published gate count. */
struct StandIn
{
    const char *name;
    int n;
    int gates;
};

/** Table 3's circuits. */
constexpr StandIn kTable3[] = {
    {"cm82a_208", 8, 650},    {"rd53_251", 8, 1291},
    {"urf2_277", 8, 20112},   {"urf1_278", 9, 54766},
    {"hwb8_113", 9, 69380},   {"urf1_149", 9, 184864},
    {"qft_10", 10, 200},      {"rd73_252", 10, 5321},
    {"sqn_258", 10, 10223},   {"z4_268", 11, 3073},
    {"life_238", 11, 22445},  {"9symml", 11, 34881},
    {"sqrt8_260", 12, 3009},  {"cycle10_2", 12, 6050},
    {"rd84_253", 12, 13658},  {"adr4_197", 13, 3439},
    {"root_255", 13, 17159},  {"dist_223", 13, 38046},
    {"cm42a_207", 14, 1776},  {"pm1_249", 14, 1776},
    {"cm85a_209", 14, 11414}, {"square_root", 15, 7630},
    {"ham15_107", 15, 8763},  {"dc2_222", 15, 9462},
    {"inc_237", 16, 10619},   {"mlp4_245", 16, 18852},
};
/** Stand-in gate cap: keeps one pass near three and a half seconds,
 *  so a 30 s run holds 7 to 9 passes for best-of-passes timing.  With
 *  a cap of 1000 a pass took about 4.5 s, and the 16k-gate op, which
 *  ranged from 2.0 to 3.4 s within one run, got only 6 or 7 tries: a
 *  ten-seed spread of 0.22 on ops_per_s. */
constexpr int kStandInGateCap = 400;
constexpr int kRandomSizes[] = {1000, 4000, 16000};

class TokyoLarge : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        // The circuits are a fixed corpus and the seed draws only the op
        // order, so run-to-run spread is the host's, not the inputs'.
        Rng corpus(0x70c10ull);
        Rng rng(seed ^ 0x70c10ull);
        std::vector<ir::Circuit> circuits;
        for (const StandIn &row : kTable3)
            circuits.push_back(ir::benchmarkStandIn(
                row.name, row.n, std::min(row.gates, kStandInGateCap)));
        for (const int gates : kRandomSizes)
            circuits.push_back(
                ir::randomCircuit(20, gates, 0.5, corpus.next(), 0.0));
        _texts.clear();
        for (const auto &c : circuits)
            _texts.push_back(renderQasm(c));
        rng.shuffle(_texts);
        SpanScope arch(tracer, "arch.build", -1, true);
        arch::byName("tokyo");
    }

    int opsPerPass() const override
    {
        return static_cast<int>(_texts.size());
    }

    double tailQuantile() const override { return 0.9; }

    OpResult
    run(int i, Tracer &tracer, Counters &counters) override
    {
        OpResult out;
        const ir::LatencyModel latency = ir::LatencyModel::ibmPreset();
        const double t0 = now();
        std::optional<SpanScope> op;
        op.emplace(tracer, "op", i, true);
        qasm::ImportResult program;
        {
            SpanScope s(tracer, "qasm.import", i);
            program = qasm::importString(_texts[i]);
        }
        std::unique_ptr<arch::CouplingGraph> graph;
        {
            SpanScope s(tracer, "arch.build", i);
            graph = std::make_unique<arch::CouplingGraph>(
                arch::byName("tokyo"));
        }
        heuristic::HeuristicResult res;
        {
            SpanScope s(tracer, "heuristic.map", i);
            heuristic::HeuristicConfig config;
            config.latency = latency;
            res = heuristic::HeuristicMapper(*graph, config)
                      .map(program.circuit);
        }
        sim::VerifyResult verdict;
        {
            SpanScope s(tracer, "sim.verify", i);
            verdict = sim::verifyMapping(program.circuit, res.mapped,
                                         *graph);
        }
        std::string text;
        {
            SpanScope s(tracer, "qasm.emit", i);
            text = qasm::writeMappedCircuit(res.mapped);
        }
        op.reset();
        out.seconds = now() - t0;
        out.peakMb = peakRssMb();
        // Hand freed pages back between ops (untimed), so every op
        // starts from the same heap and its peak RSS does not hold what
        // the allocator kept from the ops the seed put before it.
        // serve_mixed skips this: its sub-millisecond ops would pay the
        // page faults.
        malloc_trim(0);

        out.gates = program.circuit.size();
        out.tier = "heuristic";
        if (!res.success) {
            out.fail("heuristic mapper failed");
            return out;
        }
        if (!verdict.ok)
            out.fail("verify: " + verdict.message);
        checkMapped(out, program.circuit, res.mapped, latency,
                    res.cycles);
        out.fingerprint = hashText(text);
        counters.add("heuristic.expanded", res.stats.expanded);
        counters.add("heuristic.generated", res.stats.generated);
        return out;
    }

  private:
    std::vector<std::string> _texts;
};

// ------------------------------------------------------- exact_small

/** Table 1 QX2 stand-ins solved in roughly 50-550 ms by solo A*. */
constexpr StandIn kTable1[] = {
    {"4gt11_82", 5, 27},    {"4mod5-v0_20", 5, 20},
    {"alu-v0_27", 5, 36},   {"alu-v2_33", 5, 37},
    {"mod5mils_65", 5, 35}, {"rd32-v0_66", 4, 34},
    {"rd32-v1_68", 4, 36},
};

struct ExactInstance
{
    std::string label;
    std::string arch;
    std::string text;
    core::MapperConfig config;
    std::optional<std::vector<int>> layout;
    int knownOptimum = -1; ///< -1 = not known in closed form
};

class ExactSmall : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        // Fixed instances; the seed draws only the op order.
        Rng corpus(0xe8ac7ull);
        Rng rng(seed ^ 0xe8ac7ull);
        _instances.clear();
        for (const StandIn &row : kTable1) {
            ExactInstance inst;
            inst.label = row.name;
            inst.arch = "ibmqx2";
            inst.text = renderQasm(
                ir::benchmarkStandIn(row.name, row.n, row.gates));
            inst.config.latency = ir::LatencyModel::ibmPreset();
            inst.config.searchInitialMapping = true;
            _instances.push_back(std::move(inst));
        }
        // Section 6.1: the LNN butterfly depth 4n-7 is optimal here.
        for (const int n : {5, 6}) {
            ExactInstance inst;
            inst.label = "qft" + std::to_string(n) + "_lnn";
            inst.arch = "lnn" + std::to_string(n);
            inst.text = renderQasm(ir::qftSkeleton(n));
            inst.config.latency = ir::LatencyModel::qftPreset();
            inst.knownOptimum = 4 * n - 7;
            _instances.push_back(std::move(inst));
        }
        // QUEKO: optimal depth known by construction, reached from the
        // hidden layout.
        const arch::CouplingGraph grid = arch::byName("grid2by4");
        for (const int depth : {8, 12, 16}) {
            const ir::QuekoBenchmark q = ir::quekoCircuit(
                grid.numQubits(), grid.edges(), depth, 0.5, 0.3,
                corpus.next());
            ExactInstance inst;
            inst.label = "queko" + std::to_string(depth) + "_grid2by4";
            inst.arch = "grid2by4";
            inst.text = renderQasm(q.circuit);
            inst.config.latency = ir::LatencyModel(1, 1, 3);
            inst.layout = q.hiddenLayout;
            inst.knownOptimum = q.optimalDepth;
            _instances.push_back(std::move(inst));
        }
        // Every instance is mapped twice: solo A* (even op) and the
        // default 4-entry portfolio (odd op), in seeded order.
        _order.clear();
        for (int i = 0; i < 2 * static_cast<int>(_instances.size()); ++i)
            _order.push_back(i);
        rng.shuffle(_order);
        for (const std::string name : {"ibmqx2", "lnn5", "lnn6",
                                       "grid2by4"}) {
            SpanScope arch(tracer, "arch.build", -1, true);
            arch::byName(name);
        }
        _soloCycles.assign(_instances.size(), -1);
    }

    int opsPerPass() const override
    {
        return static_cast<int>(_order.size());
    }

    double tailQuantile() const override { return 0.9; }

    bool cyclesOnly(int i) const override { return _order[i] % 2 == 1; }

    OpResult
    run(int i, Tracer &tracer, Counters &counters) override
    {
        const int which = _order[i] / 2;
        const bool race = _order[i] % 2 == 1;
        const ExactInstance &inst = _instances[which];
        OpResult out;
        out.tier = race ? "portfolio" : "optimal";

        const double t0 = now();
        std::optional<SpanScope> op;
        op.emplace(tracer, "op", i, true);
        qasm::ImportResult program;
        {
            SpanScope s(tracer, "qasm.import", i);
            program = qasm::importString(inst.text);
        }
        std::unique_ptr<arch::CouplingGraph> graph;
        {
            SpanScope s(tracer, "arch.build", i);
            graph = std::make_unique<arch::CouplingGraph>(
                arch::byName(inst.arch));
        }
        bool success = false;
        int cycles = -1;
        ir::MappedCircuit mapped;
        search::SearchStats stats;
        double mapSeconds = 0.0;
        const double m0 = now();
        if (race) {
            SpanScope s(tracer, "parallel.portfolio", i);
            const auto res =
                parallel::PortfolioMapper(
                    *graph, parallel::defaultPortfolio(inst.config, 4))
                    .map(program.circuit, inst.layout);
            success = res.success && res.provenOptimal;
            cycles = res.cycles;
            mapped = res.mapped;
            stats = res.stats;
        } else {
            SpanScope s(tracer, "toqm.map", i);
            const auto res = core::OptimalMapper(*graph, inst.config)
                                 .map(program.circuit, inst.layout);
            success = res.success &&
                      res.status == search::SearchStatus::Solved;
            cycles = res.cycles;
            mapped = res.mapped;
            stats = res.stats;
        }
        mapSeconds = now() - m0;
        sim::VerifyResult verdict;
        {
            SpanScope s(tracer, "sim.verify", i);
            verdict =
                sim::verifyMapping(program.circuit, mapped, *graph);
        }
        std::string text;
        {
            SpanScope s(tracer, "qasm.emit", i);
            text = qasm::writeMappedCircuit(mapped);
        }
        op.reset();
        out.seconds = now() - t0;
        out.peakMb = peakRssMb();
        malloc_trim(0); // as in TokyoLarge::run

        out.gates = program.circuit.size();
        if (!success) {
            out.fail(out.tier + " search did not prove an optimum");
            return out;
        }
        if (!verdict.ok)
            out.fail("verify: " + verdict.message);
        checkMapped(out, program.circuit, mapped, inst.config.latency,
                    cycles);
        if (inst.knownOptimum >= 0 && cycles != inst.knownOptimum)
            out.fail(inst.label + ": " + std::to_string(cycles) +
                     " cycles, known optimum " +
                     std::to_string(inst.knownOptimum));
        // Solo and race must agree on the optimum, whichever ran first.
        int &solo = _soloCycles[which];
        if (solo < 0)
            solo = cycles;
        else if (solo != cycles)
            out.fail(inst.label + ": optimal and portfolio disagree (" +
                     std::to_string(solo) + " vs " +
                     std::to_string(cycles) + ")");
        out.fingerprint = race ? 0 : hashText(text);

        // The race's pool peak is that of its filterless entry at the
        // moment it was cancelled, so it follows thread timing; the
        // node-pool metric comes from the single-threaded solo runs.
        const double poolMb = stats.peakPoolBytes / (1024.0 * 1024.0);
        if (race) {
            counters.max("parallel.peak_pool_mb", poolMb);
            counters.add("parallel.portfolio_s", mapSeconds);
            counters.add("parallel.cpu_s", stats.seconds);
        } else {
            counters.max("search.peak_pool_mb", poolMb);
            counters.add("toqm.map_s", mapSeconds);
            counters.add("toqm.expanded", stats.expanded);
            counters.add("toqm.generated", stats.generated);
            counters.add("toqm.filtered", stats.filtered);
        }
        return out;
    }

  private:
    std::vector<ExactInstance> _instances;
    std::vector<int> _order;
    std::vector<int> _soloCycles;
};

// ------------------------------------------------------- serve_mixed

/** Result-cache budget of serve_mixed, split over the default 8
 *  shards; small enough that the stream evicts (see README.md). */
constexpr std::size_t kServeCacheBytes = 512ull << 10;

/** One distinct mapping problem of the request stream. */
struct ServeBase
{
    ir::Circuit circuit{0};
    std::string arch;
    std::string mapper;
    int lat[3] = {1, 2, 6};
};

/** One request line of the stream and what the checks need. */
struct ServeRequest
{
    int base = -1;
    std::string kind; ///< first | repeat | variant
    std::string line;
    std::string text; ///< the request's QASM
};

class ServeMixed : public Workload
{
  public:
    explicit ServeMixed(std::string root) : _root(std::move(root)) {}

    void
    setup(std::uint64_t seed, Tracer &tracer) override
    {
        // The distinct circuits and the stream order are fixed; the seed
        // draws the relabelings and the commuting reorders.  So every
        // seed asks the same mapping questions in the same order, and
        // the cache evicts and misses alike on every seed.
        Rng corpus(0x5e77eull);
        Rng rng(seed ^ 0x5e77eull);
        _bases.clear();
        auto add = [&](ir::Circuit c, const std::string &arch,
                       const std::string &mapper,
                       std::initializer_list<int> lat = {1, 2, 6}) {
            ServeBase b;
            b.circuit = std::move(c);
            b.arch = arch;
            b.mapper = mapper;
            std::copy(lat.begin(), lat.end(), b.lat);
            _bases.push_back(std::move(b));
        };
        auto fixture = [&](const std::string &name) {
            return qasm::importFile(_root + "/benchmarks/qasm/" + name)
                .circuit;
        };
        // Fixtures: the tiny ones go to the exact mapper.
        add(fixture("bell.qasm"), "lnn5", "optimal");
        add(fixture("qft4.qasm"), "lnn5", "optimal");
        add(fixture("ghz5_with_gate.qasm"), "ibmqx2", "optimal");
        add(fixture("adder2.qasm"), "tokyo", "zulehner");
        add(fixture("toffoli_chain.qasm"), "tokyo", "sabre");
        add(fixture("qft8.qasm"), "tokyo", "heuristic");
        add(fixture("qft_skel8.qasm"), "lnn8", "heuristic", {1, 1, 1});
        // Structured tier: QFT skeletons under uniform latency.
        for (const int n : {5, 6, 7})
            add(ir::qftSkeleton(n), "lnn" + std::to_string(n),
                "heuristic", {1, 1, 1});
        for (int n = 4; n <= 8; ++n)
            add(ir::qftConcrete(n), "tokyo", "heuristic");
        add(ir::ghz(12), "tokyo", "heuristic");
        add(ir::bernsteinVazirani(10, corpus.next() & 0x3ff), "tokyo",
            "heuristic");
        add(ir::rippleCarryAdder(4), "tokyo", "heuristic");
        add(ir::rippleCarryAdder(3), "tokyo", "sabre");
        // Random circuits at fixed sizes.
        const int sizes[][2] = {{6, 10},   {8, 20},   {8, 40},
                                {10, 60},  {10, 80},  {12, 100},
                                {12, 130}, {14, 160}, {14, 200},
                                {16, 250}, {16, 300}};
        for (const auto &s : sizes)
            add(ir::randomCircuit(s[0], s[1], 0.5, corpus.next(), 0.0),
                "tokyo", "heuristic");
        add(ir::randomCircuit(10, 120, 0.5, corpus.next(), 0.0), "tokyo",
            "zulehner");
        add(ir::randomCircuit(12, 150, 0.5, corpus.next(), 0.0), "tokyo",
            "sabre");

        // Every base is requested three times: first-seen, an exact
        // repeat, and a relabeled + commuting-reordered variant; the
        // order interleaves them, repeats always after their base.
        std::vector<int> firsts(_bases.size());
        for (std::size_t b = 0; b < _bases.size(); ++b)
            firsts[b] = static_cast<int>(b);
        corpus.shuffle(firsts);
        std::vector<std::pair<int, int>> later; // (base, 0 repeat|1 variant)
        std::size_t nextFirst = 0;
        _stream.clear();
        while (nextFirst < firsts.size() || !later.empty()) {
            const bool takeFirst =
                nextFirst < firsts.size() &&
                (later.empty() || corpus.below(3) == 0);
            if (takeFirst) {
                const int b = firsts[nextFirst++];
                _stream.push_back(request(b, "first", _bases[b].circuit));
                later.push_back({b, 0});
                later.push_back({b, 1});
                continue;
            }
            const int pick = corpus.below(static_cast<int>(later.size()));
            const auto [b, kind] = later[pick];
            later.erase(later.begin() + pick);
            if (kind == 0) {
                _stream.push_back(
                    request(b, "repeat", _bases[b].circuit));
            } else {
                const ir::Circuit &c = _bases[b].circuit;
                std::vector<int> perm(c.numQubits());
                for (int q = 0; q < c.numQubits(); ++q)
                    perm[q] = q;
                rng.shuffle(perm);
                _stream.push_back(request(
                    b, "variant", commutingReorder(c.remapped(perm), rng)));
            }
        }

        serve::ArchCache::global().clear();
        const std::uint64_t missesBefore =
            serve::ArchCache::global().stats().misses;
        for (const std::string name : {"tokyo", "lnn5", "lnn6", "lnn7",
                                       "lnn8", "ibmqx2"}) {
            SpanScope arch(tracer, "arch.build", -1, true);
            serve::ArchCache::global().lookup(name);
        }
        _setupArchMisses =
            serve::ArchCache::global().stats().misses - missesBefore;
        _serviceConfig.structuredTier = true;
        _serviceConfig.cacheBytes = kServeCacheBytes;
        _reference.assign(_stream.size(), std::string());
        _checked.assign(_stream.size(), false);
        _mapped.assign(_stream.size(), std::nullopt);
        _logical.assign(_stream.size(), ir::Circuit(0));
        _cycles.assign(_stream.size(), 0);
        _swaps.assign(_stream.size(), 0);
        _ideal.assign(_stream.size(), 0);
        _gates.assign(_stream.size(), 0);
    }

    int opsPerPass() const override
    {
        return static_cast<int>(_stream.size());
    }

    /** Not p99: that falls in the gap between the two slowest
     *  searches (about 50 and 28 ms), where it jumps between them from
     *  run to run; p95 falls between two searches of about 9.5 ms. */
    double tailQuantile() const override { return 0.95; }

    void
    beginPass() override
    {
        _server.reset();
        _service = std::make_unique<serve::MapService>(_serviceConfig);
        _server = std::make_unique<serve::Server>(serve::ServerConfig{},
                                                  *_service);
        _passArchMissesBefore = serve::ArchCache::global().stats().misses;
    }

    OpResult
    run(int i, Tracer &tracer, Counters &counters) override
    {
        const ServeRequest &req = _stream[i];
        const ServeBase &base = _bases[req.base];
        OpResult out;
        const serve::TierCounters before = _service->tierCounters();
        bool shutdown = false;
        std::string response;
        const double t0 = now();
        {
            SpanScope s(tracer, "serve.processLine", i, true);
            response = _server->processLine(req.line, shutdown);
        }
        out.seconds = now() - t0;
        out.peakMb = peakRssMb();
        const serve::TierCounters after = _service->tierCounters();
        out.tier = after.cacheHits > before.cacheHits ? "cache"
                   : after.cacheCanonicalHits > before.cacheCanonicalHits
                       ? "cache_canonical"
                   : after.structuredHits > before.structuredHits
                       ? "structured"
                   : after.searches > before.searches ? "search"
                                                      : "error";
        if (out.tier == "search" &&
            (base.mapper == "sabre" || base.mapper == "zulehner"))
            counters.add("baselines.map_s", out.seconds);
        if (after.verifyRejected != before.verifyRejected)
            out.fail("the verify gate rejected a cache translation");

        // Later passes must replay the first pass byte for byte.
        if (_checked[i]) {
            if (response != _reference[i])
                out.fail("response differs from the first pass");
            out.fingerprint = hashText(response);
        } else {
            check(i, response, out);
            _checked[i] = true;
            _reference[i] = response;
            out.fingerprint = hashText(response);
        }
        out.cycles = _cycles[i];
        out.swaps = _swaps[i];
        out.ideal = _ideal[i];
        out.gates = _gates[i];

        if (tracer.on)
            probe(i, tracer, out.tier);
        return out;
    }

    void
    endPass(Counters &counters) override
    {
        const serve::TierCounters t = _service->tierCounters();
        const serve::CacheStats cache = _service->cache().stats();
        counters.add("serve.tier.search", t.searches);
        counters.add("serve.tier.cache", t.cacheHits);
        counters.add("serve.tier.cache_canonical", t.cacheCanonicalHits);
        counters.add("serve.tier.structured", t.structuredHits);
        counters.add("serve.requests", t.requests);
        counters.add("serve.verify_rejected", t.verifyRejected);
        counters.add("serve.cache.evictions", cache.evictions);
        counters.add("serve.cache.rejected", cache.rejected);
        counters.add("serve.cache.bytes", cache.bytes);
        // Set-up's first builds plus any the stream caused.  Set-ups of
        // throwaway workloads between passes rebuild the same cache, so
        // the stream's share is counted per pass.
        counters.add("arch.cache_misses",
                     _setupArchMisses +
                         serve::ArchCache::global().stats().misses -
                         _passArchMissesBefore);
    }

  private:
    ServeRequest
    request(int b, const std::string &kind, const ir::Circuit &circuit)
    {
        const ServeBase &base = _bases[b];
        ServeRequest r;
        r.base = b;
        r.kind = kind;
        r.text = renderQasm(circuit);
        r.line = "{\"id\":\"r" + std::to_string(_stream.size()) +
                 "\",\"qasm\":" + serve::jsonQuote(r.text) +
                 ",\"arch\":\"" + base.arch + "\",\"mapper\":\"" +
                 base.mapper + "\",\"latency\":[" +
                 std::to_string(base.lat[0]) + "," +
                 std::to_string(base.lat[1]) + "," +
                 std::to_string(base.lat[2]) + "]}";
        return r;
    }

    /** Independent checks of a first-pass response (untimed). */
    void
    check(int i, const std::string &response, OpResult &out)
    {
        const ServeRequest &req = _stream[i];
        const ServeBase &base = _bases[req.base];
        const ir::LatencyModel latency(base.lat[0], base.lat[1],
                                       base.lat[2]);
        const ir::Circuit logical = qasm::importString(req.text).circuit;
        _gates[i] = logical.size();
        _ideal[i] = ir::idealCycles(logical, latency);

        obs::json::ValuePtr doc;
        try {
            doc = obs::json::parse(response);
        } catch (const std::exception &e) {
            out.fail(std::string("unparsable response: ") + e.what());
            return;
        }
        const auto code = doc->get("code");
        if (!code || code->asNumber() != 0) {
            out.fail("non-zero code: " + response.substr(0, 200));
            return;
        }
        std::string tier = doc->get("tier")->asString();
        std::replace(tier.begin(), tier.end(), '-', '_');
        if (tier != out.tier)
            out.fail("response tier " + tier + " but counters say " +
                     out.tier);
        const std::string qasmOut = doc->get("qasm")->asString();
        const int cycles = static_cast<int>(doc->get("cycles")->asNumber());
        const int swaps = static_cast<int>(doc->get("swaps")->asNumber());
        _cycles[i] = cycles;
        _swaps[i] = swaps;

        std::optional<ir::MappedCircuit> mapped;
        try {
            mapped = reconstructMapped(qasmOut);
        } catch (const std::exception &e) {
            out.fail(std::string("emitted QASM does not re-import: ") +
                     e.what());
            return;
        }
        if (!mapped) {
            out.fail("emitted QASM lacks layout comments");
            return;
        }
        const auto graph = serve::ArchCache::global().lookup(base.arch);
        const ir::Circuit expect = gtAsCz(logical);
        const auto verdict = sim::verifyMapping(expect, *mapped, *graph);
        if (!verdict.ok)
            out.fail("verify: " + verdict.message);
        const int asap =
            ir::scheduleAsap(mapped->physical, latency).makespan;
        if (asap != cycles)
            out.fail("claimed " + std::to_string(cycles) +
                     " cycles, ASAP re-derivation gives " +
                     std::to_string(asap));
        if (swaps != mapped->physical.numSwaps())
            out.fail("claimed swaps differ from the emitted circuit");

        // Cache replies against the searches that could have filled the
        // entry.  An exact hit replays the latest search of the same
        // circuit; two corpus files can import to the same circuit, and
        // a hit with no search of its own circuit is not compared.  A
        // canonical hit carries the cycles of a search of an equivalent
        // request (same canonical form and options): after an eviction
        // that may be a relabeled variant.
        const std::string options = base.arch + "|" + base.mapper + "|" +
                                    std::to_string(base.lat[0]) + "," +
                                    std::to_string(base.lat[1]) + "," +
                                    std::to_string(base.lat[2]) + "\n";
        const std::uint64_t exactKey =
            hashText(options + qasm::writeCircuit(logical));
        const std::uint64_t group = hashText(
            options + serve::canonicalizeCircuit(logical).text);
        if (tier == "search") {
            _searchText[exactKey] = qasmOut;
            _searchCycles[group].insert(cycles);
        } else if (tier == "cache") {
            const auto it = _searchText.find(exactKey);
            if (it != _searchText.end() && it->second != qasmOut)
                out.fail("cache reply not byte-identical to a search "
                         "reply for the same request (" + req.kind +
                         " of problem " + std::to_string(req.base) + ", " +
                         base.mapper + " on " + base.arch + ")");
        } else if (tier == "cache_canonical") {
            const auto it = _searchCycles.find(group);
            if (it == _searchCycles.end() || !it->second.count(cycles))
                out.fail("cache_canonical reply cycles match no search "
                         "of an equivalent request");
        }
        _mapped[i] = std::move(mapped);
        _logical[i] = logical;
    }

    /** Probe spans on the same request (excluded from end to end). */
    void
    probe(int i, Tracer &tracer, const std::string &tier)
    {
        const ServeRequest &req = _stream[i];
        ir::Circuit logical(0);
        {
            SpanScope s(tracer, "probe.qasm.import", i, true);
            logical = qasm::importString(req.text).circuit;
        }
        {
            SpanScope s(tracer, "probe.serve.canonicalize", i, true);
            serve::canonicalizeCircuit(logical);
        }
        if ((tier == "search" || tier == "cache_canonical") &&
            _mapped[i]) {
            const auto graph =
                serve::ArchCache::global().lookup(_bases[req.base].arch);
            {
                SpanScope s(tracer, "probe.sim.verify", i, true);
                sim::verifyMapping(_logical[i], *_mapped[i], *graph);
            }
            {
                SpanScope s(tracer, "probe.qasm.emit", i, true);
                qasm::writeMappedCircuit(*_mapped[i]);
            }
        }
    }

    std::string _root;
    std::vector<ServeBase> _bases;
    std::vector<ServeRequest> _stream;
    serve::ServiceConfig _serviceConfig;
    std::unique_ptr<serve::MapService> _service;
    std::unique_ptr<serve::Server> _server;
    std::uint64_t _setupArchMisses = 0;
    std::uint64_t _passArchMissesBefore = 0;

    std::vector<std::string> _reference;
    std::vector<bool> _checked;
    std::vector<int> _cycles, _swaps, _ideal, _gates;
    std::vector<std::optional<ir::MappedCircuit>> _mapped;
    std::vector<ir::Circuit> _logical;
    /** Options + written circuit -> QASM of its latest search reply. */
    std::map<std::uint64_t, std::string> _searchText;
    /** Options + canonical form -> cycles of its search replies. */
    std::map<std::uint64_t, std::set<int>> _searchCycles;
};

// ---------------------------------------------------------- the loop

/** Everything one measured phase (untraced or traced) produced. */
struct Phase
{
    std::vector<OpResult> ops;
    Counters counters; ///< summed over passes
    Counters first;    ///< the first pass alone (deterministic counts)
    int passes = 0;
    double wall = 0.0;
};

struct Reference
{
    bool set = false;
    std::vector<OpResult> ops;
    std::map<std::string, double> counters;
};

/** Counters that must repeat exactly from pass to pass. */
bool
deterministicCounter(const std::string &name)
{
    return name == "heuristic.expanded" || name == "heuristic.generated" ||
           name == "toqm.expanded" || name == "toqm.generated" ||
           name == "toqm.filtered" || name.rfind("serve.tier.", 0) == 0 ||
           name == "serve.verify_rejected" ||
           name == "serve.cache.evictions";
}

/** Passes every measured phase runs at least: best-of-N needs N, and
 *  four passes leave ten samples beyond the p90 tails. */
constexpr int kMinPasses = 4;

/** Runs passes for @p seconds, and @p afterPass after each pass. */
Phase
measure(Workload &w, double seconds, Tracer &tracer, Reference &ref,
        std::vector<std::string> &problems,
        const std::function<void()> &afterPass)
{
    Phase phase;
    const double start = now();
    do {
        Counters pass;
        w.beginPass();
        std::vector<OpResult> results;
        for (int i = 0; i < w.opsPerPass(); ++i) {
            OpResult r;
            resetPeakRss();
            try {
                r = w.run(i, tracer, pass);
            } catch (const std::exception &e) {
                r.fail(std::string("exception: ") + e.what());
            }
            if (ref.set) {
                const OpResult &base = ref.ops[i];
                const bool same =
                    r.cycles == base.cycles &&
                    (w.cyclesOnly(i) ||
                     (r.swaps == base.swaps &&
                      r.fingerprint == base.fingerprint));
                if (!same)
                    r.fail("output differs from the reference pass");
            }
            if (!r.ok && problems.size() < 20)
                problems.push_back("op " + std::to_string(i) + ": " +
                                   r.why);
            results.push_back(r);
        }
        w.endPass(pass);
        if (!ref.set) {
            ref.set = true;
            ref.ops = results;
            ref.counters = pass.values;
        } else {
            for (const auto &[name, value] : pass.values) {
                if (deterministicCounter(name) &&
                    value != ref.counters[name]) {
                    problems.push_back("counter " + name +
                                       " differs from the reference pass");
                    results.front().fail("counter drift");
                }
            }
        }
        if (phase.passes == 0)
            phase.first = pass;
        for (const auto &[name, value] : pass.values)
            phase.counters.add(name, value);
        phase.ops.insert(phase.ops.end(), results.begin(), results.end());
        ++phase.passes;
        afterPass();
    } while (phase.passes < kMinPasses || now() - start < seconds);
    phase.wall = now() - start;
    return phase;
}

struct EndToEnd
{
    double opsPerS = 0, gatesPerS = 0, p50Ms = 0, tailMs = 0;
    double cyclesOverIdeal = 0, swapsTotal = 0;
    long failed = 0, attempted = 0;
    long beyondTail = 0;
};

/**
 * Best-of-passes latency of each op (min-of-N): interference from
 * other tenants only ever slows an op down, so an op's fastest pass is
 * its most repeatable cost.
 */
std::vector<double>
bestOfPasses(const Phase &phase, int opsPerPass)
{
    std::vector<double> best(opsPerPass, 0.0);
    for (std::size_t k = 0; k < phase.ops.size(); ++k) {
        double &b = best[k % opsPerPass];
        const double s = phase.ops[k].seconds;
        b = k < static_cast<std::size_t>(opsPerPass) ? s : std::min(b, s);
    }
    return best;
}

EndToEnd
endToEnd(const Phase &phase, int opsPerPass, double tailQ)
{
    EndToEnd e;
    for (const OpResult &r : phase.ops)
        e.failed += r.ok ? 0 : 1;
    e.attempted = static_cast<long>(phase.ops.size());

    const std::vector<double> best = bestOfPasses(phase, opsPerPass);
    double busy = 0.0;
    double gates = 0.0;
    std::vector<double> lat;
    for (int i = 0; i < opsPerPass; ++i) {
        busy += best[i];
        gates += phase.ops[i].gates;
        lat.push_back(best[i] * 1e3);
    }
    e.opsPerS = opsPerPass / busy;
    e.gatesPerS = gates / busy;
    e.p50Ms = quantile(lat, 0.5);
    // The tail is a property of the slow samples themselves, so it
    // takes every pass's latency of every op, not the best of passes.
    std::vector<double> samples;
    for (const OpResult &r : phase.ops)
        samples.push_back(r.seconds * 1e3);
    e.tailMs = quantile(samples, tailQ);
    e.beyondTail = std::count_if(samples.begin(), samples.end(),
                                 [&](double v) { return v > e.tailMs; });
    double cycles = 0.0, ideal = 0.0;
    for (int i = 0; i < opsPerPass; ++i) {
        cycles += phase.ops[i].cycles;
        ideal += phase.ops[i].ideal;
        e.swapsTotal += phase.ops[i].swaps;
    }
    e.cyclesOverIdeal = ideal > 0 ? cycles / ideal : 0.0;
    return e;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    return out + "}";
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-34s %16s %s\n", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
}

/** Per-layer self time: span duration minus its children's. */
void
printAttribution(const Tracer &tracer, int passes)
{
    std::map<std::string, double> total, self;
    std::map<std::string, long> calls;
    std::vector<double> childSum(tracer.spans.size(), 0.0);
    for (const Span &s : tracer.spans)
        if (s.parent >= 0)
            childSum[s.parent] += s.end - s.start;
    double rootTotal = 0.0;
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &s = tracer.spans[i];
        const double d = s.end - s.start;
        total[s.name] += d;
        self[s.name] += d - childSum[i];
        ++calls[s.name];
        if (s.parent < 0 && s.op >= 0 &&
            std::string(s.name).rfind("probe.", 0) != 0)
            rootTotal += d;
    }
    std::printf("per-layer self time (traced half, per pass; probe.* "
                "spans run outside the ops):\n");
    std::printf("  %-26s %9s %12s %12s %8s\n", "layer", "calls/pass",
                "total ms", "self ms", "self %");
    for (const auto &[name, t] : total) {
        std::printf("  %-26s %9.1f %12.3f %12.3f %7.2f%%\n", name.c_str(),
                    static_cast<double>(calls[name]) / passes,
                    t * 1e3 / passes, self[name] * 1e3 / passes,
                    rootTotal > 0 && name.rfind("probe.", 0) != 0
                        ? 100.0 * self[name] / rootTotal
                        : 0.0);
    }
}

void
writeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace to " + path);
    const double origin =
        tracer.spans.empty() ? 0.0 : tracer.spans.front().start;
    out << "[";
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Span &s = tracer.spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << num((s.start - origin) * 1e6)
            << ",\"dur\":" << num((s.end - s.start) * 1e6)
            << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "\n]\n";
}

/** Total seconds and count of the spans named @p name. */
std::pair<double, long>
spanTotal(const Tracer &tracer, const char *name)
{
    double sum = 0.0;
    long n = 0;
    for (const Span &s : tracer.spans) {
        if (std::string(s.name) == name) {
            sum += s.end - s.start;
            ++n;
        }
    }
    return {sum, n};
}

double
sumSpan(const Tracer &tracer, const char *name)
{
    return spanTotal(tracer, name).first;
}

/** Mean duration (in @p scale units) of spans named @p name. */
double
meanSpan(const Tracer &tracer, const char *name, double scale)
{
    const auto [sum, n] = spanTotal(tracer, name);
    return n ? sum * scale / n : 0.0;
}

std::vector<Metric>
endToEndMetrics(const EndToEnd &e, double setup, double rss)
{
    return {
        {"latency_ms_p50", e.p50Ms, "ms"},
        {"latency_ms_tail", e.tailMs, "ms"},
        {"ops_per_s", e.opsPerS, "1/s"},
        {"gates_per_s", e.gatesPerS, "gates/s"},
        {"cycles_over_ideal", e.cyclesOverIdeal, "ratio"},
        {"swaps_total", e.swapsTotal, "count"},
        {"peak_rss_mb", rss, "MB"},
        {"setup_s", setup, "s"},
    };
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
    std::string root = ".";
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--root")
            a.root = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            throw std::invalid_argument("unknown flag " + k);
    }
    if (argc % 2 == 0)
        throw std::invalid_argument("flags come in --name value pairs");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "tokyo_large")
        return std::make_unique<TokyoLarge>();
    if (a.workload == "exact_small")
        return std::make_unique<ExactSmall>();
    if (a.workload == "serve_mixed")
        return std::make_unique<ServeMixed>(a.root);
    throw std::invalid_argument("unknown workload '" + a.workload +
                                "' (tokyo_large|exact_small|serve_mixed)");
}

/**
 * Set-up is timed like an op: a round of kSetupRound set-ups runs
 * before the first pass and again, on throwaway workloads, after any
 * pass that ends kSetupEvery seconds or more after the last round.
 * Each slot of a round keeps its best time over the rounds, and setup_s
 * is the median over the slots.  Other tenants slow whole stretches of
 * a run (set-up then takes up to 1.8x as long), so a median over all
 * set-ups would flip between fast and slow stretches from run to run.
 */
constexpr int kSetupRound = 5;
constexpr double kSetupEvery = 1.0;

int
run(const Args &args)
{
    Tracer setupTracer;
    setupTracer.on = true;
    std::vector<double> bestSetup(kSetupRound, 1e300);
    int setupRounds = 0;
    double lastRound = 0.0;
    std::unique_ptr<Workload> w = makeWorkload(args);
    const auto setupRound = [&] {
        for (int k = 0; k < kSetupRound; ++k) {
            // The first set-up builds the workload the passes run.
            std::unique_ptr<Workload> spare;
            if (k > 0 || setupRounds > 0)
                spare = makeWorkload(args);
            Workload &target = spare ? *spare : *w;
            setupTracer.spans.clear();
            const double t0 = now();
            target.setup(args.seed, setupTracer);
            bestSetup[k] = std::min(bestSetup[k], now() - t0);
        }
        ++setupRounds;
        lastRound = now();
    };
    setupRound();
    const auto afterPass = [&] {
        if (now() - lastRound >= kSetupEvery)
            setupRound();
    };

    std::printf("workload %s  seed %llu  ops/pass %d\n"
                "host: nproc %u, compiler %s, build %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                w->opsPerPass(), std::thread::hardware_concurrency(),
                __VERSION__, PERFBENCH_BUILD_TYPE);

    std::vector<std::string> problems;
    Reference ref;
    Tracer off;
    const double tailQ = w->tailQuantile();
    const double untracedSeconds =
        args.trace ? args.seconds / 2 : args.seconds;
    const Phase plain =
        measure(*w, untracedSeconds, off, ref, problems, afterPass);
    const EndToEnd e = endToEnd(plain, w->opsPerPass(), tailQ);
    // The mean of every op's own peak: the largest one follows the
    // thread timing of the one race that ran longest.
    double rss = 0.0, rssMax = 0.0;
    for (const OpResult &r : plain.ops) {
        rss += r.peakMb / plain.ops.size();
        rssMax = std::max(rssMax, r.peakMb);
    }
    const double setup = quantile(bestSetup, 0.5);
    std::printf("setup_s is the median of %d set-ups, each the best of "
                "%d rounds; peak_rss_mb the mean of %zu per-op peaks "
                "(largest %.1f MB)\n",
                kSetupRound, setupRounds, plain.ops.size(), rssMax);
    std::vector<Metric> e2e = endToEndMetrics(e, setup, rss);

    long attempted = e.attempted;
    long failed = e.failed;
    char tailLabel[64];
    std::snprintf(tailLabel, sizeof tailLabel, "p%g", tailQ * 100);

    std::vector<Metric> out;
    if (!args.trace) {
        printTable("end-to-end metrics (untraced):", e2e);
        std::printf("  %-34s %16s fraction (%ld of %ld ops)\n",
                    "failed_fraction",
                    num(static_cast<double>(failed) / attempted).c_str(),
                    failed, attempted);
        std::printf("  latency_ms_p50 and the rates use each op's best of "
                    "%d passes (%.2f s); latency_ms_tail is %s over all "
                    "%ld samples (%d ops x %d passes, %ld beyond)\n",
                    plain.passes, plain.wall, tailLabel, attempted,
                    w->opsPerPass(), plain.passes, e.beyondTail);
        if (e.beyondTail < 10)
            std::printf("  note: fewer than ten samples beyond %s\n",
                        tailLabel);
        out = e2e;
    } else {
        Tracer tracer;
        tracer.on = true;
        const Phase traced = measure(*w, args.seconds / 2, tracer, ref,
                                     problems, [] {});
        const EndToEnd te = endToEnd(traced, w->opsPerPass(), tailQ);
        attempted += te.attempted;
        failed += te.failed;
        const std::vector<Metric> te2e = endToEndMetrics(te, setup, rss);
        std::printf("tracing overhead (traced minus untraced, %d vs %d "
                    "passes):\n",
                    traced.passes, plain.passes);
        for (std::size_t k = 0; k < e2e.size(); ++k) {
            if (e2e[k].name == "setup_s" || e2e[k].name == "peak_rss_mb")
                continue;
            std::printf("  %-22s untraced %14s  traced %14s  delta %+.3f%%"
                        "\n",
                        e2e[k].name.c_str(), num(e2e[k].value).c_str(),
                        num(te2e[k].value).c_str(),
                        e2e[k].value != 0
                            ? 100.0 * (te2e[k].value - e2e[k].value) /
                                  e2e[k].value
                            : 0.0);
        }
        printAttribution(tracer, traced.passes);

        const auto &c = traced.first.values;
        auto get = [&](const char *k) {
            const auto it = c.find(k);
            return it == c.end() ? 0.0 : it->second;
        };
        auto perPass = [&](const char *k) {
            const auto it = traced.counters.values.find(k);
            return it == traced.counters.values.end()
                       ? 0.0
                       : it->second / traced.passes;
        };
        double gates = 0.0;
        for (const OpResult &r : traced.ops)
            gates += r.gates;
        const bool serve = args.workload == "serve_mixed";
        const char *import = serve ? "probe.qasm.import" : "qasm.import";
        const char *emit = serve ? "probe.qasm.emit" : "qasm.emit";
        const char *verify = serve ? "probe.sim.verify" : "sim.verify";
        double archMs = meanSpan(tracer, "arch.build", 1e3);
        if (archMs == 0.0)
            archMs = meanSpan(setupTracer, "arch.build", 1e3);
        const double heurS = sumSpan(tracer, "heuristic.map");
        const double toqmS = perPass("toqm.map_s");
        const double raceS = perPass("parallel.portfolio_s");
        const double requests = get("serve.requests");
        const std::vector<double> best =
            bestOfPasses(traced, w->opsPerPass());
        auto tierP50 = [&](const char *tier) {
            std::vector<double> v;
            for (int i = 0; i < w->opsPerPass(); ++i)
                if (traced.ops[i].tier == tier)
                    v.push_back(best[i] * 1e3);
            return quantile(v, 0.5);
        };
        out = {
            {"qasm.import_us", meanSpan(tracer, import, 1e6), "us"},
            {"qasm.import_ns_per_gate",
             gates > 0 ? sumSpan(tracer, import) * 1e9 / gates : 0.0,
             "ns/gate"},
            {"qasm.emit_us", meanSpan(tracer, emit, 1e6), "us"},
            {"arch.build_ms", archMs, "ms"},
            {"arch.cache_misses", get("arch.cache_misses"), "count"},
            {"serve.canonicalize_us",
             meanSpan(tracer, "probe.serve.canonicalize", 1e6), "us"},
            {"serve.tier.search", get("serve.tier.search"), "count"},
            {"serve.tier.cache", get("serve.tier.cache"), "count"},
            {"serve.tier.cache_canonical",
             get("serve.tier.cache_canonical"), "count"},
            {"serve.tier.structured", get("serve.tier.structured"),
             "count"},
            {"serve.cache.hit_ratio",
             requests > 0 ? (get("serve.tier.cache") +
                             get("serve.tier.cache_canonical")) /
                                requests
                          : 0.0,
             "ratio"},
            {"serve.cache.evictions", get("serve.cache.evictions"),
             "count"},
            {"serve.latency_ms_p50.search", tierP50("search"), "ms"},
            {"serve.latency_ms_p50.cache", tierP50("cache"), "ms"},
            {"serve.latency_ms_p50.cache_canonical",
             tierP50("cache_canonical"), "ms"},
            {"serve.latency_ms_p50.structured", tierP50("structured"),
             "ms"},
            {"heuristic.map_s", heurS / traced.passes, "s"},
            {"heuristic.us_per_gate",
             heurS > 0 ? heurS * 1e6 / gates : 0.0, "us/gate"},
            {"heuristic.expanded", get("heuristic.expanded"), "count"},
            {"heuristic.generated", get("heuristic.generated"), "count"},
            {"heuristic.generated_per_expanded",
             get("heuristic.expanded") > 0
                 ? get("heuristic.generated") / get("heuristic.expanded")
                 : 0.0,
             "ratio"},
            {"toqm.map_s", toqmS, "s"},
            {"toqm.expanded", get("toqm.expanded"), "count"},
            {"toqm.generated", get("toqm.generated"), "count"},
            {"toqm.filtered", get("toqm.filtered"), "count"},
            {"toqm.filtered_fraction",
             get("toqm.generated") > 0
                 ? get("toqm.filtered") / get("toqm.generated")
                 : 0.0,
             "ratio"},
            {"toqm.expanded_per_s",
             toqmS > 0 ? get("toqm.expanded") / toqmS : 0.0, "1/s"},
            {"search.peak_pool_mb", get("search.peak_pool_mb"), "MB"},
            {"parallel.peak_pool_mb", get("parallel.peak_pool_mb"), "MB"},
            {"parallel.portfolio_s", raceS, "s"},
            {"parallel.portfolio_over_solo",
             toqmS > 0 ? raceS / toqmS : 0.0, "ratio"},
            {"parallel.cpu_over_wall",
             raceS > 0 ? perPass("parallel.cpu_s") / raceS : 0.0,
             "ratio"},
            {"sim.verify_us", meanSpan(tracer, verify, 1e6), "us"},
            {"baselines.map_s", perPass("baselines.map_s"), "s"},
        };
        printTable("per-layer metrics (traced half):", out);
        // A check, not a metric: it must read 0 on every correct run,
        // and a non-zero value already fails the op.
        std::printf("  %-34s %16s count (a check: must read 0)\n",
                    "serve.verify_rejected",
                    num(get("serve.verify_rejected")).c_str());
        if (serve)
            std::printf("  serve.cache.hit_ratio base: %g requests per "
                        "pass; cache at pass end: %g bytes of a %zu-byte "
                        "budget, %g entries rejected as too large\n",
                        requests, get("serve.cache.bytes"),
                        kServeCacheBytes, get("serve.cache.rejected"));
        if (!args.traceOut.empty()) {
            writeTrace(tracer, args.traceOut);
            std::printf("spans written to %s (%zu spans)\n",
                        args.traceOut.c_str(), tracer.spans.size());
        }
    }

    for (const std::string &p : problems)
        std::printf("FAILED %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                failed == 0 && problems.empty() ? "true" : "false",
                attempted, failed, metricsJson(out).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
