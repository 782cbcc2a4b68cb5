#include "ledger.hpp"

#include <filesystem>
#include <memory>

#include "analysis/branch_stats.hpp"
#include "analysis/h2p.hpp"
#include "analysis/simpoint.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "pipeline/core.hpp"
#include "serve.hpp"
#include "serve/protocol.hpp"
#include "tracestore/chunk_cache.hpp"
#include "tracestore/store.hpp"
#include "util/logging.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

using namespace bpnsp;

const std::vector<std::string> kTageSizes{
    "tage-sc-l-8KB",   "tage-sc-l-64KB",  "tage-sc-l-128KB",
    "tage-sc-l-256KB", "tage-sc-l-512KB", "tage-sc-l-1024KB"};

const std::vector<unsigned> kPipelineScales{1, 2, 4, 8, 16, 32};

namespace {

/** Timed passes per layer; the median pass is kept. */
constexpr int kPasses = 5;

/** Outputs of the Fig. 7 fan-out: 7 predictor sims + 42 core models. */
constexpr unsigned kFanoutOutputs = 49;

/** Protocol round trips timed per pass (4 frames each). */
constexpr unsigned kProtocolRounds = 20000;

using Records = std::vector<TraceRecord>;

/** Stream every record into the sink, as a fan-out output sees it. */
void
feed(TraceSink &sink, const Records &records)
{
    for (const TraceRecord &rec : records)
        sink.onRecord(rec);
}

/**
 * Wall ns of one `run(state)`, where `make()` builds the fresh state
 * outside the timed region.
 */
template <typename Make, typename Run>
double
onePassNs(Make &&make, Run &&run)
{
    auto state = make();
    const auto t0 = Clock::now();
    run(*state);
    return secondsSince(t0) * 1e9;
}

/** Median of kPasses onePassNs(make, run). */
template <typename Make, typename Run>
double
passNs(Make &&make, Run &&run)
{
    std::vector<double> ns;
    for (int i = 0; i < kPasses; ++i)
        ns.push_back(onePassNs(make, run));
    return median(ns);
}

/** A predictor driven alone: the baseline a paired timing subtracts. */
struct Sim
{
    std::unique_ptr<BranchPredictor> bp;
    std::unique_ptr<PredictorSim> sim;
};

std::unique_ptr<Sim>
makeSim(const std::string &name)
{
    auto s = std::make_unique<Sim>();
    s->bp = makePredictor(name);
    s->sim = std::make_unique<PredictorSim>(*s->bp,
                                            /*collect_per_branch=*/false);
    return s;
}

/**
 * Median over kPasses of (consumer with its tage-sc-l-8KB predictor)
 * minus (the predictor alone), both timed back to back in each pass so
 * the difference sees one host state.
 */
template <typename Make, typename Run>
double
pairedNs(const Records &records, Make &&make, Run &&run)
{
    std::vector<double> ns;
    for (int i = 0; i < kPasses; ++i) {
        const double base = onePassNs(
            [] { return makeSim("tage-sc-l-8KB"); },
            [&](Sim &s) { feed(*s.sim, records); });
        ns.push_back(onePassNs(make, run) - base);
    }
    return median(ns);
}

double
timerNs()
{
    constexpr int kCalls = 1000000;
    std::vector<double> ns;
    for (int pass = 0; pass < kPasses; ++pass) {
        int64_t sink = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            sink += Clock::now().time_since_epoch().count() & 1;
        ns.push_back(secondsSince(t0) * 1e9 / kCalls);
        if (sink < 0)
            std::abort();
    }
    return median(ns);
}

/** One request/reply frame pair of each class, encoded and decoded. */
double
protocolNsPerFrame()
{
    using namespace bpnsp::serve;
    const ServeRequest sim = simulateRequest(
        "mcf_like", 0, 400000, "tage-sc-l-8KB", 50000, 50000);
    const ServeRequest stats = branchStatsRequest(
        "game", 0, 20000, "tage-sc-l-8KB", 5000, 16);
    ServeReply simReply;
    simReply.type = MessageType::SimulateReply;
    simReply.delivered = 50000;
    simReply.condExecs = 7000;
    simReply.condMispreds = 300;
    simReply.accuracyBits = doubleBits(0.957);
    ServeReply statsReply;
    statsReply.type = MessageType::BranchStatsReply;
    statsReply.delivered = 20000;
    for (uint64_t i = 0; i < 16; ++i)
        statsReply.branches.push_back({0x400000 + 4 * i, 100, 10, 50});

    // Encode a frame and parse its header and checksum back.
    auto frameUp = [](MessageType type, const std::vector<uint8_t> &payload,
                      std::vector<uint8_t> &frame) {
        FrameHeader header;
        if (!encodeFrame(type, 7, payload, &frame).ok() ||
            !parseFrameHeader(frame.data(), kFrameHeaderBytes, &header)
                 .ok() ||
            !verifyFramePayload(header, frame.data() + kFrameHeaderBytes)
                 .ok())
            fatal("perfbench: frame did not parse back");
    };

    std::vector<double> ns;
    std::vector<uint8_t> frame;
    for (int pass = 0; pass < kPasses; ++pass) {
        const auto t0 = Clock::now();
        for (unsigned i = 0; i < kProtocolRounds; ++i) {
            for (const ServeRequest *req : {&sim, &stats}) {
                frameUp(req->type, encodeRequestPayload(*req), frame);
                ServeRequest back;
                if (!decodeRequestPayload(
                         req->type, frame.data() + kFrameHeaderBytes,
                         frame.size() - kFrameHeaderBytes, &back)
                         .ok())
                    fatal("perfbench: request did not decode");
            }
            for (const ServeReply *rep : {&simReply, &statsReply}) {
                frameUp(rep->type, encodeReplyPayload(*rep), frame);
                ServeReply back;
                if (!decodeReplyPayload(
                         rep->type, frame.data() + kFrameHeaderBytes,
                         frame.size() - kFrameHeaderBytes, &back)
                         .ok())
                    fatal("perfbench: reply did not decode");
            }
        }
        ns.push_back(secondsSince(t0) * 1e9 / (4.0 * kProtocolRounds));
    }
    return median(ns);
}

} // namespace

double
Ledger::at(const std::string &name) const
{
    const auto it = cost.find(name);
    if (it == cost.end())
        fatal("perfbench: ledger has no entry ", name);
    return it->second;
}

void
Ledger::put(const std::string &name, double value,
            const std::string &unit, uint64_t samples)
{
    cost[name] = value;
    metrics.push_back({name, value, unit, samples});
}

Ledger
measureLedger(const LedgerInput &input)
{
    Ledger ledger;
    ledger.put("obs.timer_ns", timerNs(), "ns", kPasses);

    const Workload workload = findWorkload(input.workload);
    {
        std::vector<double> ms;
        for (int i = 0; i < kPasses; ++i) {
            const auto t0 = Clock::now();
            const Program program = workload.build(input.inputIdx);
            ms.push_back(secondsSince(t0) * 1e3);
        }
        ledger.put("workloads.build_ms", median(ms), "ms", kPasses);
    }

    const Program program = workload.build(input.inputIdx);
    const uint64_t n = input.instructions;
    VectorSink capture;
    runTrace(program, {&capture}, n);
    const Records &records = capture.get();
    uint64_t branches = 0;
    for (const TraceRecord &rec : records)
        branches += rec.isCondBranch() ? 1 : 0;
    ledger.records = records.size();
    ledger.condBranches = branches;
    const double perRecord = 1.0 / static_cast<double>(n);
    const double perBranch = 1.0 / static_cast<double>(branches);

    ledger.put("vm.ns_per_instr",
               passNs([] { return std::make_unique<EmptySink>(); },
                      [&](EmptySink &sink) {
                          runTrace(program, {&sink}, n);
                      }) *
                   perRecord,
               "ns", kPasses);

    // --- tracestore: encode, verify, decode -------------------------
    const std::string path = "ledger.bpt";   // in the run directory
    {
        std::vector<double> ns;
        for (int i = 0; i < kPasses; ++i) {
            TraceStoreWriter writer(path);
            const auto t0 = Clock::now();
            feed(writer, records);
            ns.push_back(secondsSince(t0) * 1e9);
            writer.onEnd();   // footer + fsync: not the codec's cost
            if (!writer.status().ok())
                fatal("perfbench: cannot write ", path, ": ",
                      writer.status().str());
        }
        ledger.put("tracestore.encode_ns_per_record",
                   median(ns) * perRecord, "ns", kPasses);
    }
    ledger.put("tracestore.bytes_per_record",
               static_cast<double>(std::filesystem::file_size(path)) *
                   perRecord,
               "B", 1);
    {
        Status st;
        const auto reader = TraceStoreReader::open(path, &st);
        if (reader == nullptr)
            fatal("perfbench: cannot open ", path, ": ", st.str());
        // Decode cost is the uncached path: switch the in-process
        // decoded-chunk cache off for these passes.
        DecodedChunkCache &chunks = DecodedChunkCache::instance();
        const size_t capacity = chunks.capacityBytes();
        chunks.setCapacityBytes(0);
        const double verifyNs = passNs(
            [] { return std::make_unique<int>(0); },
            [&](int &) {
                if (!reader->verify().ok())
                    fatal("perfbench: ledger store failed verify");
            });
        const double replayNs = passNs(
            [] { return std::make_unique<EmptySink>(); },
            [&](EmptySink &sink) {
                if (!reader->replay(sink, 0).ok())
                    fatal("perfbench: ledger store failed replay");
            });
        chunks.setCapacityBytes(capacity);
        ledger.put("tracestore.verify_ns_per_record",
                   verifyNs * perRecord, "ns", kPasses);
        ledger.put("tracestore.decode_ns_per_record",
                   (replayNs - verifyNs) * perRecord, "ns", kPasses);
    }
    std::filesystem::remove(path);

    // --- bp: every predictor of the sweeps, alone -------------------
    std::vector<std::string> predictors{"gshare"};
    predictors.insert(predictors.end(), kTageSizes.begin(),
                      kTageSizes.end());
    predictors.push_back("perfect");
    for (const std::string &name : predictors) {
        uint64_t mispredicts = 0;
        const double ns = passNs(
            [&] { return makeSim(name); },
            [&](Sim &s) {
                feed(*s.sim, records);
                mispredicts = s.sim->condMispreds();
            });
        const double construct = passNs(
            [] { return std::make_unique<int>(0); },
            [&](int &) { (void)makePredictor(name); });
        ledger.cost["bp." + name + ".construct_ns"] = construct;
        if (name == "perfect") {
            ledger.cost["bp.perfect.ns_per_branch"] = ns * perBranch;
            continue;
        }
        ledger.put("bp." + name + ".ns_per_branch", ns * perBranch,
                   "ns", kPasses);
        ledger.put("bp." + name + ".mispredicts",
                   static_cast<double>(mispredicts), "count", 1);
    }
    // --- pipeline: CoreModel per record, minus its predictor --------
    for (unsigned scale : kPipelineScales) {
        struct Pair
        {
            std::unique_ptr<BranchPredictor> bp;
            std::unique_ptr<PredictorSim> sim;
            std::unique_ptr<CoreModel> core;
        };
        const CoreConfig config = CoreConfig::skylake().scaled(scale);
        auto make = [&] {
            auto p = std::make_unique<Pair>();
            p->bp = makePredictor("tage-sc-l-8KB");
            p->sim = std::make_unique<PredictorSim>(*p->bp, false);
            p->core = std::make_unique<CoreModel>(config, *p->sim);
            return p;
        };
        const double ns = pairedNs(records, make, [&](Pair &p) {
            TraceSink &sim = *p.sim;
            TraceSink &core = *p.core;
            for (const TraceRecord &rec : records) {
                sim.onRecord(rec);
                core.onRecord(rec);
            }
        });
        const std::string name =
            "pipeline.core." + std::to_string(scale) + "x";
        const double perRec = ns * perRecord;
        if (scale == 1 || scale == 32)
            ledger.put(name + ".ns_per_record", perRec, "ns", kPasses);
        else
            ledger.cost[name + ".ns_per_record"] = perRec;
        const std::unique_ptr<BranchPredictor> perfect =
            makePredictor("perfect");
        const PredictorSim outcomes(*perfect, false);
        ledger.cost[name + ".construct_ns"] = passNs(
            [] { return std::make_unique<int>(0); },
            [&](int &) { CoreModel core(config, outcomes); });
    }

    // --- core: FanoutSink per record per output ---------------------
    {
        std::vector<EmptySink> outputs(kFanoutOutputs);
        ledger.put("core.fanout.ns_per_output",
                   passNs(
                       [&] {
                           auto f = std::make_unique<FanoutSink>();
                           for (EmptySink &s : outputs)
                               f->add(&s);
                           return f;
                       },
                       [&](FanoutSink &f) { feed(f, records); }) *
                       perRecord / kFanoutOutputs,
                   "ns", kPasses);
    }

    // --- analysis: sliced stats, BBVs, H2P summary, SimPoint --------
    struct Sliced
    {
        std::unique_ptr<BranchPredictor> bp;
        std::unique_ptr<SlicedBranchStats> stats;
    };
    std::unique_ptr<Sliced> sliced;
    const double slicedNs = pairedNs(
        records,
        [&] {
            auto s = std::make_unique<Sliced>();
            s->bp = makePredictor("tage-sc-l-8KB");
            s->stats = std::make_unique<SlicedBranchStats>(
                *s->bp, input.sliceLength);
            return s;
        },
        [&](Sliced &s) {
            feed(*s.stats, records);
            s.stats->onEnd();
        });
    ledger.put("analysis.sliced_stats.ns_per_branch",
               slicedNs * perBranch, "ns", kPasses);
    sliced = std::make_unique<Sliced>();
    sliced->bp = makePredictor("tage-sc-l-8KB");
    sliced->stats =
        std::make_unique<SlicedBranchStats>(*sliced->bp,
                                            input.sliceLength);
    feed(*sliced->stats, records);
    sliced->stats->onEnd();

    std::unique_ptr<BbvCollector> bbv;
    ledger.put("analysis.bbv.ns_per_record",
               passNs(
                   [&] {
                       return std::make_unique<BbvCollector>(
                           input.sliceLength);
                   },
                   [&](BbvCollector &b) {
                       feed(b, records);
                       b.onEnd();
                   }) *
                   perRecord,
               "ns", kPasses);
    bbv = std::make_unique<BbvCollector>(input.sliceLength);
    feed(*bbv, records);
    bbv->onEnd();

    const H2pCriteria criteria =
        H2pCriteria{}.scaledTo(input.sliceLength);
    ledger.put("analysis.h2p.ms",
               passNs([] { return std::make_unique<int>(0); },
                      [&](int &) {
                          (void)summarizeH2ps(*sliced->stats, criteria);
                      }) /
                   1e6,
               "ms", kPasses);
    ledger.put("analysis.simpoint.ms",
               passNs([] { return std::make_unique<int>(0); },
                      [&](int &) { (void)clusterPhases(bbv->vectors()); }) /
                   1e6,
               "ms", kPasses);

    ledger.put("serve.protocol.ns_per_frame", protocolNsPerFrame(), "ns",
               kPasses);
    return ledger;
}

void
reportLayers(const Ledger &ledger, double coverage,
             double trace_overhead, RunResult *result)
{
    for (const Metric &m : ledger.metrics)
        result->metrics.push_back(m);
    result->add("layer_coverage", coverage, "fraction", 1);
    result->add("trace_overhead", trace_overhead, "fraction", 1);
}

} // namespace perfbench
