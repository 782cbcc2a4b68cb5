/**
 * @file
 * Tests for the campaign subsystem and the cancellation layer it is
 * built on: cancel-token semantics and scoping, cancel/deadline cuts
 * through the VM delivery loop and the replay path, journal
 * round-trips with torn tails, retry/poison handling,
 * kill-between-appends + --resume bit-identity, and cell counts
 * invariant to the trace cache and to resume.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign.hpp"
#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "campaign/journal.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "frontend/frontend.hpp"
#include "obs/metrics.hpp"
#include "tracestore/store.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/** Fresh scratch directory per test; removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const char *tag)
        : path(std::string(::testing::TempDir()) + "bpnsp_campaign_" +
               tag)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string
    file(const std::string &name) const
    {
        return path + "/" + name;
    }

    const std::string path;
};

/** A tiny two-cell campaign config rooted in `dir`. */
CampaignConfig
smallConfig(const ScratchDir &dir, const std::string &journalName)
{
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare,bimodal", 30000);
    config.journalPath = dir.file(journalName);
    config.backoffMs = 1;
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// Cancellation layer.

TEST(CancelToken, FirstCauseWinsAndDeadlineLatches)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.check().ok());

    token.requestCancel(CancelCause::User);
    token.requestCancel(CancelCause::Signal);   // loses the race
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.cause(), CancelCause::User);
    EXPECT_EQ(token.check().code(), StatusCode::Cancelled);

    CancelToken deadline;
    deadline.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(deadline.cancelled());
    EXPECT_EQ(deadline.check().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(deadline.cause(), CancelCause::Deadline);
}

TEST(CancelToken, ParentPropagatesAndScopeInstalls)
{
    CancelToken parent;
    CancelToken child(&parent);
    EXPECT_FALSE(child.cancelled());
    parent.requestCancel(CancelCause::Signal);
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.check().code(), StatusCode::Cancelled);

    // The default current token is the global one; a scope overrides
    // it for the thread and restores on destruction.
    CancelToken *defaultToken = currentCancelToken();
    EXPECT_EQ(defaultToken, &globalCancelToken());
    {
        CancelToken local;
        CancelScope scope(local);
        EXPECT_EQ(currentCancelToken(), &local);
    }
    EXPECT_EQ(currentCancelToken(), defaultToken);
}

TEST(Cancel, CutsVmDeliveryLoopMidRun)
{
    const Workload workload = findWorkload("mcf_like");
    CancelToken token;
    CancelScope scope(token);

    std::thread firer([&token]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        token.requestCancel(CancelCause::User);
    });
    const uint64_t budget = 4000000000ull;   // minutes uncancelled
    const uint64_t executed = runTrace(workload.build(0), {}, budget);
    firer.join();

    EXPECT_LT(executed, budget);
    EXPECT_EQ(token.check().code(), StatusCode::Cancelled);
}

TEST(Cancel, CutsReplayMidStream)
{
    ScratchDir dir("replay_cancel");
    const Workload workload = findWorkload("mcf_like");
    const std::string path = dir.file("trace.bpt");
    {
        TraceStoreWriter writer(path);
        runTrace(workload.build(0), {&writer}, 200000);
    }
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();

    CancelToken token;
    token.requestCancel(CancelCause::User);
    CancelScope scope(token);
    CountingSink sink;
    st = reader->replay(sink, 0);
    EXPECT_EQ(st.code(), StatusCode::Cancelled);
}

TEST(Cancel, DeadlinePropagatesThroughReplay)
{
    ScratchDir dir("replay_deadline");
    const Workload workload = findWorkload("mcf_like");
    const std::string path = dir.file("trace.bpt");
    {
        TraceStoreWriter writer(path);
        runTrace(workload.build(0), {&writer}, 200000);
    }
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();

    CancelToken token;
    token.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    CancelScope scope(token);
    CountingSink sink;
    st = reader->replay(sink, 0);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded);
}

// ---------------------------------------------------------------------
// Journal.

TEST(CampaignJournal, RoundTripAndTornTail)
{
    ScratchDir dir("journal");
    const std::string path = dir.file("camp.journal");
    const std::string spec = "0123456789abcdef";

    CampaignJournal journal;
    ASSERT_TRUE(CampaignJournal::create(path, spec, 3, &journal).ok());
    ASSERT_TRUE(journal.appendStart(0, 0, "w/i/p").ok());
    ASSERT_TRUE(
        journal.appendDone(0, CellResult{1000, 150, 12, 7}).ok());
    ASSERT_TRUE(journal.appendStart(1, 0, "w/i/q").ok());
    ASSERT_TRUE(
        journal
            .appendFailure(1, 0, Status::ioError("disk on fire"))
            .ok());
    ASSERT_TRUE(journal.appendPoisoned(1).ok());
    ASSERT_TRUE(journal.appendStart(2, 0, "w/i/r").ok());
    journal.close();

    // A crash mid-append leaves a torn, newline-less tail.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "D 2 99";
    }

    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(path, spec, 3, &ledger).ok());
    ASSERT_EQ(ledger.size(), 3u);
    EXPECT_EQ(ledger[0].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[0].result.instructions, 1000u);
    EXPECT_EQ(ledger[0].result.predictions, 150u);
    EXPECT_EQ(ledger[0].result.mispredicts, 12u);
    EXPECT_EQ(ledger[1].state, CellLedger::State::Poisoned);
    // The torn "D 2 ..." line must not count as done.
    EXPECT_EQ(ledger[2].state, CellLedger::State::Pending);

    // A different spec digest must be refused outright.
    EXPECT_EQ(CampaignJournal::load(path, "ffffffffffffffff", 3,
                                    &ledger)
                  .code(),
              StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Campaign supervisor.

TEST(Campaign, RunsAllCellsAndBalancesCounters)
{
    ScratchDir dir("basic");
    const CampaignConfig config = smallConfig(dir, "camp.journal");
    const CampaignResult result = runCampaign(config);

    ASSERT_TRUE(result.status.ok()) << result.status.str();
    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.done, config.cells.size());
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.skipped, 0u);
    EXPECT_EQ(result.done + result.failed + result.skipped,
              config.cells.size());
    for (const CellOutcome &out : result.outcomes) {
        EXPECT_EQ(out.state, CellState::Done);
        EXPECT_EQ(out.result.instructions, out.cell.instructions);
        EXPECT_GT(out.result.predictions, 0u);
    }
}

TEST(Campaign, ResumeSkipsDoneCellsBitIdentically)
{
    ScratchDir dir("resume");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    const CampaignResult first = runCampaign(config);
    ASSERT_TRUE(first.status.ok());
    ASSERT_EQ(first.done, config.cells.size());

    config.resume = true;
    const CampaignResult second = runCampaign(config);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.done, 0u);
    EXPECT_EQ(second.skipped, config.cells.size());
    for (const CellOutcome &out : second.outcomes)
        EXPECT_TRUE(out.fromJournal);

    EXPECT_EQ(renderCampaignResults(config, first),
              renderCampaignResults(config, second));
}

TEST(Campaign, RetriesTransientFailureThenSucceeds)
{
    ScratchDir dir("retry");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    config.cells.resize(1);
    config.maxRetries = 2;

    ASSERT_TRUE(faultsim::configure("campaign.cell.fail*1").ok());
    const CampaignResult result = runCampaign(config);
    faultsim::reset();

    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.done, 1u);
    EXPECT_EQ(result.retried, 1u);
    EXPECT_EQ(result.outcomes[0].state, CellState::Done);
    EXPECT_EQ(result.outcomes[0].attempts, 2);
}

TEST(Campaign, ExhaustedRetriesPoisonAndResumeSkips)
{
    ScratchDir dir("poison");
    CampaignConfig config = smallConfig(dir, "camp.journal");
    config.cells.resize(1);
    config.maxRetries = 1;

    ASSERT_TRUE(faultsim::configure("campaign.cell.fail").ok());
    const CampaignResult broken = runCampaign(config);
    faultsim::reset();

    ASSERT_TRUE(broken.status.ok());
    EXPECT_EQ(broken.failed, 1u);
    EXPECT_EQ(broken.outcomes[0].state, CellState::Poisoned);

    // The poison is durable: a fault-free resume refuses the cell.
    config.resume = true;
    const CampaignResult resumed = runCampaign(config);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_EQ(resumed.done, 0u);
    EXPECT_EQ(resumed.skipped, 1u);
    EXPECT_EQ(resumed.outcomes[0].state, CellState::Poisoned);
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
}

TEST(Campaign, CellDeadlineFailsWithoutHanging)
{
    ScratchDir dir("deadline");
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare", 4000000000ull);
    config.journalPath = dir.file("camp.journal");
    config.cellDeadlineMs = 30;

    const CampaignResult result = runCampaign(config);
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.interrupted);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.outcomes[0].state, CellState::Failed);
    EXPECT_NE(result.outcomes[0].error.find("DeadlineExceeded"),
              std::string::npos)
        << result.outcomes[0].error;
    // Deadline failures are journaled F, not P: a resume with a
    // raised deadline gets to re-run the cell.
    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(config.journalPath,
                                      campaignSpecDigest(config), 1,
                                      &ledger)
                    .ok());
    EXPECT_EQ(ledger[0].state, CellLedger::State::Pending);
}

TEST(Campaign, WallBudgetInterruptsAndResumeCompletes)
{
    ScratchDir dir("wall");
    CampaignConfig config;
    config.cells = buildCells("mcf_like", 1, "gshare", 4000000000ull);
    config.journalPath = dir.file("camp.journal");
    config.wallBudgetMs = 30;

    const CampaignResult cut = runCampaign(config);
    ASSERT_TRUE(cut.status.ok());
    EXPECT_TRUE(cut.interrupted);
    EXPECT_EQ(cut.outcomes[0].state, CellState::Cancelled);

    // With a sane budget the resume re-runs the interrupted cell.
    config.resume = true;
    config.wallBudgetMs = 0;
    config.cells = buildCells("mcf_like", 1, "gshare", 30000);
    // Different spec (budget changed) — must be refused, not mixed.
    EXPECT_EQ(runCampaign(config).status.code(),
              StatusCode::InvalidArgument);
}

TEST(Campaign, KillBetweenAppendsThenResumeIsBitIdentical)
{
    ScratchDir dir("kill");
    CampaignConfig config = smallConfig(dir, "camp.journal");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: die SIGKILL-style right after the first cell's
        // terminal journal append — nothing else gets flushed.
        if (!faultsim::configure("campaign.cell.kill*1").ok())
            ::_exit(90);
        runCampaign(config);
        ::_exit(91);   // unreachable: the failpoint fires first
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 137);

    // Resume: the journaled cell is skipped, the in-flight one
    // re-runs, and the aggregate is bit-identical to an uninterrupted
    // campaign of the same spec.
    CampaignConfig resumeConfig = config;
    resumeConfig.resume = true;
    const CampaignResult resumed = runCampaign(resumeConfig);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.str();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.skipped, 1u);
    EXPECT_EQ(resumed.done, config.cells.size() - 1);

    CampaignConfig freshConfig = smallConfig(dir, "fresh.journal");
    const CampaignResult fresh = runCampaign(freshConfig);
    ASSERT_TRUE(fresh.status.ok());
    EXPECT_EQ(renderCampaignResults(resumeConfig, resumed),
              renderCampaignResults(freshConfig, fresh));
}

TEST(Campaign, CellCountsInvariantToExecutionKnobs)
{
    // A cell's counters are a function of its spec alone: trace cache
    // off, cold or warm, and a resume from a partial journal must all
    // reproduce a direct runTrace over the same predictor (and
    // frontend) exactly. gcc_like and mcf_like have no target
    // mispredicts, so vcall joins the frontend cells to give that
    // counter something to check.
    ScratchDir dir("knobs");
    CampaignConfig config;
    config.cells = buildCells("gcc_like,mcf_like", 1,
                              "gshare,tage-sc-l-8KB", 200000);
    const std::vector<CampaignCell> withFrontend = buildCells(
        "gcc_like,mcf_like,vcall", 1, "gshare,tage-sc-l-8KB", 200000,
        "default");
    config.cells.insert(config.cells.end(), withFrontend.begin(),
                        withFrontend.end());
    ASSERT_EQ(config.cells.size(), 10u);
    config.backoffMs = 1;

    std::vector<CellResult> direct;
    for (const CampaignCell &cell : config.cells) {
        const auto predictor = makePredictor(cell.predictor);
        PredictorSim sim(*predictor, false);
        FrontendConfig feCfg = FrontendConfig::off();
        if (!cell.frontend.empty()) {
            ASSERT_TRUE(parseFrontendSpec(cell.frontend, &feCfg).ok());
        }
        FrontendModel fe(feCfg);
        std::vector<TraceSink *> sinks{&sim};
        if (feCfg.enabled)
            sinks.push_back(&fe);
        runTrace(findWorkload(cell.workload).build(cell.inputIdx),
                 sinks, cell.instructions);
        CellResult r;
        r.instructions = sim.instructions();
        r.predictions = sim.condExecs();
        r.mispredicts = sim.condMispreds();
        r.targetMispredicts = fe.targetMispredicts();
        direct.push_back(r);
    }
    EXPECT_GT(direct.back().targetMispredicts, 0u);

    const auto expectMatchesDirect = [&](const CampaignResult &result,
                                         const char *knob) {
        SCOPED_TRACE(knob);
        ASSERT_TRUE(result.status.ok()) << result.status.str();
        ASSERT_EQ(result.outcomes.size(), direct.size());
        for (size_t i = 0; i < direct.size(); ++i) {
            const CellOutcome &out = result.outcomes[i];
            SCOPED_TRACE(out.cell.id());
            ASSERT_EQ(out.state, CellState::Done) << out.error;
            EXPECT_EQ(out.result.instructions, direct[i].instructions);
            EXPECT_EQ(out.result.predictions, direct[i].predictions);
            EXPECT_EQ(out.result.mispredicts, direct[i].mispredicts);
            EXPECT_EQ(out.result.targetMispredicts,
                      direct[i].targetMispredicts);
        }
    };

    config.journalPath = dir.file("uncached.journal");
    const CampaignResult uncached = runCampaign(config);
    expectMatchesDirect(uncached, "trace cache off");

    obs::Counter &hits = obs::counter("tracestore.cache.hits");
    obs::Counter &misses = obs::counter("tracestore.cache.misses");
    setTraceCacheDir(dir.file("cache"));
    config.journalPath = dir.file("cold.journal");
    const uint64_t hitsBefore = hits.value();
    const uint64_t missesBefore = misses.value();
    const CampaignResult cold = runCampaign(config);
    const uint64_t coldHits = hits.value() - hitsBefore;
    const uint64_t coldMisses = misses.value() - missesBefore;
    config.journalPath = dir.file("warm.journal");
    const CampaignResult warm = runCampaign(config);
    const uint64_t warmHits = hits.value() - hitsBefore - coldHits;
    const uint64_t warmMisses =
        misses.value() - missesBefore - coldMisses;
    setTraceCacheDir("");
    expectMatchesDirect(cold, "trace cache cold");
    expectMatchesDirect(warm, "trace cache warm");
    // Three traces: the cold run generates each once and replays it
    // for that trace's other cells; the warm run only replays.
    EXPECT_EQ(coldMisses, 3u);
    EXPECT_EQ(coldHits, config.cells.size() - 3);
    EXPECT_EQ(warmMisses, 0u);
    EXPECT_EQ(warmHits, config.cells.size());

    // Resume: keep the header and the first cell's start and done
    // lines of the uncached journal; cell 0 then comes from the
    // journal and the rest re-run.
    std::vector<std::string> lines;
    {
        std::ifstream in(dir.file("uncached.journal"));
        for (std::string line; lines.size() < 3 &&
                               std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);
    ASSERT_EQ(lines[2].rfind("D 0 ", 0), 0u) << lines[2];
    {
        std::ofstream out(dir.file("partial.journal"));
        for (const std::string &line : lines)
            out << line << '\n';
    }
    config.journalPath = dir.file("partial.journal");
    config.resume = true;
    const CampaignResult resumed = runCampaign(config);
    expectMatchesDirect(resumed, "resumed from a partial journal");
    EXPECT_EQ(resumed.skipped, 1u);
    EXPECT_TRUE(resumed.outcomes[0].fromJournal);
    EXPECT_EQ(resumed.done, config.cells.size() - 1);
}

TEST(Campaign, SpecDigestKeepsSerialJournalsResumable)
{
    // The digest still hashes the fixed "shards=0" prefix, so journals
    // written when campaigns had a shard-count knob keep resuming when
    // they ran serially, and are refused when they ran sharded (their
    // counts came from per-shard cold predictors). The two digests
    // are those of smallConfig()'s cells, as written by a serial and
    // by a --shards=2 campaign before the knob was removed.
    const std::string serialDigest = "7d18623b5b12bb28";
    const std::string shardedDigest = "c0a4b95c8a87151a";
    ScratchDir dir("digest");
    CampaignConfig config = smallConfig(dir, "serial.journal");
    EXPECT_EQ(campaignSpecDigest(config), serialDigest);

    CampaignJournal journal;
    ASSERT_TRUE(CampaignJournal::create(config.journalPath, serialDigest,
                                        config.cells.size(), &journal)
                    .ok());
    journal.close();
    config.resume = true;
    const CampaignResult serial = runCampaign(config);
    ASSERT_TRUE(serial.status.ok()) << serial.status.str();
    EXPECT_EQ(serial.done, config.cells.size());

    config.journalPath = dir.file("sharded.journal");
    ASSERT_TRUE(CampaignJournal::create(config.journalPath, shardedDigest,
                                        config.cells.size(), &journal)
                    .ok());
    journal.close();
    const CampaignResult sharded = runCampaign(config);
    EXPECT_EQ(sharded.status.code(), StatusCode::InvalidArgument)
        << sharded.status.str();
    EXPECT_EQ(sharded.done, 0u);
}

// ---------------------------------------------------------------------
// Frontend axis.

TEST(CampaignJournal, DoneLineCarriesAndDefaultsTargetMispredicts)
{
    ScratchDir dir("journal_fe");
    const std::string path = dir.file("camp.journal");
    const std::string spec = "0123456789abcdef";

    CampaignJournal journal;
    ASSERT_TRUE(CampaignJournal::create(path, spec, 2, &journal).ok());
    CellResult done;
    done.instructions = 1000;
    done.predictions = 150;
    done.mispredicts = 12;
    done.wallMs = 7;
    done.targetMispredicts = 5;
    ASSERT_TRUE(journal.appendDone(0, done).ok());
    journal.close();

    // A pre-frontend journal ends its D records at wall_ms; the
    // missing trailing field must default to zero, not drop the line.
    {
        std::ofstream old(path, std::ios::app);
        old << "D 1 2000 300 24 9\n";
    }

    std::vector<CellLedger> ledger;
    ASSERT_TRUE(CampaignJournal::load(path, spec, 2, &ledger).ok());
    ASSERT_EQ(ledger.size(), 2u);
    EXPECT_EQ(ledger[0].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[0].result.targetMispredicts, 5u);
    EXPECT_EQ(ledger[1].state, CellLedger::State::Done);
    EXPECT_EQ(ledger[1].result.instructions, 2000u);
    EXPECT_EQ(ledger[1].result.mispredicts, 24u);
    EXPECT_EQ(ledger[1].result.targetMispredicts, 0u);
}

TEST(Campaign, FrontendAxisIsOptInForIdsAndDigests)
{
    // Direction-only sweeps must keep their pre-frontend ids and spec
    // digest, or every existing journal stops resuming.
    CampaignConfig plain;
    plain.cells = buildCells("mcf_like", 1, "gshare", 30000);
    ASSERT_EQ(plain.cells.size(), 1u);
    EXPECT_TRUE(plain.cells[0].frontend.empty());
    EXPECT_EQ(plain.cells[0].id(), "mcf_like/" +
                                       plain.cells[0].input +
                                       "/gshare");

    CampaignConfig swept;
    swept.cells =
        buildCells("mcf_like", 1, "gshare", 30000, "off,default");
    ASSERT_EQ(swept.cells.size(), 2u);
    EXPECT_EQ(swept.cells[0].frontend, "off");
    EXPECT_EQ(swept.cells[1].frontend, "default");
    EXPECT_EQ(swept.cells[0].id(), plain.cells[0].id() + "/off");
    EXPECT_NE(campaignSpecDigest(plain), campaignSpecDigest(swept));
}

TEST(Campaign, FrontendCellsCountTargetsAndResumeBitIdentically)
{
    ScratchDir dir("frontend");
    CampaignConfig config;
    config.cells =
        buildCells("vcall", 1, "gshare", 30000, "off,default");
    config.journalPath = dir.file("camp.journal");
    config.backoffMs = 1;

    const CampaignResult first = runCampaign(config);
    ASSERT_TRUE(first.status.ok()) << first.status.str();
    ASSERT_EQ(first.done, 2u);
    // vcall's 896-way virtual dispatch plus its over-depth recursion
    // must produce target mispredicts under the default frontend; the
    // "off" cell runs no frontend model at all.
    EXPECT_EQ(first.outcomes[0].result.targetMispredicts, 0u);
    EXPECT_GT(first.outcomes[1].result.targetMispredicts, 0u);
    // Direction counters must not depend on the frontend axis.
    EXPECT_EQ(first.outcomes[0].result.mispredicts,
              first.outcomes[1].result.mispredicts);

    config.resume = true;
    const CampaignResult second = runCampaign(config);
    ASSERT_TRUE(second.status.ok());
    EXPECT_EQ(second.skipped, 2u);
    EXPECT_EQ(second.outcomes[1].result.targetMispredicts,
              first.outcomes[1].result.targetMispredicts);

    const std::string doc = renderCampaignResults(config, first);
    EXPECT_EQ(doc, renderCampaignResults(config, second));
    EXPECT_NE(doc.find("\"frontend\": \"default\""), std::string::npos);
    EXPECT_NE(doc.find("\"target_mispredicts\": "), std::string::npos);
}
