#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include <unistd.h>

#include "bp/factory.hpp"
#include "bp/sim.hpp"
#include "core/runner.hpp"
#include "faultsim/faultsim.hpp"
#include "frontend/frontend.hpp"
#include "obs/metrics.hpp"
#include "util/cancel.hpp"
#include "util/fsutil.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "workloads/suite.hpp"

namespace bpnsp {

namespace {

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream iss(csv);
    while (std::getline(iss, item, ',')) {
        const size_t b = item.find_first_not_of(" \t");
        const size_t e = item.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.push_back(item.substr(b, e - b + 1));
    }
    return out;
}

uint64_t
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/**
 * Execute one cell under the caller's (cell-scoped) cancel token: one
 * PredictorSim (plus a FrontendModel on frontend-axis cells) over the
 * whole trace in program order, through runWorkloadTrace (which
 * routes through the trace cache when one is configured).
 */
Status
executeCell(const CampaignCell &cell, CellResult *out)
{
    if (faultsim::evaluate("campaign.cell.fail"))
        return Status::ioError(
            "injected cell failure (campaign.cell.fail)");

    const Workload workload = findWorkload(cell.workload);
    if (cell.inputIdx >= workload.inputs.size())
        return Status::invalidArgument(
            "input index out of range for " + cell.workload);

    // Frontend axis: a non-empty spec adds a FrontendModel beside the
    // PredictorSim (InvalidArgument is not retryable, so a malformed
    // spec poisons the cell instead of burning retries). "off" parses
    // to a disabled config and runs exactly like a direction-only cell.
    FrontendConfig feCfg = FrontendConfig::off();
    if (!cell.frontend.empty())
        if (Status st = parseFrontendSpec(cell.frontend, &feCfg);
            !st.ok())
            return st;

    const std::unique_ptr<BranchPredictor> predictor =
        makePredictor(cell.predictor);
    PredictorSim sim(*predictor, false);
    FrontendModel fe(feCfg);
    std::vector<TraceSink *> sinks{&sim};
    if (feCfg.enabled)
        sinks.push_back(&fe);
    const uint64_t delivered = runWorkloadTrace(
        workload, cell.inputIdx, sinks, cell.instructions);
    if (Status st = currentCancelToken()->check(); !st.ok())
        return st;
    if (delivered < cell.instructions)
        return Status::ioError("short delivery: " +
                               std::to_string(delivered) + " of " +
                               std::to_string(cell.instructions) +
                               " instructions");
    out->instructions = delivered;
    out->predictions = sim.condExecs();
    out->mispredicts = sim.condMispreds();
    out->targetMispredicts = fe.targetMispredicts();
    return Status();
}

bool
retryableCode(StatusCode code)
{
    return code == StatusCode::IoError ||
           code == StatusCode::CorruptData || code == StatusCode::Busy;
}

} // namespace

std::string
CampaignCell::id() const
{
    std::string out = workload + "/" + input + "/" + predictor;
    if (!frontend.empty())
        out += "/" + frontend;
    return out;
}

const char *
cellStateName(CellState state)
{
    switch (state) {
      case CellState::Done:
        return "done";
      case CellState::Failed:
        return "failed";
      case CellState::Poisoned:
        return "poisoned";
      case CellState::Cancelled:
        return "cancelled";
      case CellState::Pending:
        return "pending";
    }
    return "unknown";
}

std::string
campaignSpecDigest(const CampaignConfig &config)
{
    std::ostringstream oss;
    // The fixed "shards=0" keeps the digest, and so the resumability,
    // of journals written while cells still had a shard-count knob.
    oss << "bpnsp-campaign-spec-v1|shards=0;";
    for (const CampaignCell &cell : config.cells) {
        oss << cell.workload << '|' << cell.input << '|'
            << cell.predictor << '|' << cell.instructions;
        // Appended only when set, so every pre-frontend journal's
        // digest — and therefore its resumability — is preserved.
        if (!cell.frontend.empty())
            oss << '|' << cell.frontend;
        oss << ';';
    }
    const std::string canonical = oss.str();
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(canonical)));
    return buf;
}

CampaignResult
runCampaign(const CampaignConfig &config)
{
    static obs::Counter &cellsTotal =
        obs::counter("campaign.cells_total");
    static obs::Counter &cellsDone = obs::counter("campaign.cells_done");
    static obs::Counter &cellsFailed =
        obs::counter("campaign.cells_failed");
    static obs::Counter &cellsRetried =
        obs::counter("campaign.cells_retried");
    static obs::Counter &cellsSkipped =
        obs::counter("campaign.cells_skipped");
    static obs::Counter &resumed = obs::counter("campaign.resumed");
    static obs::Counter &interrupted =
        obs::counter("campaign.interrupted");
    static obs::Histogram &cellWall =
        obs::histogram("campaign.cell_wall_ns");

    CampaignResult result;
    result.outcomes.resize(config.cells.size());
    for (size_t i = 0; i < config.cells.size(); ++i)
        result.outcomes[i].cell = config.cells[i];
    cellsTotal.add(config.cells.size());

    const std::string digest = campaignSpecDigest(config);
    CampaignJournal journal;
    std::vector<CellLedger> ledger(config.cells.size());
    const bool journalExists =
        ::access(config.journalPath.c_str(), F_OK) == 0;
    if (config.resume && journalExists) {
        result.status = CampaignJournal::openResume(
            config.journalPath, digest, config.cells.size(), &journal,
            &ledger);
        if (!result.status.ok())
            return result;
        resumed.inc();
        inform("campaign: resuming from journal ", config.journalPath);
    } else {
        result.status =
            CampaignJournal::create(config.journalPath, digest,
                                    config.cells.size(), &journal);
        if (!result.status.ok())
            return result;
    }

    // Token tree: cell -> campaign -> whatever the caller installed
    // (the process-global signal token by default). The wall budget
    // rides on the campaign token so it cuts every future cell at
    // once.
    CancelToken campaignToken(currentCancelToken());
    if (config.wallBudgetMs > 0)
        campaignToken.setDeadlineAfterMs(config.wallBudgetMs);
    CancelScope campaignScope(campaignToken);

    for (size_t i = 0; i < config.cells.size(); ++i) {
        CellOutcome &out = result.outcomes[i];

        if (ledger[i].state == CellLedger::State::Done) {
            out.state = CellState::Done;
            out.result = ledger[i].result;
            out.fromJournal = true;
            ++result.skipped;
            cellsSkipped.inc();
            continue;
        }
        if (ledger[i].state == CellLedger::State::Poisoned) {
            out.state = CellState::Poisoned;
            out.fromJournal = true;
            out.error = "poisoned in a previous run";
            ++result.skipped;
            cellsSkipped.inc();
            continue;
        }
        if (campaignToken.cancelled()) {
            result.interrupted = true;
            continue;   // stays Pending; keep filling outcomes
        }

        int attempt = 0;
        while (true) {
            out.attempts = attempt + 1;
            Status st =
                journal.appendStart(i, attempt, config.cells[i].id());
            CellResult cellResult;
            const auto start = std::chrono::steady_clock::now();
            if (st.ok()) {
                CancelToken cellToken(&campaignToken);
                if (config.cellDeadlineMs > 0)
                    cellToken.setDeadlineAfterMs(config.cellDeadlineMs);
                CancelScope cellScope(cellToken);
                st = executeCell(config.cells[i], &cellResult);
            }
            cellResult.wallMs = elapsedMs(start);

            if (st.ok()) {
                if (Status jst = journal.appendDone(i, cellResult);
                    !jst.ok()) {
                    st = jst;   // done but not durably recorded:
                                // fall through to failure handling
                } else {
                    if (faultsim::evaluate("campaign.cell.kill"))
                        std::_Exit(137);
                    cellWall.observe(cellResult.wallMs * 1000000ull);
                    out.state = CellState::Done;
                    out.result = cellResult;
                    ++result.done;
                    cellsDone.inc();
                    break;
                }
            }

            const StatusCode code = st.code();
            if (code == StatusCode::Cancelled ||
                (code == StatusCode::DeadlineExceeded &&
                 campaignToken.cancelled())) {
                // Campaign-level interruption (signal or wall budget):
                // the attempt is void, the cell re-runs on resume.
                if (Status jst = journal.appendCancelled(i); !jst.ok())
                    warn("campaign journal: ", jst.str());
                out.state = CellState::Cancelled;
                out.error = st.str();
                result.interrupted = true;
                break;
            }
            if (code == StatusCode::DeadlineExceeded) {
                // Per-cell deadline. Never retried (it would just
                // expire again), but journaled as a plain failure, not
                // poison: a resume under a raised --deadline-ms gets
                // to try again.
                if (Status jst = journal.appendFailure(i, attempt, st);
                    !jst.ok())
                    warn("campaign journal: ", jst.str());
                out.state = CellState::Failed;
                out.error = st.str();
                ++result.failed;
                cellsFailed.inc();
                warn("campaign cell ", config.cells[i].id(), ": ",
                     st.str());
                break;
            }

            if (Status jst = journal.appendFailure(i, attempt, st);
                !jst.ok())
                warn("campaign journal: ", jst.str());
            if (retryableCode(code) && attempt < config.maxRetries) {
                ++result.retried;
                cellsRetried.inc();
                const int shift = std::min(attempt, 16);
                const uint64_t delay = config.backoffMs << shift;
                warn("campaign cell ", config.cells[i].id(),
                     " attempt ", attempt, " failed (", st.str(),
                     "); retrying in ", delay, " ms");
                if (Status sleepStatus = cancellableSleepMs(delay);
                    !sleepStatus.ok()) {
                    if (Status jst = journal.appendCancelled(i);
                        !jst.ok())
                        warn("campaign journal: ", jst.str());
                    out.state = CellState::Cancelled;
                    out.error = sleepStatus.str();
                    result.interrupted = true;
                    break;
                }
                ++attempt;
                continue;
            }

            // Retries exhausted or the failure is not retryable:
            // poison the cell so no future resume wastes time on it.
            if (Status jst = journal.appendPoisoned(i); !jst.ok())
                warn("campaign journal: ", jst.str());
            if (faultsim::evaluate("campaign.cell.kill"))
                std::_Exit(137);
            out.state = CellState::Poisoned;
            out.error = st.str();
            ++result.failed;
            cellsFailed.inc();
            warn("campaign cell ", config.cells[i].id(),
                 " poisoned after ", attempt + 1, " attempt(s): ",
                 st.str());
            break;
        }
    }

    if (campaignToken.cancelled())
        result.interrupted = true;
    if (result.interrupted)
        interrupted.inc();
    return result;
}

std::string
renderCampaignResults(const CampaignConfig &config,
                      const CampaignResult &result)
{
    // Deterministic by construction: declaration order, journaled
    // integer counters, no wall-clock or per-run provenance fields —
    // an interrupted+resumed campaign must render byte-identically to
    // an uninterrupted one.
    uint64_t completed = 0;
    for (const CellOutcome &out : result.outcomes)
        if (out.state == CellState::Done)
            ++completed;

    std::ostringstream oss;
    oss << "{\n  \"schema\": \"bpnsp-campaign-results-v1\",\n"
        << "  \"spec\": \"" << campaignSpecDigest(config) << "\",\n"
        << "  \"cells_total\": " << result.outcomes.size() << ",\n"
        << "  \"cells_completed\": " << completed << ",\n"
        << "  \"cells\": [";
    bool first = true;
    for (const CellOutcome &out : result.outcomes) {
        oss << (first ? "\n" : ",\n") << "    {\"id\": \""
            << jsonEscape(out.cell.id()) << "\", \"workload\": \""
            << jsonEscape(out.cell.workload) << "\", \"input\": \""
            << jsonEscape(out.cell.input) << "\", \"predictor\": \""
            << jsonEscape(out.cell.predictor) << "\"";
        // Frontend fields appear only on frontend-axis cells so that
        // pre-frontend campaigns keep rendering byte-identically.
        if (!out.cell.frontend.empty())
            oss << ", \"frontend\": \""
                << jsonEscape(out.cell.frontend) << "\"";
        oss << ", \"budget\": " << out.cell.instructions
            << ", \"state\": \"" << cellStateName(out.state) << "\"";
        if (out.state == CellState::Done) {
            const double accuracy =
                out.result.predictions == 0
                    ? 1.0
                    : 1.0 - static_cast<double>(out.result.mispredicts) /
                                static_cast<double>(
                                    out.result.predictions);
            oss << ", \"instructions\": " << out.result.instructions
                << ", \"predictions\": " << out.result.predictions
                << ", \"mispredicts\": " << out.result.mispredicts
                << ", \"accuracy\": " << jsonNumber(accuracy);
            if (!out.cell.frontend.empty()) {
                const double tgtMpki =
                    out.result.instructions == 0
                        ? 0.0
                        : 1000.0 *
                              static_cast<double>(
                                  out.result.targetMispredicts) /
                              static_cast<double>(
                                  out.result.instructions);
                oss << ", \"target_mispredicts\": "
                    << out.result.targetMispredicts
                    << ", \"target_mpki\": " << jsonNumber(tgtMpki);
            }
        }
        oss << "}";
        first = false;
    }
    oss << (first ? "" : "\n  ") << "]\n}\n";
    return oss.str();
}

Status
writeCampaignResults(const CampaignConfig &config,
                     const CampaignResult &result,
                     const std::string &path)
{
    const std::string doc = renderCampaignResults(config, result);
    const std::string staging =
        path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(staging.c_str(), "w");
    if (f == nullptr)
        return Status::ioError("cannot stage campaign results: " +
                               staging);
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    Status st = wrote ? syncStream(f, staging)
                      : Status::ioError("short write: " + staging);
    if (std::fclose(f) != 0)
        st.update(Status::ioError("close failed: " + staging));
    if (!st.ok()) {
        std::remove(staging.c_str());
        return st;
    }
    st = atomicPublishFile(staging, path);
    if (!st.ok())
        std::remove(staging.c_str());
    return st;
}

std::vector<CampaignCell>
buildCells(const std::string &workloads, unsigned inputs,
           const std::string &predictors, uint64_t instructions,
           const std::string &frontends)
{
    std::vector<Workload> selected;
    if (workloads == "all") {
        selected = allWorkloads();
    } else {
        for (const std::string &name : splitList(workloads))
            selected.push_back(findWorkload(name));  // fatal() if bad
    }

    const std::vector<std::string> predictorNames =
        splitList(predictors);
    const std::vector<std::string> known = knownPredictorNames();
    for (const std::string &name : predictorNames)
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal("unknown predictor in campaign spec: ", name);
    if (predictorNames.empty())
        fatal("campaign needs at least one predictor");
    if (inputs == 0)
        fatal("campaign needs at least one input per workload");

    // "" keeps the frontend axis out of the sweep entirely (cells get
    // an empty spec and their ids/digests stay pre-frontend); any
    // non-empty list is validated up front so a typo dies here instead
    // of poisoning cells mid-campaign.
    std::vector<std::string> frontendSpecs;
    if (frontends.empty()) {
        frontendSpecs.push_back("");
    } else {
        frontendSpecs = splitList(frontends);
        if (frontendSpecs.empty())
            fatal("campaign frontend list is empty: ", frontends);
        for (const std::string &spec : frontendSpecs) {
            FrontendConfig cfg;
            if (Status st = parseFrontendSpec(spec, &cfg); !st.ok())
                fatal("bad frontend spec in campaign: ", st.str());
        }
    }

    std::vector<CampaignCell> cells;
    for (const Workload &workload : selected) {
        const size_t count =
            std::min<size_t>(inputs, workload.inputs.size());
        for (size_t idx = 0; idx < count; ++idx)
            for (const std::string &predictor : predictorNames)
                for (const std::string &frontend : frontendSpecs) {
                    CampaignCell cell;
                    cell.workload = workload.name;
                    cell.input = workload.inputs[idx].label;
                    cell.inputIdx = idx;
                    cell.predictor = predictor;
                    cell.instructions = instructions;
                    cell.frontend = frontend;
                    cells.push_back(std::move(cell));
                }
    }
    if (cells.empty())
        fatal("campaign spec produced no cells");
    return cells;
}

} // namespace bpnsp
