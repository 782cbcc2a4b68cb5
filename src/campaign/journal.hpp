/**
 * @file
 * Append-only campaign journal: the durable checkpoint log that makes
 * experiment campaigns resumable after a crash, SIGKILL, or budget
 * exhaustion.
 *
 * The journal is a line-oriented text file. Every state transition of
 * every cell is one appended line, fsync'd before the campaign acts on
 * it (write-ahead), so after any crash the journal tells exactly which
 * cells completed — with their result counters — and which were
 * mid-flight. A resume pass replays the journal instead of the cells:
 * completed cells contribute their journaled counters to the aggregate
 * bit-identically, without re-execution.
 *
 * Format (one record per line, space-separated):
 *
 *   bpnsp-campaign-journal-v1 spec=<16 hex> cells=<N>     header
 *   R <idx> <attempt> <cell-id>       attempt started
 *   D <idx> <instr> <preds> <misps> <wall_ms> [<tgt_misps>]
 *                                     cell done (terminal); the
 *                                     trailing target-mispredict count
 *                                     is absent in pre-frontend
 *                                     journals and defaults to 0 on
 *                                     load
 *   F <idx> <attempt> <code> <detail...>        attempt failed
 *   C <idx>                           attempt cancelled (not terminal)
 *   P <idx>                           poisoned: retries exhausted
 *                                     (terminal; resume skips it)
 *
 * The spec digest in the header covers everything that determines the
 * cells and their results (cell list, budgets) but NOT operational
 * knobs (deadlines, retry policy), so an operator can
 * raise a deadline and --resume the same journal. Opening a journal
 * whose digest does not match is refused — resuming someone else's
 * campaign would silently mix results.
 *
 * Torn tail: a crash can leave a final line without a newline (the
 * fsync covers the line only after the append returns). Loading
 * tolerates exactly that — an unterminated or malformed final line is
 * dropped with a warn(); the cell it described simply re-runs.
 */

#ifndef BPNSP_CAMPAIGN_JOURNAL_HPP
#define BPNSP_CAMPAIGN_JOURNAL_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace bpnsp {

/** Journaled result counters of one completed cell. */
struct CellResult
{
    uint64_t instructions = 0;  ///< instructions delivered
    uint64_t predictions = 0;   ///< conditional branches predicted
    uint64_t mispredicts = 0;   ///< mispredictions
    uint64_t wallMs = 0;        ///< execution wall time (not in spec)
    uint64_t targetMispredicts = 0; ///< frontend target mispredicts
                                    ///< (0 for direction-only cells)
};

/** What the journal knows about one cell after load(). */
struct CellLedger
{
    /** Terminal journal state of a cell. */
    enum class State { Pending, Done, Poisoned };

    State state = State::Pending;
    CellResult result;          ///< valid when state == Done
    int attempts = 0;           ///< R lines seen (resume restarts at 0)
};

/**
 * The append side of the journal. One instance per campaign run; all
 * appends go through appendLine(), which fsyncs before returning so a
 * record the campaign acts on can never be lost to a crash. Appends
 * honor the campaign.journal.fsync failpoint (an injected IoError).
 */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    ~CampaignJournal();

    CampaignJournal(CampaignJournal &&other) noexcept;
    CampaignJournal &operator=(CampaignJournal &&other) noexcept;
    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /**
     * Start a fresh journal at `path` (truncating any previous file)
     * with the given spec digest and cell count in the header.
     */
    static Status create(const std::string &path,
                         const std::string &specDigest, uint64_t cells,
                         CampaignJournal *out);

    /**
     * Open an existing journal for appending, first loading the
     * per-cell ledger from it. Refuses (InvalidArgument) a journal
     * whose header digest or cell count disagrees with this campaign's
     * spec. `ledger` is resized to `cells`.
     */
    static Status openResume(const std::string &path,
                             const std::string &specDigest,
                             uint64_t cells, CampaignJournal *out,
                             std::vector<CellLedger> *ledger);

    /**
     * Parse a journal file into a per-cell ledger without opening it
     * for append (tests, tooling). Tolerates a torn final line.
     */
    static Status load(const std::string &path,
                       const std::string &specDigest, uint64_t cells,
                       std::vector<CellLedger> *ledger);

    bool open() const { return file != nullptr; }

    Status appendStart(uint64_t idx, int attempt,
                       const std::string &cellId);
    Status appendDone(uint64_t idx, const CellResult &result);
    Status appendFailure(uint64_t idx, int attempt,
                         const Status &why);
    Status appendCancelled(uint64_t idx);
    Status appendPoisoned(uint64_t idx);

    /** Close the stream early (idempotent; destructor closes too). */
    void close();

  private:
    Status appendLine(const std::string &line);

    std::FILE *file = nullptr;
    std::string path;
};

} // namespace bpnsp

#endif // BPNSP_CAMPAIGN_JOURNAL_HPP
