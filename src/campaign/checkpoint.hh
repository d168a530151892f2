/**
 * @file
 * Crash-safe campaign checkpointing (DESIGN.md §10).
 *
 * Layout of a checkpoint directory (AOS_CAMPAIGN_RESUME=<dir>):
 *
 *   manifest.bin   binds the checkpoint to one campaign: format
 *                  version, identity hash (over the job specs, the
 *                  result-affecting options and every seed), job
 *                  count, campaign name, CRC32. Written atomically
 *                  (write-to-temp + fsync + rename + dir fsync).
 *   manifest.txt   human-readable mirror, never parsed.
 *   shard-NNN.log  one append-only record log per worker. Each record
 *                  is [magic | payload length | payload CRC32 |
 *                  payload] and is appended with a single write(2)
 *                  followed by fsync(2) when its job completes.
 *
 * Crash-consistency argument: a kill can only (a) lose the manifest
 * rename — the old/absent manifest stays whole and the campaign
 * re-runs from scratch; or (b) leave a torn record at the tail of one
 * shard — the loader stops that shard at the first record whose magic,
 * length bound or CRC fails, discards everything after it, and the
 * affected jobs simply re-execute. A corrupt record is therefore never
 * trusted, and because jobs are deterministic, re-execution reproduces
 * byte-identical canonical output.
 *
 * The manifest identity hash deliberately covers CampaignOptions
 * fields that change results or their classification (name,
 * maxAttempts, timeoutSec) but not execution-only knobs (workers,
 * progress, the checkpoint dir itself): resuming with a different
 * worker count is the whole point, while resuming a *different
 * campaign* from the same directory must fall back to a full re-run —
 * never a silent mix of stale and fresh results.
 */

#ifndef AOS_CAMPAIGN_CHECKPOINT_HH
#define AOS_CAMPAIGN_CHECKPOINT_HH

#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/fsio.hh"

namespace aos::campaign {

/** Bump when the record or manifest encoding changes. */
constexpr u32 kCheckpointFormatVersion = 1;

/** What binds a checkpoint directory to one specific campaign. */
struct CheckpointManifest
{
    u64 identity = 0; //!< identityHash() of the campaign.
    u64 jobCount = 0;
    std::string name;
};

/**
 * Identity hash of a campaign: format version, campaign name,
 * maxAttempts/timeoutSec, and per job the name, profile shape,
 * mechanism, seeds, op budget and every result-affecting SystemOptions
 * field. Two campaigns with equal hashes produce interchangeable
 * JobResults; anything else must not resume.
 */
u64 identityHash(const CampaignOptions &options,
                 const std::vector<Job> &jobs);

/** Outcome of scanning a checkpoint directory. */
struct CheckpointLoad
{
    bool manifestFound = false;
    bool valid = false;  //!< Manifest parsed and matches this campaign.
    std::string reason;  //!< Why invalid (for the operator).

    std::vector<JobResult> restored; //!< Indexed by job id; see present.
    std::vector<bool> present;
    u64 recordsLoaded = 0;    //!< Valid records applied.
    u64 recordsDiscarded = 0; //!< Shard tails dropped (torn/corrupt).

    /** Every shard file found, with its validated prefix length. */
    std::vector<std::pair<std::string, u64>> shards;
};

/**
 * Validate @p dir against @p expect and restore every intact record.
 * Never trusts a record whose CRC (or framing, or decoded content)
 * fails: scanning of that shard stops at the last good byte and the
 * remainder is reported in recordsDiscarded for the writer to drop.
 */
CheckpointLoad loadCheckpoint(const std::string &dir,
                              const CheckpointManifest &expect);

/**
 * Appends completed JobResults to per-worker shard logs. start() makes
 * the directory consistent first: on a valid resume the corrupt shard
 * tails reported by loadCheckpoint() are truncated away; otherwise all
 * stale shards are deleted and a fresh manifest is committed
 * atomically before any record can be written.
 */
class CheckpointWriter
{
  public:
    bool start(const std::string &dir, const CheckpointManifest &manifest,
               unsigned shards, const CheckpointLoad &load);

    /** Durably append @p r to shard @p shard (record + fsync). */
    bool append(unsigned shard, const JobResult &r);

    void close();

    const std::string &error() const { return _error; }

  private:
    std::vector<fsio::AppendLog> _logs;
    std::string _error;
};

/** One framed shard record (header + CRC32 + payload); for tests. */
std::string encodeCheckpointRecord(const JobResult &r);

/**
 * Validate one framed record (magic, length bound, CRC32) and decode
 * its JobResult. When @p consumed is non-null it receives the record's
 * total size, letting callers scan a concatenated stream. Nothing is
 * trusted on failure.
 */
bool decodeCheckpointRecord(const void *data, size_t size, JobResult &out,
                            size_t *consumed = nullptr);

/**
 * Campaign-side checkpoint bring-up for Campaign::run(): compute the
 * manifest, validate @p dir, restore every intact record into
 * @p result (resumedJobs / discardedRecords updated), and start
 * @p writer with @p shards logs.
 * fatal()s when the directory cannot be made writable. No-op (false)
 * when options.checkpointDir is empty.
 */
bool setupCheckpoint(const CampaignOptions &options,
                     const std::vector<Job> &jobs, unsigned shards,
                     CampaignResult &result, CheckpointWriter &writer);

/** Serialized manifest bytes (magic, version, fields, CRC32). */
std::string encodeCheckpointManifest(const CheckpointManifest &m);

} // namespace aos::campaign

#endif // AOS_CAMPAIGN_CHECKPOINT_HH
