// Real-dataset ingestion: loaders that turn the published rating-dump
// formats into dense, trainer-ready triplets.
//
// Supported formats (--format names in parentheses):
//
//   movielens  MovieLens dumps — "::"-delimited .dat lines
//              (user::item::rating[::timestamp]) or comma/tab CSV with an
//              optional header line.
//   netflix    Netflix Prize — per-movie "mv_*.txt" files in a directory,
//              or the combined single-file variant; both are sequences of
//              "movie_id:" section headers followed by
//              "user,rating[,date]" lines.
//   csv        Generic delimited triplets (comma, tab or semicolon),
//              optional header, no rating-range restriction.
//
// Loading is production-shaped: the file is split at line boundaries into
// chunks parsed in parallel on a util::ThreadPool (per-shard accumulation,
// deterministic in-order merge — the result is byte-identical to a serial
// parse regardless of thread count), raw ids are remapped to contiguous
// dense indices with both directions of the mapping retained (so TopK
// results can be translated back to external ids), and every
// malformed line fails the load with a Status naming "<path>:<line>" —
// unless LoadOptions::max_bad_lines grants an error budget, in which case
// up to that many bad lines are quarantined into a counted report
// instead.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/types.h"
#include "util/status.h"

namespace hsgd::obs {
class MetricsRegistry;  // obs/metrics.h
}  // namespace hsgd::obs

namespace hsgd::io {

enum class DataFormat {
  kMovieLens = 0,
  kNetflix = 1,
  kCsv = 2,
};

const char* FormatName(DataFormat format);
StatusOr<DataFormat> FormatByName(const std::string& name);

/// Raw-id -> contiguous dense index mapping, built in first-appearance
/// (file) order so it is deterministic and independent of parse
/// parallelism. Retained by LoadedData so serving-side callers can
/// translate TopK output back to the dump's external ids.
class IdMap {
 public:
  /// Dense index for `raw`, assigning the next free index when new.
  int32_t Assign(int64_t raw);
  /// Dense index for `raw`, or -1 when never seen.
  int32_t Lookup(int64_t raw) const;
  /// The raw id a dense index was assigned from.
  int64_t Raw(int32_t dense) const { return to_raw_[static_cast<size_t>(dense)]; }
  int32_t size() const { return static_cast<int32_t>(to_raw_.size()); }

 private:
  std::unordered_map<int64_t, int32_t> to_dense_;
  std::vector<int64_t> to_raw_;
};

struct LoadOptions {
  /// Worker threads for chunked parsing (1 = serial; results are
  /// identical either way).
  int threads = 4;
  /// Error budget: up to this many malformed lines (parse failures,
  /// out-of-range ratings, duplicates, netflix ratings before any
  /// section header) are quarantined into LoadedData::bad_lines instead
  /// of failing the load. The default 0 keeps the historical strict
  /// behavior: the first bad line fails with its "<path>:<line>"
  /// Status. When the budget is exceeded, the load fails naming the
  /// first line past it. Counting is deterministic (file order) for any
  /// thread count.
  int64_t max_bad_lines = 0;

  /// Optional borrowed metrics sink: a successful load adds its totals
  /// to the io.* counters (files_parsed, ratings_loaded, bad_lines).
  /// Null — the default — records nothing; the parse itself is
  /// unaffected either way.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One quarantined input line.
struct BadLineRecord {
  std::string file;
  int64_t line = 0;
  std::string detail;
};

/// Where the error budget went: exact total plus the first few offending
/// lines (enough to debug a dirty dump without hauling megabytes of
/// error text around).
struct BadLineReport {
  static constexpr int kMaxSample = 20;
  int64_t total = 0;
  std::vector<BadLineRecord> sample;  // first kMaxSample, file order
};

/// A parsed dump: triplets with dense contiguous ids in file order, plus
/// the id mappings that produced them and the quarantined-line report
/// (empty under the default strict options — any bad line fails the
/// load instead).
struct LoadedData {
  Ratings ratings;
  IdMap users;
  IdMap items;
  BadLineReport bad_lines;
};

/// Parse `path` (a file; for netflix, a file or a directory of per-movie
/// files) as `format`. Fails with NotFound for a missing path and
/// InvalidArgument naming "<path>:<line>" for malformed content:
/// non-numeric or negative ids, ratings outside the format's range
/// (movielens [0, 5], netflix [1, 5], csv unbounded), wrong field counts
/// (including a truncated last line), duplicate (user, item) entries, and
/// rating lines before any section header (netflix). An empty file (or
/// one holding only a header) is an error. CRLF endings and blank lines
/// are tolerated.
StatusOr<LoadedData> LoadRatings(const std::string& path, DataFormat format,
                                 const LoadOptions& options = {});

struct DatasetOptions {
  /// Deterministic held-out split: every round(1/fraction)-th rating (in
  /// file order) becomes a test entry. 0 disables the split (all train);
  /// at most 0.5 (the modulo stride cannot hold out more than half).
  double test_fraction = 0.1;
  /// Hyper-parameters for the assembled Dataset. Zero/default k means
  /// "use the format's Table I preset parameters".
  SgdParams params{/*k=*/0};
  /// Early-stop RMSE target; 0 = no target (benches print "never").
  double target_rmse = 0.0;
};

/// LoadRatings + split + core::MakeDataset: the one-call path the benches
/// use. The returned Dataset carries per-format Table I hyper-parameters
/// unless `options.params` overrides them.
StatusOr<Dataset> LoadDataset(const std::string& path, DataFormat format,
                              const LoadOptions& load_options = {},
                              const DatasetOptions& options = {});

/// One rating still in the external (raw-id) vocabulary, as a stream
/// emits it before any IdMap remapping.
struct RawRating {
  int64_t user = 0;
  int64_t item = 0;
  float rating = 0.0f;
};

/// Incremental line-oriented parser for rating streams: the same grammar,
/// rating-range validation and `max_bad_lines` error budget as
/// LoadRatings, fed chunk by chunk instead of from one file. Chunks may
/// split lines (and netflix section headers) at any byte boundary — the
/// parser carries the partial tail — so for a fixed input the records,
/// bad-line tally, and the exact first-over-budget failure are identical
/// for ANY chunking, down to pushing one byte at a time.
///
/// Differences from the batch loader, both inherent to streaming: ids
/// stay raw (callers own the IdMap so its growth can be observed), and
/// duplicates are NOT rejected — a stream legitimately re-rates pairs,
/// and the appenders treat later entries as fresher signal.
///
/// Not thread-safe; one parser per stream. After a Status failure (budget
/// exceeded) the parser is poisoned and every later call returns the same
/// error.
class StreamParser {
 public:
  /// `options` supplies the error budget; threads/metrics are ignored.
  /// The rating range is the format's, as in LoadRatings.
  /// `source` names the stream in error messages and the bad-line report.
  explicit StreamParser(DataFormat format, const LoadOptions& options = {},
                        std::string source = "<stream>");

  /// Feed the next chunk; complete lines are parsed and appended to
  /// `out`, a trailing partial line is carried until more bytes arrive.
  Status Push(const std::string& chunk, std::vector<RawRating>* out);

  /// Flush the carried partial line (an unterminated final line parses
  /// like LoadRatings' last line). The parser is then closed: further
  /// Push/Finish calls fail.
  Status Finish(std::vector<RawRating>* out);

  /// Quarantined lines so far (same counting as LoadedData::bad_lines).
  const BadLineReport& bad_lines() const { return report_; }
  /// Complete lines consumed so far (headers and blanks included).
  int64_t lines_consumed() const { return line_ - 1; }
  bool failed() const { return !failed_.ok(); }

 private:
  Status ConsumeLine(const char* begin, const char* end,
                     std::vector<RawRating>* out);
  Status ChargeBadLine(int64_t line, std::string detail);

  DataFormat format_;
  std::string source_;
  double min_rating_ = 0.0;
  double max_rating_ = 0.0;
  int64_t max_bad_ = 0;
  std::string buffer_;      // carried partial line
  int64_t line_ = 1;        // next line number (1-based, file convention)
  int64_t carry_item_ = -1; // netflix section header in effect
  bool header_pending_ = true;
  bool finished_ = false;
  BadLineReport report_;
  Status failed_ = Status::Ok();
};

}  // namespace hsgd::io
