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
// Each file is read whole and then in one serial pass on the caller's
// thread: every line is parsed, its raw ids are remapped to contiguous
// dense indices (both directions of the mapping are retained, so TopK
// results can be translated back to external ids), and it is checked for
// duplicates as it is read. The loader starts no thread. Every malformed
// line fails the load with a Status naming "<path>:<line>" — unless
// LoadOptions::max_bad_lines grants an error budget, in which case up to
// that many bad lines are quarantined into a counted report instead.

#pragma once

#include <cstdint>
#include <string>
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
/// (file) order so it is deterministic. Retained by LoadedData so
/// serving-side callers can translate TopK output back to the dump's
/// external ids.
///
/// The raw -> dense side is a flat open-addressing table (linear
/// probing, at most half full), so the whole map is two arrays: a copy
/// is two array copies and a destruction two frees, which is what a
/// snapshot publish pays for its copy of the trainer's maps. Every int64
/// is a legal raw id.
class IdMap {
 public:
  /// Dense index for `raw`, assigning the next free index when new.
  int32_t Assign(int64_t raw);
  /// Dense index for `raw`, or -1 when never seen.
  int32_t Lookup(int64_t raw) const {
    return slots_.empty() ? -1 : slots_[Probe(raw)].dense_plus_one - 1;
  }
  /// The raw id a dense index was assigned from.
  int64_t Raw(int32_t dense) const { return to_raw_[static_cast<size_t>(dense)]; }
  int32_t size() const { return static_cast<int32_t>(to_raw_.size()); }

 private:
  /// One table entry; dense_plus_one == 0 marks it empty, so no raw id
  /// value has to be reserved as a sentinel.
  struct Slot {
    int64_t raw = 0;
    int32_t dense_plus_one = 0;
  };

  /// The slot holding `raw`, or the empty slot where it would go. The
  /// table is never more than half full, so the probe always ends.
  size_t Probe(int64_t raw) const;
  /// Rebuild the table with `capacity` slots (a power of two), inserting
  /// every id in dense order.
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  /// 64 - log2(slots_.size()): the hash's top bits pick the home slot.
  int shift_ = 64;
  std::vector<int64_t> to_raw_;
};

struct LoadOptions {
  /// Error budget: up to this many malformed lines (parse failures,
  /// out-of-range ratings, duplicates, netflix ratings before any
  /// section header) are quarantined into LoadedData::bad_lines instead
  /// of failing the load. The default 0 is strict: the first bad line
  /// fails with its "<path>:<line>" Status. Each bad line is charged as
  /// it is read, in file order (a directory's files in sorted name
  /// order), so when the budget is exceeded the load fails naming the
  /// first line past it.
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

/// LoadRatings + split + core::MakeDataset: the one-call path the benches
/// use. The deterministic held-out split puts every
/// round(1/test_fraction)-th rating (in file order) in the test split; 0
/// disables it (all train), and at most 0.5 is accepted (the modulo
/// stride cannot hold out more than half). The returned Dataset carries
/// the format's Table I hyper-parameters and no early-stop target.
StatusOr<Dataset> LoadDataset(const std::string& path, DataFormat format,
                              const LoadOptions& load_options = {},
                              double test_fraction = 0.1);

/// One rating still in the external (raw-id) vocabulary, as a stream
/// emits it before any IdMap remapping.
struct RawRating {
  int64_t user = 0;
  int64_t item = 0;
  float rating = 0.0f;
};

}  // namespace hsgd::io
