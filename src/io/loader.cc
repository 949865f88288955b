#include "io/loader.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "util/chunking.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace hsgd::io {

namespace fs = std::filesystem;

const char* FormatName(DataFormat format) {
  switch (format) {
    case DataFormat::kMovieLens: return "movielens";
    case DataFormat::kNetflix: return "netflix";
    case DataFormat::kCsv: return "csv";
  }
  return "unknown";
}

StatusOr<DataFormat> FormatByName(const std::string& name) {
  const std::string lower = AsciiLower(name);
  for (DataFormat format :
       {DataFormat::kMovieLens, DataFormat::kNetflix, DataFormat::kCsv}) {
    if (lower == FormatName(format)) return format;
  }
  if (lower == "ml" || lower == "dat") return DataFormat::kMovieLens;
  if (lower == "nf") return DataFormat::kNetflix;
  return Status::InvalidArgument(
      "unknown data format '" + name +
      "' (expected movielens, netflix or csv)");
}

int32_t IdMap::Assign(int64_t raw) {
  auto [it, inserted] =
      to_dense_.emplace(raw, static_cast<int32_t>(to_raw_.size()));
  if (inserted) to_raw_.push_back(raw);
  return it->second;
}

int32_t IdMap::Lookup(int64_t raw) const {
  auto it = to_dense_.find(raw);
  return it == to_dense_.end() ? -1 : it->second;
}

namespace {

/// One parsed record with its source line for error reporting. Netflix
/// shards mark records seen before the shard's first section header with
/// item = kPendingItem; the merge fills them from the previous shard's
/// carry-over header.
constexpr int64_t kPendingItem = -1;

struct ParsedRec {
  int64_t user = 0;
  int64_t item = 0;
  float rating = 0.0f;
  int64_t line = 0;
};

/// A malformed line found during the shard scan, before it is known
/// whether the error budget absorbs it.
struct BadLine {
  int64_t line = 0;
  std::string detail;
};

struct ShardResult {
  std::vector<ParsedRec> recs;
  /// Netflix: the last "id:" header in the shard, or kPendingItem when
  /// the shard contains none (its records all inherit the carry-over).
  int64_t last_item = kPendingItem;
  /// Malformed lines in shard (= file) order. Capped at max_bad_lines + 1
  /// entries: keeping each shard's earliest budget+1 bad lines is enough
  /// to reconstruct both the exact global tally when the load survives
  /// (no shard can truncate without busting the budget) and the exact
  /// first-over-budget line when it does not.
  std::vector<BadLine> bad;
};

Status LineError(const std::string& path, int64_t line,
                 const std::string& detail) {
  return Status::InvalidArgument(
      StrFormat("%s:%lld: %s", path.c_str(),
                static_cast<long long>(line), detail.c_str()));
}

bool ParseI64(const char* begin, const char* end, int64_t* out) {
  if (begin == end) return false;
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseF32(const char* begin, const char* end, float* out) {
  char buf[64];
  const size_t len = static_cast<size_t>(end - begin);
  if (len == 0 || len >= sizeof(buf)) return false;
  std::memcpy(buf, begin, len);
  buf[len] = '\0';
  char* parse_end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &parse_end);
  // Check against the float's range, not the double's: 1e39 is a
  // finite double that narrows to an infinite float.
  if (parse_end != buf + len || errno == ERANGE ||
      !(std::fabs(v) <= std::numeric_limits<float>::max())) {
    return false;
  }
  *out = static_cast<float>(v);
  return true;
}

struct Field {
  const char* begin;
  const char* end;
  std::string str() const { return std::string(begin, end); }
};

/// Split `[begin, end)` on `delim` (two-byte delimiter when `wide`) into
/// at most `max_fields` + 1 fields; returns the count, or -1 on overflow.
int SplitFields(const char* begin, const char* end, const char* delim,
                bool wide, Field* fields, int max_fields) {
  int count = 0;
  const char* cursor = begin;
  while (true) {
    if (count == max_fields) return -1;
    const char* hit = nullptr;
    for (const char* p = cursor; p + (wide ? 1 : 0) < end; ++p) {
      if (*p == delim[0] && (!wide || p[1] == delim[1])) {
        hit = p;
        break;
      }
    }
    if (hit == nullptr) {
      fields[count++] = {cursor, end};
      return count;
    }
    fields[count++] = {cursor, hit};
    cursor = hit + (wide ? 2 : 1);
  }
}

/// The delimiter for a movielens/csv line: "::" for classic .dat lines,
/// otherwise comma, tab or semicolon — detected per line so a reader
/// never needs to be told which spelling a dump uses.
const char* DetectDelim(const char* begin, const char* end, bool* wide) {
  for (const char* p = begin; p + 1 < end; ++p) {
    if (p[0] == ':' && p[1] == ':') {
      *wide = true;
      return "::";
    }
  }
  *wide = false;
  for (const char* p = begin; p < end; ++p) {
    if (*p == ',') return ",";
    if (*p == '\t') return "\t";
    if (*p == ';') return ";";
  }
  return ",";  // single-field line; the field-count check reports it
}

struct ParseContext {
  const std::string* text;
  std::string path;
  DataFormat format;
  double min_rating;
  double max_rating;
  int64_t max_bad = 0;
};

/// The ratings a format accepts: movielens [0, 5], netflix [1, 5], csv
/// unbounded.
void FormatRatingRange(DataFormat format, double* min_rating,
                       double* max_rating) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  *min_rating = format == DataFormat::kMovieLens ? 0.0
                : format == DataFormat::kNetflix ? 1.0
                                                  : -kInf;
  *max_rating = format == DataFormat::kCsv ? kInf : 5.0;
}

/// Record a malformed line, honoring the per-shard cap (see
/// ShardResult::bad). `size <= max_bad` admits max_bad + 1 entries
/// without ever computing max_bad + 1 (which could overflow).
void RecordBadLine(const ParseContext& ctx, ShardResult* shard,
                   int64_t line, std::string detail) {
  if (static_cast<int64_t>(shard->bad.size()) <= ctx.max_bad) {
    shard->bad.push_back({line, std::move(detail)});
  }
}

/// Trim a trailing '\r' (CRLF dumps) and surrounding spaces.
void TrimLine(const char** begin, const char** end) {
  while (*begin < *end &&
         (**begin == ' ' || **begin == '\t' || **begin == '\r')) {
    ++*begin;
  }
  while (*end > *begin && ((*end)[-1] == ' ' || (*end)[-1] == '\t' ||
                           (*end)[-1] == '\r')) {
    --*end;
  }
}

void ParseRecordLine(const ParseContext& ctx, const char* begin,
                     const char* end, int64_t line, ShardResult* shard) {
  Field fields[6];
  int count;
  if (ctx.format == DataFormat::kNetflix) {
    count = SplitFields(begin, end, ",", /*wide=*/false, fields, 6);
  } else {
    bool wide = false;
    const char* delim = DetectDelim(begin, end, &wide);
    count = SplitFields(begin, end, delim, wide, fields, 6);
  }

  ParsedRec rec;
  rec.line = line;
  if (ctx.format == DataFormat::kNetflix) {
    // "user,rating[,date]" under the current section header; the item is
    // filled by the caller (shard-local) or the merge (carry-over).
    if (count != 2 && count != 3) {
      RecordBadLine(ctx, shard, line,
                    "expected 'user,rating[,date]', got '" +
                        std::string(begin, end) + "'");
      return;
    }
    rec.item = kPendingItem;
  } else {
    // "user<d>item<d>rating[<d>timestamp]".
    if (count != 3 && count != 4) {
      RecordBadLine(ctx, shard, line,
                    "expected 'user<delim>item<delim>rating', got '" +
                        std::string(begin, end) + "'");
      return;
    }
    if (!ParseI64(fields[1].begin, fields[1].end, &rec.item)) {
      RecordBadLine(ctx, shard, line,
                    "item id '" + fields[1].str() + "' is not an integer");
      return;
    }
    if (rec.item < 0) {
      RecordBadLine(ctx, shard, line,
                    "item id '" + fields[1].str() + "' is negative");
      return;
    }
  }
  if (!ParseI64(fields[0].begin, fields[0].end, &rec.user)) {
    RecordBadLine(ctx, shard, line,
                  "user id '" + fields[0].str() + "' is not an integer");
    return;
  }
  if (rec.user < 0) {
    RecordBadLine(ctx, shard, line,
                  "user id '" + fields[0].str() + "' is negative");
    return;
  }
  const Field& rating_field =
      fields[ctx.format == DataFormat::kNetflix ? 1 : 2];
  if (!ParseF32(rating_field.begin, rating_field.end, &rec.rating)) {
    RecordBadLine(
        ctx, shard, line,
        "rating '" + rating_field.str() + "' is not a finite float");
    return;
  }
  if (rec.rating < ctx.min_rating || rec.rating > ctx.max_rating) {
    RecordBadLine(ctx, shard, line,
                  StrFormat("rating %g outside [%g, %g]",
                            static_cast<double>(rec.rating),
                            ctx.min_rating, ctx.max_rating));
    return;
  }
  if (ctx.format == DataFormat::kNetflix &&
      shard->last_item != kPendingItem) {
    rec.item = shard->last_item;
  }
  shard->recs.push_back(rec);
}

/// True (and fills `*item`) when the line is a netflix "movie_id:"
/// section header.
bool ParseSectionHeader(const char* begin, const char* end, int64_t* item) {
  if (end - begin < 2 || end[-1] != ':') return false;
  return ParseI64(begin, end - 1, item) && *item >= 0;
}

void ParseShard(const ParseContext& ctx, const LineChunk& chunk,
                ShardResult* shard) {
  const char* data = ctx.text->data();
  size_t pos = chunk.begin;
  int64_t line = chunk.first_line;
  while (pos < chunk.end) {
    size_t nl = ctx.text->find('\n', pos);
    size_t line_end = (nl == std::string::npos || nl >= chunk.end)
                          ? chunk.end
                          : nl;
    const char* begin = data + pos;
    const char* end = data + line_end;
    TrimLine(&begin, &end);
    if (begin != end) {
      int64_t item;
      if (ctx.format == DataFormat::kNetflix &&
          ParseSectionHeader(begin, end, &item)) {
        shard->last_item = item;
      } else {
        ParseRecordLine(ctx, begin, end, line, shard);
      }
    }
    pos = line_end + 1;
    ++line;
  }
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(
        StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal(StrFormat("error reading '%s'", path.c_str()));
  }
  return text;
}

/// True when the first line looks like a CSV header ("userId,movieId,...")
/// rather than data: it uses the CSV delimiter spelling (classic "::"
/// .dat dumps never carry headers) and its first field is not numeric.
bool FirstLineIsHeader(const std::string& text) {
  const size_t nl = text.find('\n');
  const char* begin = text.data();
  const char* end =
      text.data() + (nl == std::string::npos ? text.size() : nl);
  TrimLine(&begin, &end);
  if (begin == end) return false;
  bool wide = false;
  const char* delim = DetectDelim(begin, end, &wide);
  if (wide) return false;
  Field fields[6];
  const int count = SplitFields(begin, end, delim, wide, fields, 6);
  if (count < 2) return false;
  int64_t ignored_int;
  float ignored_float;
  return !ParseI64(fields[0].begin, fields[0].end, &ignored_int) &&
         !ParseF32(fields[0].begin, fields[0].end, &ignored_float);
}

/// Parse one file into raw (user, item, rating, line) records, chunked
/// across `threads` workers with a deterministic in-order merge.
/// Malformed lines are charged against the remaining error budget
/// (options.max_bad_lines - report->total) and appended to `report`;
/// the first line past the budget fails the parse with its LineError,
/// which with the default budget of 0 is exactly the historical
/// first-bad-line Status.
Status ParseFile(const std::string& path, DataFormat format,
                 const LoadOptions& options,
                 std::vector<ParsedRec>* out, BadLineReport* report) {
  auto text_or = ReadFileToString(path);
  if (!text_or.ok()) return text_or.status();
  const std::string text = *std::move(text_or);

  ParseContext ctx;
  ctx.text = &text;
  ctx.path = path;
  ctx.format = format;
  ctx.max_bad = std::max<int64_t>(0, options.max_bad_lines);
  FormatRatingRange(format, &ctx.min_rating, &ctx.max_rating);

  size_t offset = 0;
  int64_t start_line = 1;
  if (format != DataFormat::kNetflix && FirstLineIsHeader(text)) {
    const size_t nl = text.find('\n');
    offset = nl == std::string::npos ? text.size() : nl + 1;
    start_line = 2;
  }

  const int threads = std::max(1, options.threads);
  std::vector<LineChunk> chunks =
      SplitAtLineBoundaries(text, offset, threads, start_line);
  std::vector<ShardResult> shards(chunks.size());
  {
    // The pool adds threads - 1 workers; ParallelFor's caller thread is
    // the remaining one, and with threads == 1 the loop runs serially.
    ThreadPool pool(static_cast<size_t>(threads - 1));
    pool.ParallelFor(0, static_cast<int64_t>(chunks.size()), 1,
                     [&](int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         ParseShard(ctx, chunks[static_cast<size_t>(i)],
                                    &shards[static_cast<size_t>(i)]);
                       }
                     });
  }

  // Deterministic merge: concatenate shards in file order, resolving
  // netflix carry-over section headers. Records seen before any header
  // existed anywhere (carry-over missing) are malformed; they join the
  // shards' parse failures in one line-sorted list judged against the
  // remaining error budget.
  std::vector<BadLine> file_bad;
  int64_t carry_item = kPendingItem;
  for (ShardResult& shard : shards) {
    for (BadLine& bad : shard.bad) file_bad.push_back(std::move(bad));
    size_t skip = 0;
    for (ParsedRec& rec : shard.recs) {
      if (rec.item != kPendingItem) break;
      if (carry_item == kPendingItem) {
        file_bad.push_back(
            {rec.line, "rating before any 'movie_id:' section header"});
        ++skip;
      } else {
        rec.item = carry_item;
      }
    }
    if (shard.last_item != kPendingItem) carry_item = shard.last_item;
    out->insert(out->end(),
                shard.recs.begin() + static_cast<ptrdiff_t>(skip),
                shard.recs.end());
  }
  // Headerless-prefix records sit at earlier lines than some parse
  // failures appended before them; sort so the budget is charged in
  // strict line order, the same order a serial scan would see.
  std::stable_sort(file_bad.begin(), file_bad.end(),
                   [](const BadLine& a, const BadLine& b) {
                     return a.line < b.line;
                   });

  const int64_t budget_left = ctx.max_bad - report->total;
  if (static_cast<int64_t>(file_bad.size()) > budget_left) {
    const BadLine& fatal = file_bad[static_cast<size_t>(budget_left)];
    return LineError(path, fatal.line, fatal.detail);
  }
  for (BadLine& bad : file_bad) {
    ++report->total;
    if (static_cast<int>(report->sample.size()) < BadLineReport::kMaxSample) {
      report->sample.push_back({path, bad.line, std::move(bad.detail)});
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<LoadedData> LoadRatings(const std::string& path, DataFormat format,
                                 const LoadOptions& options) {
  std::error_code ec;
  const bool is_dir = fs::is_directory(path, ec);
  if (ec || (!is_dir && !fs::exists(path, ec))) {
    return Status::NotFound(
        StrFormat("data path '%s' does not exist", path.c_str()));
  }

  LoadedData data;
  std::vector<ParsedRec> recs;
  // First record index contributed by each source file, so post-merge
  // errors (duplicates) can name the offending file rather than the
  // top-level directory.
  std::vector<std::pair<size_t, std::string>> origins;
  if (is_dir) {
    if (format != DataFormat::kNetflix) {
      return Status::InvalidArgument(
          StrFormat("'%s' is a directory; only the netflix format reads "
                    "per-movie directories",
                    path.c_str()));
    }
    // Per-movie mv_*.txt files, visited in sorted name order so the load
    // is deterministic across filesystems.
    std::vector<std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      return Status::InvalidArgument(
          StrFormat("directory '%s' holds no rating files", path.c_str()));
    }
    for (const std::string& file : files) {
      origins.emplace_back(recs.size(), file);
      HSGD_RETURN_IF_ERROR(
          ParseFile(file, format, options, &recs, &data.bad_lines));
    }
  } else {
    origins.emplace_back(0, path);
    HSGD_RETURN_IF_ERROR(
        ParseFile(path, format, options, &recs, &data.bad_lines));
  }

  if (recs.empty()) {
    return Status::InvalidArgument(
        StrFormat("'%s' contains no ratings", path.c_str()));
  }

  // Sequential remap + duplicate scan over the merged stream: dense ids
  // are assigned in first-appearance order, so the result is identical
  // for any thread count. Duplicates charge the same error budget the
  // parse phase drew from (the later record is the one quarantined).
  data.ratings.reserve(recs.size());
  std::unordered_set<uint64_t> seen;
  seen.reserve(recs.size() * 2);
  size_t origin_cursor = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const ParsedRec& rec = recs[i];
    // The source file this record came from (line numbers are per-file);
    // records arrive in file order, so a forward cursor suffices.
    while (origin_cursor + 1 < origins.size() &&
           origins[origin_cursor + 1].first <= i) {
      ++origin_cursor;
    }
    const std::string& origin = origins[origin_cursor].second;
    if (data.users.size() == std::numeric_limits<int32_t>::max() ||
        data.items.size() == std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument(
          StrFormat("'%s' has more distinct ids than int32 can index",
                    path.c_str()));
    }
    Rating r;
    r.u = data.users.Assign(rec.user);
    r.v = data.items.Assign(rec.item);
    r.r = rec.rating;
    const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(r.u))
                          << 32) |
                         static_cast<uint32_t>(r.v);
    if (!seen.insert(key).second) {
      std::string detail =
          StrFormat("duplicate rating for (user %lld, item %lld)",
                    static_cast<long long>(rec.user),
                    static_cast<long long>(rec.item));
      if (data.bad_lines.total >= options.max_bad_lines) {
        return LineError(origin, rec.line, detail);
      }
      ++data.bad_lines.total;
      if (static_cast<int>(data.bad_lines.sample.size()) <
          BadLineReport::kMaxSample) {
        data.bad_lines.sample.push_back(
            {origin, rec.line, std::move(detail)});
      }
      continue;
    }
    data.ratings.push_back(r);
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("io.files_parsed")
        ->Add(static_cast<int64_t>(origins.size()));
    options.metrics->counter("io.ratings_loaded")
        ->Add(static_cast<int64_t>(data.ratings.size()));
    options.metrics->counter("io.bad_lines")->Add(data.bad_lines.total);
  }
  return data;
}

StatusOr<Dataset> LoadDataset(const std::string& path, DataFormat format,
                              const LoadOptions& load_options,
                              double test_fraction) {
  // Capped at 0.5: the modulo split's stride cannot hold out more than
  // every other rating, so a larger request would be silently clamped.
  if (test_fraction < 0.0 || test_fraction > 0.5) {
    return Status::InvalidArgument(StrFormat(
        "test_fraction must be in [0, 0.5], got %g", test_fraction));
  }
  auto data = LoadRatings(path, format, load_options);
  if (!data.ok()) return data.status();
  if (data->bad_lines.total > 0) {
    const BadLineRecord& first = data->bad_lines.sample.front();
    HSGD_LOG(Warning) << "'" << path << "': quarantined "
                      << data->bad_lines.total
                      << " malformed line(s) under --max-bad-lines="
                      << load_options.max_bad_lines << " (first: " << first.file
                      << ":" << first.line << ": " << first.detail << ")";
  }

  // Deterministic modulo split: every stride-th rating in file order is
  // held out, so the split is reproducible for any parse thread count.
  Ratings train, test;
  if (test_fraction > 0.0) {
    const int64_t stride = std::max<int64_t>(
        2, static_cast<int64_t>(std::llround(1.0 / test_fraction)));
    train.reserve(data->ratings.size());
    for (size_t i = 0; i < data->ratings.size(); ++i) {
      if (static_cast<int64_t>(i) % stride == stride - 1) {
        test.push_back(data->ratings[i]);
      } else {
        train.push_back(data->ratings[i]);
      }
    }
  } else {
    train = std::move(data->ratings);
  }

  const SgdParams params = PresetSpec(format == DataFormat::kNetflix
                                          ? DatasetPreset::kNetflix
                                          : DatasetPreset::kMovieLens)
                               .params;
  return MakeDataset(std::move(train), std::move(test), data->users.size(),
                     data->items.size(), params);
}

}  // namespace hsgd::io
