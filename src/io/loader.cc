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
#include "util/logging.h"
#include "util/strings.h"

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

namespace {

/// The splitmix64 finalizer: every input bit reaches the top bits, which
/// pick an IdMap's home slot, so ids that differ only in their low (or
/// high) bits spread over the table.
uint64_t MixId(int64_t raw) {
  uint64_t x = static_cast<uint64_t>(raw);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kMinIdSlots = 16;

}  // namespace

size_t IdMap::Probe(int64_t raw) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(MixId(raw) >> shift_);
  while (slots_[i].dense_plus_one != 0 && slots_[i].raw != raw) {
    i = (i + 1) & mask;
  }
  return i;
}

void IdMap::Rehash(size_t capacity) {
  slots_.assign(capacity, Slot{});
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (size_t d = 0; d < to_raw_.size(); ++d) {
    slots_[Probe(to_raw_[d])] = {to_raw_[d], static_cast<int32_t>(d) + 1};
  }
}

int32_t IdMap::Assign(int64_t raw) {
  if (slots_.empty()) Rehash(kMinIdSlots);
  size_t slot = Probe(raw);
  if (slots_[slot].dense_plus_one != 0) {
    return slots_[slot].dense_plus_one - 1;
  }
  const int32_t dense = size();
  if (2 * (to_raw_.size() + 1) > slots_.size()) {
    Rehash(2 * slots_.size());
    slot = Probe(raw);
  }
  slots_[slot] = {raw, dense + 1};
  to_raw_.push_back(raw);
  return dense;
}

namespace {

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

/// One load's state across its files: the result so far, the
/// duplicate set, and what every line is judged against.
struct LoadState {
  std::string root;  // the path LoadRatings was given
  DataFormat format;
  int64_t max_bad_lines;
  /// The ratings a format accepts: movielens [0, 5], netflix [1, 5],
  /// csv unbounded.
  double min_rating;
  double max_rating;
  LoadedData data;
  /// Dense (user, item) pairs already loaded, packed into one word.
  std::unordered_set<uint64_t> seen;
};

/// Charge a malformed line to the error budget: it joins the report
/// while the budget covers it, and fails the load with its LineError
/// once the budget is spent (at once under the default budget of 0).
Status ChargeBadLine(LoadState* state, const std::string& path,
                     int64_t line, std::string detail) {
  BadLineReport& report = state->data.bad_lines;
  if (report.total >= state->max_bad_lines) {
    return LineError(path, line, detail);
  }
  ++report.total;
  if (static_cast<int>(report.sample.size()) < BadLineReport::kMaxSample) {
    report.sample.push_back({path, line, std::move(detail)});
  }
  return Status::Ok();
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

/// Parse one rating line into `rec`, or say in `detail` why it is
/// malformed. A netflix line carries no item; the caller fills it from
/// the current section header.
bool ParseRecordLine(const LoadState& state, const char* begin,
                     const char* end, RawRating* rec, std::string* detail) {
  const bool netflix = state.format == DataFormat::kNetflix;
  Field fields[6];
  int count;
  if (netflix) {
    count = SplitFields(begin, end, ",", /*wide=*/false, fields, 6);
  } else {
    bool wide = false;
    const char* delim = DetectDelim(begin, end, &wide);
    count = SplitFields(begin, end, delim, wide, fields, 6);
  }

  if (netflix) {
    // "user,rating[,date]" under the current section header.
    if (count != 2 && count != 3) {
      *detail = "expected 'user,rating[,date]', got '" +
                std::string(begin, end) + "'";
      return false;
    }
  } else {
    // "user<d>item<d>rating[<d>timestamp]".
    if (count != 3 && count != 4) {
      *detail = "expected 'user<delim>item<delim>rating', got '" +
                std::string(begin, end) + "'";
      return false;
    }
    if (!ParseI64(fields[1].begin, fields[1].end, &rec->item)) {
      *detail = "item id '" + fields[1].str() + "' is not an integer";
      return false;
    }
    if (rec->item < 0) {
      *detail = "item id '" + fields[1].str() + "' is negative";
      return false;
    }
  }
  if (!ParseI64(fields[0].begin, fields[0].end, &rec->user)) {
    *detail = "user id '" + fields[0].str() + "' is not an integer";
    return false;
  }
  if (rec->user < 0) {
    *detail = "user id '" + fields[0].str() + "' is negative";
    return false;
  }
  const Field& rating_field = fields[netflix ? 1 : 2];
  if (!ParseF32(rating_field.begin, rating_field.end, &rec->rating)) {
    *detail = "rating '" + rating_field.str() + "' is not a finite float";
    return false;
  }
  if (rec->rating < state.min_rating || rec->rating > state.max_rating) {
    *detail = StrFormat("rating %g outside [%g, %g]",
                        static_cast<double>(rec->rating), state.min_rating,
                        state.max_rating);
    return false;
  }
  return true;
}

/// Give `rec` dense ids and append it, or charge it to the budget as a
/// duplicate (the first occurrence is the one kept).
Status AddRating(LoadState* state, const std::string& path, int64_t line,
                 const RawRating& rec) {
  LoadedData& data = state->data;
  if (data.users.size() == std::numeric_limits<int32_t>::max() ||
      data.items.size() == std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        StrFormat("'%s' has more distinct ids than int32 can index",
                  state->root.c_str()));
  }
  Rating r;
  r.u = data.users.Assign(rec.user);
  r.v = data.items.Assign(rec.item);
  r.r = rec.rating;
  const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(r.u))
                        << 32) |
                       static_cast<uint32_t>(r.v);
  if (!state->seen.insert(key).second) {
    return ChargeBadLine(
        state, path, line,
        StrFormat("duplicate rating for (user %lld, item %lld)",
                  static_cast<long long>(rec.user),
                  static_cast<long long>(rec.item)));
  }
  data.ratings.push_back(r);
  return Status::Ok();
}

/// True (and fills `*item`) when the line is a netflix "movie_id:"
/// section header.
bool ParseSectionHeader(const char* begin, const char* end, int64_t* item) {
  if (end - begin < 2 || end[-1] != ':') return false;
  return ParseI64(begin, end - 1, item) && *item >= 0;
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(
        StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  std::string text;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (!ec) text.reserve(static_cast<size_t>(size));
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

/// Read one file in one pass: each line is parsed, given dense ids,
/// checked for duplicates and charged to the error budget as it is
/// read, so the budget is spent in file order.
Status LoadFile(LoadState* state, const std::string& path) {
  auto text_or = ReadFileToString(path);
  if (!text_or.ok()) return text_or.status();
  const std::string& text = *text_or;
  const bool netflix = state->format == DataFormat::kNetflix;

  if (state->data.ratings.empty()) {
    // Sized by the first file's lines; a directory's later files grow
    // the containers geometrically rather than reallocating per file.
    const size_t lines =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    state->data.ratings.reserve(lines);
    state->seen.reserve(lines);
  }

  size_t pos = 0;
  int64_t line = 1;
  if (!netflix && FirstLineIsHeader(text)) {
    const size_t nl = text.find('\n');
    pos = nl == std::string::npos ? text.size() : nl + 1;
    line = 2;
  }
  // Netflix: the item of the latest "movie_id:" header in this file.
  int64_t section = -1;
  for (; pos < text.size(); ++line) {
    const size_t nl = text.find('\n', pos);
    const size_t line_end = nl == std::string::npos ? text.size() : nl;
    const char* begin = text.data() + pos;
    const char* end = text.data() + line_end;
    pos = line_end + 1;
    TrimLine(&begin, &end);
    if (begin == end) continue;
    int64_t header_item;
    if (netflix && ParseSectionHeader(begin, end, &header_item)) {
      section = header_item;
      continue;
    }
    RawRating rec;
    std::string detail;
    if (!ParseRecordLine(*state, begin, end, &rec, &detail)) {
      HSGD_RETURN_IF_ERROR(
          ChargeBadLine(state, path, line, std::move(detail)));
    } else if (netflix && section < 0) {
      HSGD_RETURN_IF_ERROR(ChargeBadLine(
          state, path, line, "rating before any 'movie_id:' section header"));
    } else {
      if (netflix) rec.item = section;
      HSGD_RETURN_IF_ERROR(AddRating(state, path, line, rec));
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

  std::vector<std::string> files;
  if (is_dir) {
    if (format != DataFormat::kNetflix) {
      return Status::InvalidArgument(
          StrFormat("'%s' is a directory; only the netflix format reads "
                    "per-movie directories",
                    path.c_str()));
    }
    // Per-movie mv_*.txt files, visited in sorted name order so the load
    // is deterministic across filesystems.
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file()) files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      return Status::InvalidArgument(
          StrFormat("directory '%s' holds no rating files", path.c_str()));
    }
  } else {
    files.push_back(path);
  }

  LoadState state;
  state.root = path;
  state.format = format;
  state.max_bad_lines = options.max_bad_lines;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  state.min_rating = format == DataFormat::kMovieLens ? 0.0
                     : format == DataFormat::kNetflix ? 1.0
                                                      : -kInf;
  state.max_rating = format == DataFormat::kCsv ? kInf : 5.0;
  for (const std::string& file : files) {
    HSGD_RETURN_IF_ERROR(LoadFile(&state, file));
  }

  LoadedData& data = state.data;
  if (data.ratings.empty()) {
    return Status::InvalidArgument(
        StrFormat("'%s' contains no ratings", path.c_str()));
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("io.files_parsed")
        ->Add(static_cast<int64_t>(files.size()));
    options.metrics->counter("io.ratings_loaded")
        ->Add(static_cast<int64_t>(data.ratings.size()));
    options.metrics->counter("io.bad_lines")->Add(data.bad_lines.total);
  }
  return std::move(data);
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
  // held out.
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
