// Ingestion tests: golden-file parses of the committed fixtures (one per
// format), write -> read round-trips through the io/ writers, the
// deterministic train/test split, malformed inputs that must come back as
// a line-numbered Status, the error budget charged in file order, and a
// mutation sweep (every byte flipped, every cut) where no input may crash
// the loader or break its rules (CI runs this binary under ASan/UBSan
// too).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "io/loader.h"
#include "io/writer.h"
#include "test_main.h"
#include "util/rng.h"
#include "util/strings.h"

namespace hsgd {
namespace {

using io::DataFormat;
using io::LoadedData;
using io::LoadOptions;

std::string Fixture(const char* name) {
  return std::string(HSGD_FIXTURE_DIR) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_TRUE(f != nullptr);
  if (f == nullptr) return;
  EXPECT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

/// Translate a loaded dataset's dense triplets back to raw-id triplets
/// via its retained id maps.
Ratings ToRaw(const LoadedData& data) {
  Ratings raw;
  raw.reserve(data.ratings.size());
  for (const Rating& r : data.ratings) {
    Rating out;
    out.u = static_cast<int32_t>(data.users.Raw(r.u));
    out.v = static_cast<int32_t>(data.items.Raw(r.v));
    out.r = r.r;
    raw.push_back(out);
  }
  return raw;
}

void ExpectRatingsEqual(const Ratings& a, const Ratings& b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.size() != b.size()) return;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].u, b[i].u);
    EXPECT_EQ(a[i].v, b[i].v);
    EXPECT_EQ(a[i].r, b[i].r);  // bit-identical floats
  }
}

void TestFormatNames() {
  EXPECT_TRUE(io::FormatByName("movielens").ok());
  EXPECT_TRUE(io::FormatByName("NETFLIX").ok());
  EXPECT_TRUE(io::FormatByName("csv").ok());
  EXPECT_EQ(static_cast<int>(*io::FormatByName("ml")),
            static_cast<int>(DataFormat::kMovieLens));
  auto bad = io::FormatByName("parquet");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().message().find("parquet") != std::string::npos);
  EXPECT_EQ(std::string(io::FormatName(DataFormat::kNetflix)), "netflix");
}

void TestGoldenMovieLensDat() {
  auto data =
      io::LoadRatings(Fixture("ml_tiny.dat"), DataFormat::kMovieLens);
  EXPECT_TRUE(data.ok());
  if (!data.ok()) return;
  EXPECT_EQ(data->users.size(), 3);
  EXPECT_EQ(data->items.size(), 3);
  // Dense ids follow first appearance: users 10, 20, 30 -> 0, 1, 2 and
  // items 100, 200, 300 -> 0, 1, 2.
  EXPECT_EQ(data->users.Raw(0), 10);
  EXPECT_EQ(data->users.Raw(2), 30);
  EXPECT_EQ(data->items.Raw(1), 200);
  EXPECT_EQ(data->users.Lookup(20), 1);
  EXPECT_EQ(data->users.Lookup(999), -1);
  const Ratings expected = {{0, 0, 5.0f},   {0, 1, 3.5f}, {1, 0, 4.0f},
                            {2, 2, 2.0f},   {1, 1, 1.5f}, {2, 0, 0.5f}};
  ExpectRatingsEqual(data->ratings, expected);
}

void TestGoldenCsvHeaderCrlf() {
  // Header line skipped, CRLF endings tolerated, comma delimiter.
  auto data = io::LoadRatings(Fixture("ml_tiny.csv"),
                              DataFormat::kMovieLens);
  EXPECT_TRUE(data.ok());
  if (!data.ok()) return;
  EXPECT_EQ(data->ratings.size(), 4u);
  EXPECT_EQ(data->users.size(), 3);
  EXPECT_EQ(data->items.size(), 3);
  EXPECT_EQ(data->users.Raw(0), 1);
  EXPECT_EQ(data->items.Raw(2), 30);
  EXPECT_EQ(data->ratings[1].r, 3.5f);
  // The generic csv format reads the same file.
  auto as_csv = io::LoadRatings(Fixture("ml_tiny.csv"), DataFormat::kCsv);
  EXPECT_TRUE(as_csv.ok());
  if (as_csv.ok()) ExpectRatingsEqual(as_csv->ratings, data->ratings);
}

void TestGoldenNetflixCombined() {
  auto data = io::LoadRatings(Fixture("netflix_tiny.txt"),
                              DataFormat::kNetflix);
  EXPECT_TRUE(data.ok());
  if (!data.ok()) return;
  EXPECT_EQ(data->ratings.size(), 5u);
  EXPECT_EQ(data->items.size(), 2);
  EXPECT_EQ(data->users.size(), 4);
  EXPECT_EQ(data->items.Raw(0), 1);
  EXPECT_EQ(data->items.Raw(1), 2);
  EXPECT_EQ(data->users.Raw(0), 1488844);
  // User 1488844 rated both movies; same dense id both times.
  EXPECT_EQ(data->ratings[0].u, data->ratings[4].u);
  EXPECT_EQ(data->ratings[4].v, 1);
  EXPECT_EQ(data->ratings[4].r, 4.0f);
}

void TestNetflixPerMovieDirectory() {
  namespace fs = std::filesystem;
  const std::string dir = "io_test_netflix_dir";
  fs::remove_all(dir);
  fs::create_directory(dir);
  WriteFile(dir + "/mv_0000002.txt", "2:\n823519,3,2004-05-03\n");
  WriteFile(dir + "/mv_0000001.txt",
            "1:\n1488844,3,2005-09-06\n822109,5,2005-05-13\n");
  auto data = io::LoadRatings(dir, DataFormat::kNetflix);
  EXPECT_TRUE(data.ok());
  if (data.ok()) {
    // Files visit in sorted name order: movie 1's ratings first.
    EXPECT_EQ(data->ratings.size(), 3u);
    EXPECT_EQ(data->items.Raw(0), 1);
    EXPECT_EQ(data->items.Raw(1), 2);
    EXPECT_EQ(data->ratings[2].r, 3.0f);
  }
  // A duplicate names the per-movie file it came from, not the
  // directory.
  WriteFile(dir + "/mv_0000003.txt", "3:\n42,3,2005-01-01\n42,4,2005-01-02\n");
  auto dup = io::LoadRatings(dir, DataFormat::kNetflix);
  EXPECT_FALSE(dup.ok());
  if (!dup.ok()) {
    EXPECT_TRUE(dup.status().message().find("mv_0000003.txt:3:") !=
                std::string::npos);
  }
  // A directory is only meaningful for netflix.
  EXPECT_FALSE(io::LoadRatings(dir, DataFormat::kCsv).ok());
  fs::remove_all(dir);
}

void TestRoundTripWriters() {
  SyntheticSpec spec;
  spec.num_rows = 40;
  spec.num_cols = 30;
  spec.train_nnz = 500;
  spec.test_nnz = 0;
  spec.params.k = 4;
  auto ds = GenerateSynthetic(spec, /*seed=*/11);
  EXPECT_TRUE(ds.ok());
  // Synthetic sampling may repeat (u, v) pairs, which the loader rejects
  // as duplicates; keep the first occurrence of each pair.
  Ratings original;
  {
    std::vector<char> seen(
        static_cast<size_t>(spec.num_rows * spec.num_cols), 0);
    for (const Rating& r : ds->train) {
      char& cell = seen[static_cast<size_t>(r.u) * spec.num_cols + r.v];
      if (cell == 0) {
        cell = 1;
        original.push_back(r);
      }
    }
  }

  const std::string ml_path = "io_test_roundtrip.dat";
  const std::string csv_path = "io_test_roundtrip.csv";
  const std::string nf_path = "io_test_roundtrip.nf.txt";
  EXPECT_TRUE(io::WriteMovieLens(ml_path, original).ok());
  EXPECT_TRUE(io::WriteCsv(csv_path, original, /*header=*/true).ok());
  EXPECT_TRUE(io::WriteNetflix(nf_path, original).ok());

  // MovieLens and CSV preserve order: raw triplets come back
  // bit-identical, line for line.
  for (const auto& [path, format] :
       {std::pair<std::string, DataFormat>{ml_path, DataFormat::kMovieLens},
        {csv_path, DataFormat::kCsv}}) {
    auto loaded = io::LoadRatings(path, format);
    EXPECT_TRUE(loaded.ok());
    if (loaded.ok()) ExpectRatingsEqual(ToRaw(*loaded), original);
  }

  // Netflix is movie-major: same triplets, item-grouped order. Compare
  // under a canonical sort.
  auto nf_loaded = io::LoadRatings(nf_path, DataFormat::kNetflix);
  EXPECT_TRUE(nf_loaded.ok());
  if (nf_loaded.ok()) {
    Ratings got = ToRaw(*nf_loaded);
    Ratings want = original;
    auto by_pair = [](const Rating& a, const Rating& b) {
      if (a.u != b.u) return a.u < b.u;
      return a.v < b.v;
    };
    std::sort(got.begin(), got.end(), by_pair);
    std::sort(want.begin(), want.end(), by_pair);
    ExpectRatingsEqual(got, want);
  }

  std::remove(ml_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(nf_path.c_str());
}

/// Expect a load failure whose message names `line` ("path:line: ...").
void ExpectLineError(const std::string& content, DataFormat format,
                     int64_t line, const char* what) {
  const std::string path = "io_test_malformed.tmp";
  WriteFile(path, content);
  auto data = io::LoadRatings(path, format);
  EXPECT_FALSE(data.ok());
  if (data.ok()) {
    std::fprintf(stderr, "  (case: %s)\n", what);
  } else {
    const std::string needle = path + ":" + std::to_string(line) + ":";
    if (data.status().message().find(needle) == std::string::npos) {
      std::fprintf(stderr, "  (case %s: wanted '%s' in '%s')\n", what,
                   needle.c_str(), data.status().message().c_str());
      EXPECT_TRUE(false);
    }
  }
  std::remove(path.c_str());
}

void TestMalformedInputs() {
  // Truncated last record (no rating field, with and without newline).
  ExpectLineError("1::2::3\n4::5\n", DataFormat::kMovieLens, 2,
                  "truncated with newline");
  ExpectLineError("1::2::3\n4::5", DataFormat::kMovieLens, 2,
                  "truncated without newline");
  // Non-numeric and negative ids.
  ExpectLineError("abc::2::3\n", DataFormat::kMovieLens, 1,
                  "non-numeric user");
  ExpectLineError("1::2::3\n1::xx::3\n", DataFormat::kMovieLens, 2,
                  "non-numeric item");
  ExpectLineError("-1::2::3\n", DataFormat::kMovieLens, 1, "negative id");
  // Bad ratings: non-numeric, non-finite, out of the format's range.
  ExpectLineError("1::2::abc\n", DataFormat::kMovieLens, 1,
                  "non-numeric rating");
  ExpectLineError("1::2::inf\n", DataFormat::kMovieLens, 1,
                  "non-finite rating");
  // Finite as a double, infinite as a float: CSV has no range to catch it.
  ExpectLineError("1,1,3\n1,2,1e39\n", DataFormat::kCsv, 2,
                  "rating overflows float");
  ExpectLineError("1,1,3\n2,2,-1e39\n", DataFormat::kCsv, 2,
                  "rating overflows float, negative");
  ExpectLineError("1::2::5.5\n", DataFormat::kMovieLens, 1,
                  "rating above movielens range");
  // Line numbers count a skipped CSV header.
  ExpectLineError("userId,movieId,rating\n1,2,3\n1,x,3\n", DataFormat::kCsv,
                  3, "bad item after a header");
  ExpectLineError("1:\n99,0.5,2005-01-01\n", DataFormat::kNetflix, 2,
                  "rating below netflix range");
  // Duplicate (user, item) pairs.
  ExpectLineError("1::2::3\n7::8::2\n1::2::4\n", DataFormat::kMovieLens,
                  3, "duplicate pair");
  // Netflix rating line before any section header.
  ExpectLineError("99,3,2005-01-01\n", DataFormat::kNetflix, 1,
                  "rating before header");

  // Empty file / header-only file: an error, not a zero-entry dataset.
  const std::string path = "io_test_empty.tmp";
  WriteFile(path, "");
  EXPECT_FALSE(io::LoadRatings(path, DataFormat::kMovieLens).ok());
  WriteFile(path, "userId,movieId,rating\n");
  EXPECT_FALSE(io::LoadRatings(path, DataFormat::kCsv).ok());
  std::remove(path.c_str());

  // Missing path: NotFound.
  auto missing =
      io::LoadRatings("no_such_ratings.dat", DataFormat::kMovieLens);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().code() == StatusCode::kNotFound);
}

void TestErrorBudget() {
  const std::string path = "io_test_budget.tmp";

  // 3 bad lines (non-numeric item, bad rating, truncated) interleaved
  // with 3 good ones. Budget 3 absorbs them; the report counts each with
  // its line; the surviving ratings are exactly the good lines.
  WriteFile(path,
            "1::10::3\n1::xx::3\n2::10::9.5\n2::20::4\n3::30\n3::30::2\n");
  {
    LoadOptions options;
    options.max_bad_lines = 3;
    auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->ratings.size(), 3u);
      EXPECT_EQ(data->bad_lines.total, 3);
      EXPECT_EQ(data->bad_lines.sample.size(), 3u);
      // Quarantined lines arrive in file order with their line numbers.
      EXPECT_EQ(data->bad_lines.sample[0].line, 2);
      EXPECT_EQ(data->bad_lines.sample[1].line, 3);
      EXPECT_EQ(data->bad_lines.sample[2].line, 5);
      EXPECT_EQ(data->bad_lines.sample[0].file, path);
      EXPECT_TRUE(data->bad_lines.sample[0].detail.find("not an integer") !=
                  std::string::npos);
      const Ratings expected = {{0, 0, 3.0f}, {1, 1, 4.0f}, {2, 2, 2.0f}};
      ExpectRatingsEqual(data->ratings, expected);
    }
  }

  // Budget 2 with those same 3 bad lines: the load fails naming the
  // first line PAST the budget (line 5).
  {
    LoadOptions options;
    options.max_bad_lines = 2;
    auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_FALSE(data.ok());
    if (!data.ok()) {
      EXPECT_TRUE(data.status().message().find(path + ":5:") !=
                  std::string::npos);
    }
  }

  // Duplicates draw from the same budget; the later record is dropped
  // and the first occurrence survives.
  WriteFile(path, "1::10::3\n2::20::4\n1::10::5\n");
  {
    LoadOptions options;
    options.max_bad_lines = 1;
    auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->ratings.size(), 2u);
      EXPECT_EQ(data->ratings[0].r, 3.0f);  // first occurrence kept
      EXPECT_EQ(data->bad_lines.total, 1);
      EXPECT_TRUE(data->bad_lines.sample[0].detail.find("duplicate") !=
                  std::string::npos);
      EXPECT_EQ(data->bad_lines.sample[0].line, 3);
    }
    // Parse failures and duplicates share one budget: a budget of 1
    // spent on a parse failure leaves nothing for the duplicate.
    WriteFile(path, "1::xx::3\n1::10::3\n2::20::4\n1::10::5\n");
    auto both = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_FALSE(both.ok());
    if (!both.ok()) {
      EXPECT_TRUE(both.status().message().find(path + ":4:") !=
                  std::string::npos);
    }
  }

  // Netflix: a headerless rating prefix is quarantined under budget too.
  WriteFile(path, "99,3,2005-01-01\n1:\n7,4,2005-01-02\n");
  {
    LoadOptions options;
    options.max_bad_lines = 1;
    auto data = io::LoadRatings(path, DataFormat::kNetflix, options);
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->ratings.size(), 1u);
      EXPECT_EQ(data->bad_lines.total, 1);
      EXPECT_TRUE(data->bad_lines.sample[0].detail.find("section header") !=
                  std::string::npos);
    }
  }

  // The sample is capped while the total stays exact.
  {
    std::string text;
    for (int i = 0; i < 30; ++i) text += "bad line " + std::to_string(i) + "\n";
    text += "1::10::3\n";
    WriteFile(path, text);
    LoadOptions options;
    options.max_bad_lines = 100;
    auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_TRUE(data.ok());
    if (data.ok()) {
      EXPECT_EQ(data->bad_lines.total, 30);
      EXPECT_EQ(data->bad_lines.sample.size(),
                static_cast<size_t>(io::BadLineReport::kMaxSample));
    }
  }

  std::remove(path.c_str());
}

// Each bad line is judged as it is read: a duplicate at line 2 comes
// before a parse failure at line 3, both in what a strict load names
// and in the report's sample. Across a netflix directory, file 1's
// duplicate comes before file 2's parse failure.
void TestBadLinesJudgedInFileOrder() {
  const std::string path = "io_test_order.tmp";
  WriteFile(path, "1::10::3\n1::10::5\n1::xx::3\n2::20::4\n");
  for (int64_t budget : {0, 1}) {
    LoadOptions options;
    options.max_bad_lines = budget;
    auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
    EXPECT_FALSE(data.ok());
    if (!data.ok()) {
      const std::string want = path + ":" + std::to_string(2 + budget) + ":";
      EXPECT_TRUE(data.status().message().find(want) != std::string::npos);
    }
  }
  LoadOptions options;
  options.max_bad_lines = 2;
  auto data = io::LoadRatings(path, DataFormat::kMovieLens, options);
  EXPECT_TRUE(data.ok());
  if (data.ok()) {
    EXPECT_EQ(data->ratings.size(), 2u);
    EXPECT_EQ(data->bad_lines.total, 2);
    EXPECT_EQ(data->bad_lines.sample.size(), 2u);
    if (data->bad_lines.sample.size() == 2u) {
      EXPECT_EQ(data->bad_lines.sample[0].line, 2);
      EXPECT_TRUE(data->bad_lines.sample[0].detail.find("duplicate") !=
                  std::string::npos);
      EXPECT_EQ(data->bad_lines.sample[1].line, 3);
    }
  }
  std::remove(path.c_str());

  namespace fs = std::filesystem;
  const std::string dir = "io_test_order_dir";
  fs::remove_all(dir);
  fs::create_directory(dir);
  WriteFile(dir + "/mv_0000001.txt", "1:\n7,3\n7,4\n");
  WriteFile(dir + "/mv_0000002.txt", "2:\n8,x\n");
  auto strict = io::LoadRatings(dir, DataFormat::kNetflix);
  EXPECT_FALSE(strict.ok());
  if (!strict.ok()) {
    EXPECT_TRUE(strict.status().message().find("mv_0000001.txt:3:") !=
                std::string::npos);
  }
  fs::remove_all(dir);
}

/// The line an error names ("<path>:<line>: ..."), or -1 when it names
/// none ("'<path>' contains no ratings").
int64_t NamedLine(const Status& status, const std::string& path) {
  const std::string& message = status.message();
  const std::string prefix = path + ":";
  if (message.compare(0, prefix.size(), prefix) != 0) return -1;
  return std::strtoll(message.c_str() + prefix.size(), nullptr, 10);
}

// Mutation sweep: three small texts, each with every byte flipped by
// 0x01, 0x80 and 0xff and cut at every length, are loaded strictly
// (budget 0) and leniently (budget 1000). Every load must be OK or
// InvalidArgument, and an error may name only a line the text has. When
// the lenient load succeeds, the strict one fails exactly when the
// lenient report is non-empty and names its first sampled line, and the
// sample is in file order. A load that succeeds holds no repeated
// (user, item) pair and no rating outside its format's range.
void TestMutationSweep() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    DataFormat format;
    std::string text;
    double min_rating;
    double max_rating;
  };
  const Case cases[] = {
      {DataFormat::kMovieLens,
       "1::10::3\n2::10::4.5\n3::10::2\n2::20::5::978300760\n", 0.0, 5.0},
      {DataFormat::kCsv, "userId,movieId,rating\n1,10,3.5\n2,10,-4\n3,10,0.5\n",
       -kInf, kInf},
      {DataFormat::kNetflix, "1:\n10,3,2005-01-01\n11,4\n2:\n10,5,2005-01-03\n",
       1.0, 5.0},
  };
  const std::string path = "io_test_mutant.tmp";

  // The loaded ratings obey the format's rules.
  auto valid = [](const LoadedData& data, const Case& c) {
    std::set<std::pair<int32_t, int32_t>> pairs;
    for (const Rating& r : data.ratings) {
      if (r.u < 0 || r.u >= data.users.size() || r.v < 0 ||
          r.v >= data.items.size() || !std::isfinite(r.r) ||
          r.r < c.min_rating || r.r > c.max_rating ||
          !pairs.insert({r.u, r.v}).second) {
        return false;
      }
    }
    return !data.ratings.empty();
  };

  for (const Case& c : cases) {
    std::vector<std::pair<std::string, std::string>> mutants;  // (what, text)
    for (size_t i = 0; i < c.text.size(); ++i) {
      for (int mask : {0x01, 0x80, 0xff}) {
        std::string text = c.text;
        text[i] = static_cast<char>(text[i] ^ mask);
        mutants.emplace_back(StrFormat("byte %zu ^ 0x%02x", i, mask), text);
      }
    }
    for (size_t len = 0; len <= c.text.size(); ++len) {
      mutants.emplace_back(StrFormat("cut at %zu", len), c.text.substr(0, len));
    }
    for (const auto& [what, text] : mutants) {
      WriteFile(path, text);
      const int64_t lines = std::count(text.begin(), text.end(), '\n') + 1;
      LoadOptions lenient_options;
      lenient_options.max_bad_lines = 1000;
      auto strict = io::LoadRatings(path, c.format);
      auto lenient = io::LoadRatings(path, c.format, lenient_options);
      bool ok = true;
      for (const StatusOr<LoadedData>* load : {&strict, &lenient}) {
        if (load->ok()) {
          ok = ok && valid(**load, c);
          continue;
        }
        const int64_t line = NamedLine(load->status(), path);
        ok = ok && load->status().code() == StatusCode::kInvalidArgument &&
             (line == -1 || (line >= 1 && line <= lines));
      }
      if (lenient.ok()) {
        const io::BadLineReport& report = lenient->bad_lines;
        ok = ok && strict.ok() == (report.total == 0);
        if (!strict.ok() && !report.sample.empty()) {
          ok = ok && NamedLine(strict.status(), path) == report.sample[0].line;
        }
        for (size_t i = 1; i < report.sample.size(); ++i) {
          ok = ok && report.sample[i - 1].line < report.sample[i].line;
        }
      }
      if (!ok) {
        std::fprintf(stderr, "  (%s mutant, %s: strict '%s', lenient '%s')\n",
                     io::FormatName(c.format), what.c_str(),
                     strict.status().message().c_str(),
                     lenient.status().message().c_str());
        EXPECT_TRUE(false);
      }
    }
  }
  std::remove(path.c_str());
}

void TestCrlfAndBlankLines() {
  const std::string path = "io_test_crlf.tmp";
  WriteFile(path, "1::2::3\r\n\r\n4::5::2.5\r\n");
  auto data = io::LoadRatings(path, DataFormat::kMovieLens);
  EXPECT_TRUE(data.ok());
  if (data.ok()) {
    EXPECT_EQ(data->ratings.size(), 2u);
    EXPECT_EQ(data->ratings[0].r, 3.0f);
    EXPECT_EQ(data->ratings[1].r, 2.5f);
  }
  std::remove(path.c_str());
}

void TestLoadDatasetSplitAndParams() {
  const std::string path = "io_test_split.dat";
  Ratings original;
  for (int32_t i = 0; i < 100; ++i) {
    original.push_back({i % 25, i / 25, 1.0f + static_cast<float>(i % 5)});
  }
  EXPECT_TRUE(io::WriteMovieLens(path, original).ok());

  auto ds = io::LoadDataset(path, DataFormat::kMovieLens, {}, 0.1);
  EXPECT_TRUE(ds.ok());
  if (ds.ok()) {
    EXPECT_EQ(ds->train_size(), 90);
    EXPECT_EQ(ds->test_size(), 10);
    EXPECT_EQ(ds->num_rows, 25);
    EXPECT_EQ(ds->num_cols, 4);
    // Format-default hyper-parameters: MovieLens Table I.
    EXPECT_EQ(ds->params.k, PresetSpec(DatasetPreset::kMovieLens).params.k);

    // The split is deterministic: the fingerprint (which covers both
    // splits) of a second load must match exactly.
    auto again = io::LoadDataset(path, DataFormat::kMovieLens, {}, 0.1);
    EXPECT_TRUE(again.ok());
    if (again.ok()) {
      EXPECT_TRUE(FingerprintDataset(*ds) == FingerprintDataset(*again));
    }
  }

  // No split: everything lands in train.
  auto all_train = io::LoadDataset(path, DataFormat::kMovieLens, {}, 0.0);
  EXPECT_TRUE(all_train.ok());
  if (all_train.ok()) {
    EXPECT_EQ(all_train->train_size(), 100);
    EXPECT_EQ(all_train->test_size(), 0);
  }

  // Bad fractions: rejected, including (0.5, 1) which the modulo stride
  // could not honor.
  for (double fraction : {1.5, 0.8, -0.1}) {
    EXPECT_FALSE(
        io::LoadDataset(path, DataFormat::kMovieLens, {}, fraction).ok());
  }
  std::remove(path.c_str());
}

void TestCommittedSmokeFixtureLoads() {
  // The fixture CI feeds to the benches: sane shape, full id coverage.
  auto ds = io::LoadDataset(Fixture("ml_smoke.dat"),
                            DataFormat::kMovieLens);
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return;
  EXPECT_EQ(ds->num_rows, 80);
  EXPECT_EQ(ds->num_cols, 50);
  EXPECT_TRUE(ds->train_size() > 2000);
  EXPECT_TRUE(ds->test_size() > 200);
  RatingStats stats = ComputeStats(ds->train);
  EXPECT_TRUE(stats.min_rating >= 0.5);
  EXPECT_TRUE(stats.max_rating <= 5.0);
}


// IdMap against a std::unordered_map reference: the extreme int64 ids,
// ids that differ only in their high bits or share their low bits, and
// enough random ids, most seen several times, to rehash many times. Each
// Assign must return the reference's first-seen-order dense id, an
// unseen id must look up as -1, and a copy must keep its answers while
// the original keeps assigning.
void TestIdMapMatchesReference() {
  std::vector<int64_t> ids = {0,
                              -1,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(),
                              1,
                              std::numeric_limits<int64_t>::min() + 1,
                              std::numeric_limits<int64_t>::max() - 1};
  for (int64_t i = 1; i < 200; ++i) {
    ids.push_back(static_cast<int64_t>(static_cast<uint64_t>(i) << 40));
    ids.push_back(static_cast<int64_t>((static_cast<uint64_t>(i) << 32) | 5));
    ids.push_back(-i * 65536);
  }
  Rng rng(23);
  std::vector<int64_t> pool(9000);
  for (int64_t& id : pool) id = static_cast<int64_t>(rng.NextU64());
  for (int i = 0; i < 30000; ++i) {
    ids.push_back(pool[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(pool.size())))]);
  }
  // Ids never assigned: odd multiples of 2^20 plus 3, which no assigned
  // id above is, barring a 1-in-2^40 collision with the random pool.
  std::vector<int64_t> unseen;
  for (int64_t i = 0; i < 3000; ++i) {
    unseen.push_back(static_cast<int64_t>(
        (static_cast<uint64_t>(rng.NextU64()) << 20) | (1u << 19) | 3));
  }

  io::IdMap map;
  EXPECT_EQ(map.size(), 0);
  EXPECT_EQ(map.Lookup(0), -1);
  std::unordered_map<int64_t, int32_t> reference;
  std::vector<int64_t> raw_of;
  io::IdMap copy;
  size_t copied_at = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const int64_t raw = ids[i];
    const auto [it, fresh] =
        reference.emplace(raw, static_cast<int32_t>(reference.size()));
    if (fresh) raw_of.push_back(raw);
    EXPECT_EQ(map.Assign(raw), it->second);
    EXPECT_EQ(map.size(), static_cast<int32_t>(reference.size()));
    if (i == ids.size() / 2) {
      copy = map;
      copied_at = reference.size();
    }
    if (i % 97 == 0) {
      for (size_t j = 0; j < 40; ++j) {
        EXPECT_EQ(map.Lookup(unseen[(i + j) % unseen.size()]), -1);
      }
    }
  }
  EXPECT_LT(9000, map.size());
  for (const auto& [raw, dense] : reference) {
    EXPECT_EQ(map.Lookup(raw), dense);
    EXPECT_EQ(map.Raw(dense), raw);
  }
  for (int64_t raw : unseen) EXPECT_EQ(map.Lookup(raw), -1);

  // The copy answers as the map did when it was taken.
  EXPECT_EQ(copy.size(), static_cast<int32_t>(copied_at));
  for (int32_t dense = 0; dense < map.size(); ++dense) {
    const int64_t raw = raw_of[static_cast<size_t>(dense)];
    if (static_cast<size_t>(dense) < copied_at) {
      EXPECT_EQ(copy.Lookup(raw), dense);
      EXPECT_EQ(copy.Raw(dense), raw);
    } else {
      EXPECT_EQ(copy.Lookup(raw), -1);
    }
  }
  // And it keeps assigning on its own, from where it was copied.
  EXPECT_EQ(copy.Assign(unseen.front()), static_cast<int32_t>(copied_at));
  EXPECT_EQ(map.Lookup(unseen.front()), -1);
}

}  // namespace

void RunAllTests() {
  TestFormatNames();
  TestGoldenMovieLensDat();
  TestGoldenCsvHeaderCrlf();
  TestGoldenNetflixCombined();
  TestNetflixPerMovieDirectory();
  TestRoundTripWriters();
  TestMalformedInputs();
  TestErrorBudget();
  TestBadLinesJudgedInFileOrder();
  TestMutationSweep();
  TestCrlfAndBlankLines();
  TestLoadDatasetSplitAndParams();
  TestCommittedSmokeFixtureLoads();
  TestIdMapMatchesReference();
}

}  // namespace hsgd

using hsgd::RunAllTests;
TEST_MAIN()
