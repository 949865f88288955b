#include "fault/fault_plan.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hsgd {
namespace {

// Small cursor over one clause; all Eat* helpers advance on success.
// Numbers are plain decimal: digits, then for a double an optional
// `.digits` fraction and an optional `e[+-]digits` exponent. No sign,
// space, hex, inf or nan, all of which strtol/strtod would take.
struct Cursor {
  const char* p;
  const char* end;

  bool AtEnd() const { return p >= end; }
  bool EatLiteral(const char* lit) {
    const char* q = p;
    for (const char* l = lit; *l; ++l, ++q) {
      if (q >= end || *q != *l) return false;
    }
    p = q;
    return true;
  }
  /// Advances past a run of digits; false when there is none.
  bool EatDigits() {
    const char* q = p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    return p > q;
  }
  /// An integer that fits in int.
  bool EatInt(int* out) {
    const char* start = p;
    if (!EatDigits()) return false;
    long long v = 0;
    for (const char* q = start; q < p; ++q) {
      v = v * 10 + (*q - '0');
      if (v > INT_MAX) {
        p = start;
        return false;
      }
    }
    *out = static_cast<int>(v);
    return true;
  }
  /// A finite double.
  bool EatDouble(double* out) {
    const char* start = p;
    bool ok = EatDigits();
    if (ok && p < end && *p == '.') {
      ++p;
      ok = EatDigits();
    }
    if (ok && p < end && *p == 'e') {
      const char* exponent = p++;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      if (!EatDigits()) p = exponent;  // an `e` not followed by digits
    }
    const double v = ok ? std::strtod(std::string(start, p).c_str(), nullptr)
                        : 0.0;
    if (!ok || !std::isfinite(v)) {
      p = start;
      return false;
    }
    *out = v;
    return true;
  }
};

Status ClauseError(const std::string& clause, const char* what) {
  return Status::InvalidArgument("fault plan clause \"" + clause +
                                 "\": " + what);
}

// Parses the trailing `@eN[+F][xS][forD][nC]` tail shared by all kinds.
// Serve kinds spell the trigger `@r<round>` (same field, different
// clock) and use `x`/`for`/`n` per the header's table.
Status ParseTail(Cursor* c, const std::string& clause, FaultSpec* spec) {
  const bool serve = IsServeFault(spec->kind);
  if (serve) {
    if (!c->EatLiteral("@r")) {
      return ClauseError(clause, "expected @r<round>");
    }
  } else if (!c->EatLiteral("@e")) {
    return ClauseError(clause, "expected @e<epoch>");
  }
  if (!c->EatInt(&spec->epoch) || spec->epoch < 1) {
    return ClauseError(clause, serve
                                   ? "round must be a positive integer"
                                   : "epoch must be a positive integer");
  }
  if (c->EatLiteral("+")) {
    if (serve) {
      return ClauseError(clause, "+<fraction> only applies to @e kinds");
    }
    if (!c->EatDouble(&spec->at_fraction) || spec->at_fraction < 0.0 ||
        spec->at_fraction > 1.0) {
      return ClauseError(clause, "fraction must be in [0,1]");
    }
  }
  if (c->EatLiteral("x")) {
    if (spec->kind != FaultKind::kStraggler &&
        spec->kind != FaultKind::kQueryStorm &&
        spec->kind != FaultKind::kSlowShard) {
      return ClauseError(clause,
                         "x<factor> only applies to slow:/storm/slowshard:");
    }
    if (!c->EatDouble(&spec->slowdown) || spec->slowdown <= 1.0) {
      return ClauseError(clause, "slowdown must be a finite number > 1");
    }
  }
  if (c->EatLiteral("for")) {
    if (spec->kind != FaultKind::kStraggler &&
        spec->kind != FaultKind::kQueryStorm &&
        spec->kind != FaultKind::kSlowShard) {
      return ClauseError(
          clause, "for<duration> only applies to slow:/storm/slowshard:");
    }
    if (!c->EatDouble(&spec->duration) || spec->duration <= 0.0) {
      return ClauseError(clause, "duration must be a finite number > 0");
    }
  }
  if (c->EatLiteral("n")) {
    if (spec->kind != FaultKind::kLinkFault &&
        spec->kind != FaultKind::kWalIo &&
        spec->kind != FaultKind::kPublishPoison) {
      return ClauseError(clause,
                         "n<count> only applies to link:/walio/poison");
    }
    if (!c->EatInt(&spec->count) || spec->count < 1) {
      return ClauseError(clause, "count must be a positive integer");
    }
  }
  if (!c->AtEnd()) return ClauseError(clause, "trailing garbage");
  return Status::Ok();
}

Status ParseDevice(Cursor* c, const std::string& clause, FaultSpec* spec) {
  if (c->EatLiteral("gpu")) {
    spec->device_class = DeviceClass::kGpu;
  } else if (c->EatLiteral("cpu")) {
    spec->device_class = DeviceClass::kCpuThread;
  } else {
    return ClauseError(clause, "expected gpu<i> or cpu<i> target");
  }
  if (!c->EatInt(&spec->device_index) || spec->device_index < 0) {
    return ClauseError(clause, "device index must be an integer >= 0");
  }
  return Status::Ok();
}

StatusOr<FaultSpec> ParseClause(const std::string& clause) {
  Cursor c{clause.data(), clause.data() + clause.size()};
  FaultSpec spec;
  if (c.EatLiteral("crash:")) {
    HSGD_RETURN_IF_ERROR(ParseDevice(&c, clause, &spec));
    spec.kind = spec.device_class == DeviceClass::kGpu
                    ? FaultKind::kGpuCrash
                    : FaultKind::kCpuCrash;
  } else if (c.EatLiteral("slow:")) {
    spec.kind = FaultKind::kStraggler;
    HSGD_RETURN_IF_ERROR(ParseDevice(&c, clause, &spec));
  } else if (c.EatLiteral("link:")) {
    spec.kind = FaultKind::kLinkFault;
    HSGD_RETURN_IF_ERROR(ParseDevice(&c, clause, &spec));
    if (spec.device_class != DeviceClass::kGpu) {
      return ClauseError(clause, "link: targets a GPU's PCIe link");
    }
  } else if (c.EatLiteral("poison")) {
    spec.kind = FaultKind::kPublishPoison;
  } else if (c.EatLiteral("walio")) {
    spec.kind = FaultKind::kWalIo;
  } else if (c.EatLiteral("storm")) {
    spec.kind = FaultKind::kQueryStorm;
  } else if (c.EatLiteral("slowshard:")) {
    spec.kind = FaultKind::kSlowShard;
    spec.device_class = DeviceClass::kCpuThread;  // shard index, not a device
    if (!c.EatInt(&spec.device_index) || spec.device_index < 0) {
      return ClauseError(clause, "shard index must be an integer >= 0");
    }
  } else {
    return ClauseError(clause,
                       "unknown kind (crash:/slow:/link:/poison/"
                       "walio/storm/slowshard:)");
  }
  HSGD_RETURN_IF_ERROR(ParseTail(&c, clause, &spec));
  return spec;
}

// The shortest %g form that reads back as exactly `v`, so Parse gets
// every field of ToString's output back bit for bit.
std::string FormatDouble(double v) {
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void AppendFraction(std::string* out, double frac) {
  if (frac <= 0.0) return;
  *out += "+" + FormatDouble(frac);
}

// `x<factor>`, then `for<duration>` unless the window is permanent.
void AppendSlowdown(std::string* out, double slowdown, double duration) {
  *out += "x" + FormatDouble(slowdown);
  if (duration > 0.0) *out += "for" + FormatDouble(duration);
}

}  // namespace

bool IsServeFault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPublishPoison:
    case FaultKind::kWalIo:
    case FaultKind::kQueryStorm:
    case FaultKind::kSlowShard:
      return true;
    default:
      return false;
  }
}

std::string FaultSpec::ToString() const {
  std::string out;
  char buf[64];
  const char* dev =
      device_class == DeviceClass::kGpu ? "gpu" : "cpu";
  switch (kind) {
    case FaultKind::kGpuCrash:
    case FaultKind::kCpuCrash:
      std::snprintf(buf, sizeof(buf), "crash:%s%d@e%d", dev, device_index,
                    epoch);
      out = buf;
      AppendFraction(&out, at_fraction);
      break;
    case FaultKind::kStraggler:
      std::snprintf(buf, sizeof(buf), "slow:%s%d@e%d", dev, device_index,
                    epoch);
      out = buf;
      AppendFraction(&out, at_fraction);
      AppendSlowdown(&out, slowdown, duration);
      break;
    case FaultKind::kLinkFault:
      std::snprintf(buf, sizeof(buf), "link:gpu%d@e%d", device_index,
                    epoch);
      out = buf;
      AppendFraction(&out, at_fraction);
      std::snprintf(buf, sizeof(buf), "n%d", count);
      out += buf;
      break;
    case FaultKind::kPublishPoison:
      std::snprintf(buf, sizeof(buf), "poison@r%dn%d", epoch, count);
      out = buf;
      break;
    case FaultKind::kWalIo:
      std::snprintf(buf, sizeof(buf), "walio@r%dn%d", epoch, count);
      out = buf;
      break;
    case FaultKind::kQueryStorm:
      std::snprintf(buf, sizeof(buf), "storm@r%d", epoch);
      out = buf;
      AppendSlowdown(&out, slowdown, duration);
      break;
    case FaultKind::kSlowShard:
      std::snprintf(buf, sizeof(buf), "slowshard:%d@r%d", device_index,
                    epoch);
      out = buf;
      AppendSlowdown(&out, slowdown, duration);
      break;
  }
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& spec : specs) {
    if (!out.empty()) out += ";";
    out += spec.ToString();
  }
  return out;
}

StatusOr<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  size_t start = 0;
  while (start <= text.size()) {
    size_t sep = text.find(';', start);
    if (sep == std::string::npos) sep = text.size();
    size_t a = start, b = sep;
    while (a < b && std::isspace(static_cast<unsigned char>(text[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(text[b - 1]))) {
      --b;
    }
    if (b > a) {
      StatusOr<FaultSpec> spec = ParseClause(text.substr(a, b - a));
      if (!spec.ok()) return spec.status();
      plan.specs.push_back(spec.value());
    }
    start = sep + 1;
  }
  return plan;
}

}  // namespace hsgd
