#include "obs/json_check.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <utility>
#include <vector>

namespace jitfd::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool parse(JsonValue& out, std::string& err) {
    skip_ws();
    if (!value(out, err)) {
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      err = at("trailing characters after JSON value");
      return false;
    }
    return true;
  }

 private:
  std::string at(const std::string& msg) const {
    return msg + " (offset " + std::to_string(pos_) + ")";
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool value(JsonValue& out, std::string& err) {
    if (pos_ >= s_.size()) {
      err = at("unexpected end of input");
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return object(out, err);
      case '[':
        return array(out, err);
      case '"':
        out.type = JsonValue::Type::Str;
        return string(out.str, err);
      case 't':
        if (literal("true")) {
          out.type = JsonValue::Type::Bool;
          out.boolean = true;
          return true;
        }
        break;
      case 'f':
        if (literal("false")) {
          out.type = JsonValue::Type::Bool;
          out.boolean = false;
          return true;
        }
        break;
      case 'n':
        if (literal("null")) {
          out.type = JsonValue::Type::Null;
          return true;
        }
        break;
      default:
        return number(out, err);
    }
    err = at("invalid token");
    return false;
  }

  bool number(JsonValue& out, std::string& err) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      err = at("invalid number");
      return false;
    }
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err = at("invalid fraction");
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= s_.size() ||
          !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        err = at("invalid exponent");
        return false;
      }
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    out.type = JsonValue::Type::Num;
    out.num = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(),
                          nullptr);
    return true;
  }

  bool string(std::string& out, std::string& err) {
    ++pos_;  // Opening quote.
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        err = at("unescaped control character in string");
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          break;
        }
        // Single-character escapes, then \uXXXX (decoded to UTF-8).
        constexpr std::string_view kFrom = "\"\\/bfnrt";
        constexpr std::string_view kTo = "\"\\/\b\f\n\r\t";
        const char* hex = s_.data() + pos_ + 1;
        unsigned cp = 0;
        if (const std::size_t k = kFrom.find(s_[pos_]); k != kFrom.npos) {
          out += kTo[k];
        } else if (s_[pos_] != 'u') {
          err = at("invalid escape");
          return false;
        } else if (pos_ + 4 >= s_.size() ||
                   std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
          err = at("invalid \\u escape");
          return false;
        } else {
          append_utf8(out, cp);
          pos_ += 4;
        }
        ++pos_;
        continue;
      }
      out += c;
      ++pos_;
    }
    err = at("unterminated string");
    return false;
  }

  // UTF-8 of one \u code unit (surrogates are encoded as they come).
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool array(JsonValue& out, std::string& err) {
    out.type = JsonValue::Type::Arr;
    ++pos_;  // '['.
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!value(v, err)) {
        return false;
      }
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) {
        err = at("unterminated array");
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      err = at("expected ',' or ']'");
      return false;
    }
  }

  bool object(JsonValue& out, std::string& err) {
    out.type = JsonValue::Type::Obj;
    ++pos_;  // '{'.
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        err = at("expected object key");
        return false;
      }
      std::string key;
      if (!string(key, err)) {
        return false;
      }
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        err = at("expected ':'");
        return false;
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v, err)) {
        return false;
      }
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) {
        err = at("unterminated object");
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      err = at("expected ',' or '}'");
      return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_parse(std::string_view json, JsonValue& out, std::string* error) {
  std::string err;
  const bool ok = Parser(json).parse(out, err);
  if (!ok && error != nullptr) {
    *error = err;
  }
  return ok;
}

bool json_valid(std::string_view json, std::string* error) {
  JsonValue root;
  return json_parse(json, root, error);
}

namespace {

// --- Table-driven schemas ---------------------------------------------
//
// Every document is a tree of tables: per field its key, type, whether
// it is required, the table of its members (objects) or of each row
// (arrays), and an optional named value rule. One checker walks them
// all and reports the first violation.

enum class Kind { Num, Str, NonEmptyStr, Bool, Obj, Arr, NumOrNull, Any };

const char* const kKindName[] = {"numeric", "string", "non-empty string",
                                 "boolean", "object", "array",
                                 "numeric-or-null", "value"};

bool has_kind(const JsonValue& v, Kind k) {
  using T = JsonValue::Type;
  switch (k) {
    case Kind::Num: return v.type == T::Num;
    case Kind::Str: return v.type == T::Str;
    case Kind::NonEmptyStr: return v.type == T::Str && !v.str.empty();
    case Kind::Bool: return v.type == T::Bool;
    case Kind::Obj: return v.type == T::Obj;
    case Kind::Arr: return v.type == T::Arr;
    case Kind::NumOrNull: return v.type == T::Num || v.type == T::Null;
    case Kind::Any: return true;
  }
  return false;
}

/// A named value rule: "" when `v` passes, else what is wrong with it.
using Rule = std::string (*)(const JsonValue& v);

struct Schema;

struct Field {
  const char* key;
  Kind kind = Kind::Num;
  bool required = true;
  const Schema* nested = nullptr;  ///< Obj: its members; Arr: each row.
  Rule rule = nullptr;
};

struct Schema {
  const char* where;  ///< Name of one such object in error messages.
  std::vector<Field> fields;
  Rule rule = nullptr;  ///< Whole-object rule, run after the fields.
};

/// Required numeric fields `keys`, then `more`.
std::vector<Field> nums(std::initializer_list<const char*> keys,
                        std::vector<Field> more = {}) {
  std::vector<Field> out;
  for (const char* key : keys) {
    out.push_back({key});
  }
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

std::string check(const JsonValue& v, const Schema& s,
                  const std::string& where);

/// Check the members (object) or each row (array) of `m`.
std::string check_nested(const JsonValue& m, const Schema& nested) {
  if (m.type == JsonValue::Type::Obj) {
    return check(m, nested, nested.where);
  }
  for (const JsonValue& row : m.arr) {
    if (std::string err = check(row, nested, nested.where); !err.empty()) {
      return err;
    }
  }
  return {};
}

std::string check(const JsonValue& v, const Schema& s,
                  const std::string& where) {
  if (v.type != JsonValue::Type::Obj) {
    return where + " is not an object";
  }
  for (const Field& f : s.fields) {
    const JsonValue* m = v.find(f.key);
    if (m == nullptr && !f.required) {
      continue;
    }
    const std::string key = std::string("\"") + f.key + "\"";
    if (m == nullptr || !has_kind(*m, f.kind)) {
      return where + " missing " + kKindName[static_cast<int>(f.kind)] +
             " " + key;
    }
    if (std::string err = f.nested ? check_nested(*m, *f.nested) : "";
        !err.empty()) {
      return err;
    }
    if (std::string err = f.rule ? f.rule(*m) : ""; !err.empty()) {
      return where + " " + key + " " + err;
    }
  }
  return s.rule != nullptr ? s.rule(v) : std::string();
}

// Named value rules.

std::string all_numeric(const JsonValue& v) {
  for (const JsonValue& e : v.arr) {
    if (e.type != JsonValue::Type::Num) {
      return "has a non-numeric entry";
    }
  }
  return {};
}

// Event pairs: a NaN/Inf value exports as null.
std::string numeric_or_null_members(const JsonValue& v) {
  for (const auto& [k, e] : v.obj) {
    if (!has_kind(e, Kind::NumOrNull)) {
      return "entry \"" + k + "\" is not numeric";
    }
  }
  return {};
}

std::string unit_interval(const JsonValue& v) {
  return v.num >= 0.0 && v.num <= 1.0 ? "" : "outside [0, 1]";
}

std::string non_negative(const JsonValue& v) {
  return v.num >= 0.0 ? "" : "is negative";
}

std::string schema_version_1(const JsonValue& v) {
  return v.num == 1.0 ? "" : "is not schema_version 1";
}

std::string monotone_bucket_counts(const JsonValue& buckets) {
  double prev = -1.0;
  for (const JsonValue& b : buckets.arr) {
    if (b.find("count")->num < prev) {
      return "has non-monotone bucket counts";
    }
    prev = b.find("count")->num;
  }
  return {};
}

std::string objective_enum(const JsonValue& v) {
  return v.str == "wall" || v.str == "attributed"
             ? ""
             : "must be \"wall\" or \"attributed\"";
}

// Chrome trace events: metadata ("M") events carry no timestamps,
// complete ("X") events also a duration.
const Schema kTimedEvent{
    "trace event",
    nums({"pid", "tid"}, {{"ts", Kind::Num, true, nullptr, non_negative}})};
const Schema kCompleteEvent{"trace event",
                            {{"dur", Kind::Num, true, nullptr, non_negative}}};

std::string timed_event(const JsonValue& ev) {
  const std::string& ph = ev.find("ph")->str;
  std::string err = ph == "M" ? "" : check(ev, kTimedEvent, "trace event");
  return err.empty() && ph == "X" ? check(ev, kCompleteEvent, "trace event")
                                  : err;
}

const Schema kTraceEvent{"trace event",
                         {{"name", Kind::Str}, {"ph", Kind::NonEmptyStr}},
                         timed_event};
const Schema kChromeDoc{"document",
                        {{"traceEvents", Kind::Arr, true, &kTraceEvent}}};

// Metrics: the value fields depend on the instrument type.
const Schema kBucket{"histogram bucket", {{"le", Kind::Any}, {"count"}}};
const Schema kScalarMetric{"metric", nums({"value"})};
const Schema kHistogram{
    "metric",
    nums({"count", "sum"}, {{"buckets", Kind::Arr, true, &kBucket,
                             monotone_bucket_counts}})};

std::string metric_by_type(const JsonValue& m) {
  const std::string where = "metric \"" + m.find("name")->str + "\"";
  const std::string& type = m.find("type")->str;
  if (type == "counter" || type == "gauge") {
    return check(m, kScalarMetric, where);
  }
  return type == "histogram" ? check(m, kHistogram, where)
                             : where + " has unknown type \"" + type + "\"";
}

const Schema kMetric{"metrics entry",
                     {{"name", Kind::NonEmptyStr}, {"type", Kind::Str}},
                     metric_by_type};
const Schema kMetricsDoc{"document", {{"metrics", Kind::Arr, true, &kMetric}}};

// Cross-rank analysis.
const Schema kWaitRank{"wait rank row",
                       nums({"rank", "wait_seconds", "late_sender_seconds",
                             "late_receiver_seconds", "blamed_seconds"})};
const Schema kWait{
    "\"wait\"",
    nums({"late_sender_seconds", "late_receiver_seconds", "transfer_seconds",
          "matched", "unmatched", "culprit_rank", "rendezvous_messages",
          "queued_messages"},
         {{"ranks", Kind::Arr, true, &kWaitRank}})};
const Schema kOverlap{
    "\"overlap\"",
    nums({"async_exchanges", "window_seconds", "hidden_seconds"},
         {{"efficiency", Kind::Num, true, nullptr, unit_interval}})};
const Schema kRankLoad{"imbalance rank row",
                       nums({"rank", "compute_seconds"})};
const Schema kStepLoad{"imbalance step row",
                       nums({"step", "max", "mean", "critical_rank"})};
const Schema kImbalance{
    "\"imbalance\"",
    nums({"max_compute_seconds", "mean_compute_seconds", "ratio",
          "critical_rank"},
         {{"ranks", Kind::Arr, true, &kRankLoad},
          {"steps", Kind::Arr, true, &kStepLoad}})};
const Schema kDeepHalo{"\"deep_halo\"",
                       nums({"exchanges", "saved_exchanges",
                             "redundant_compute_seconds"})};
const Schema kAnalysis{
    "\"analysis\"",
    nums({"nranks", "steps", "strips", "exchange_depth", "wall_seconds"},
         {{"wait", Kind::Obj, true, &kWait},
          {"overlap", Kind::Obj, true, &kOverlap},
          {"imbalance", Kind::Obj, true, &kImbalance},
          {"deep_halo", Kind::Obj, true, &kDeepHalo}})};
const Schema kAnalysisDoc{"document",
                          {{"analysis", Kind::Obj, true, &kAnalysis}}};

// Autotune report. Rows share the (mode, depth, tile) key of "best".
std::vector<Field> trial_key(std::vector<Field> more) {
  more.insert(more.begin(), {{"mode", Kind::NonEmptyStr},
                             {"depth"},
                             {"tile", Kind::Arr, true, nullptr, all_numeric}});
  return more;
}

const Schema kTrialKey{"\"best\"", trial_key({})};
const Schema kTrial{"trial row", trial_key({{"seconds"}})};
const Schema kSkipped{"skipped row",
                      trial_key({{"reason", Kind::NonEmptyStr}})};
const Schema kScore{
    "trial score",
    nums({"wait_seconds", "imbalance_ratio", "critical_rank",
          "redundant_seconds", "imbalance_penalty_seconds",
          "attributed_cost_seconds"},
         {{"overlap_efficiency", Kind::Num, true, nullptr, unit_interval}})};
const Schema kScoredTrial{"trial row", {{"score", Kind::Obj, true, &kScore}}};
const Schema kRebalance{"\"rebalance\"",
                        nums({"rank", "threshold"},
                             {{"recommended", Kind::Bool}})};

// Only the attributed objective scores its trials.
std::string attributed_scores(const JsonValue& a) {
  return a.find("objective")->str == "attributed"
             ? check_nested(*a.find("trials"), kScoredTrial)
             : "";
}

const Schema kAutotune{
    "\"autotune\"",
    {{"objective", Kind::Str, true, nullptr, objective_enum},
     {"why", Kind::NonEmptyStr},
     {"best", Kind::Obj, true, &kTrialKey},
     {"rebalance", Kind::Obj, true, &kRebalance},
     {"trials", Kind::Arr, true, &kTrial},
     {"skipped", Kind::Arr, true, &kSkipped}},
    attributed_scores};
const Schema kAutotuneDoc{"document",
                          {{"autotune", Kind::Obj, true, &kAutotune}}};

// Events document (also embedded in the flight bundle).
const Schema kEvent{"event",
                    nums({"rank", "step", "t_ns"},
                         {{"name", Kind::NonEmptyStr},
                          {"cat", Kind::NonEmptyStr},
                          {"kv", Kind::Obj, true, nullptr,
                           numeric_or_null_members}})};
const Schema kEventsDoc{"events document",
                        {{"events", Kind::Arr, true, &kEvent}, {"dropped"}}};

// Flight-recorder bundle. Health min/max/l2 are null when no finite
// point exists.
const Schema kHealthRow{
    "health sample",
    nums({"step", "field_id", "nan", "inf", "bad_rank"},
         {{"field", Kind::Str},
          {"min", Kind::NumOrNull},
          {"max", Kind::NumOrNull},
          {"l2", Kind::NumOrNull}})};
const Schema kStepRow{"steps row", nums({"rank", "step"})};
const Schema kTraceRow{"trace row",
                       nums({"rank", "t0_ns", "t1_ns"}, {{"name", Kind::Str}})};
const Schema kFlight{
    "\"flight\"",
    nums({"rank", "step"},
         {{"schema_version", Kind::Num, true, nullptr, schema_version_1},
          {"reason", Kind::Str},
          {"detail", Kind::Str},
          {"config", Kind::Obj},
          {"health", Kind::Arr, true, &kHealthRow},
          {"steps", Kind::Arr, true, &kStepRow},
          {"events", Kind::Obj, true, &kEventsDoc},
          {"trace", Kind::Arr, true, &kTraceRow},
          {"metrics", Kind::Obj}})};
const Schema kFlightDoc{"document", {{"flight", Kind::Obj, true, &kFlight}}};

// Bench reports (bench/bench_util.h series_json), read by obs/sentinel:
// every extra numeric field of a series is a counter.
const Schema kDriftGate{"drift gate", nums({"value", "band"})};

std::string drift_gates(const JsonValue& drift) {
  for (const auto& [metric, gate] : drift.obj) {
    const std::string where = "drift metric \"" + metric + "\"";
    if (std::string err = check(gate, kDriftGate, where); !err.empty()) {
      return err;
    }
  }
  return {};
}

const Schema kSeries{"series entry",
                     {{"name", Kind::Str},
                      {"median_seconds"},
                      {"spread_pct", Kind::Num, false},
                      {"drift", Kind::Obj, false, nullptr, drift_gates}}};
const Schema kSeriesDoc{"document", {{"series", Kind::Arr, true, &kSeries}}};

/// Check `json` against `schema` (parsing into `doc` when given); items
/// counts the rows of the array at `path`, or the sections (object
/// members) when it is an object.
SchemaCheck schema_check(std::string_view json, const Schema& schema,
                         std::initializer_list<const char*> path,
                         JsonValue* doc = nullptr) {
  SchemaCheck out;
  JsonValue local;
  JsonValue& root = doc != nullptr ? *doc : local;
  if (json_parse(json, root, &out.error)) {
    out.error = check(root, schema, schema.where);
  }
  if (!out.error.empty()) {
    return out;
  }
  const JsonValue* v = &root;
  for (const char* key : path) {
    v = v->find(key);
  }
  out.items = static_cast<std::int64_t>(v->arr.size());
  for (const auto& [k, section] : v->obj) {
    out.items += section.type == JsonValue::Type::Obj ? 1 : 0;
  }
  out.ok = true;
  return out;
}

}  // namespace

ChromeCheck validate_chrome_trace(std::string_view json) {
  ChromeCheck out;
  JsonValue root;
  out.error = schema_check(json, kChromeDoc, {"traceEvents"}, &root).error;
  if (!out.error.empty()) {
    return out;
  }
  for (const JsonValue& ev : root.find("traceEvents")->arr) {
    const std::string& ph = ev.find("ph")->str;
    if (ph != "M") {
      out.complete += ph == "X" ? 1 : 0;
      out.instants += ph == "i" ? 1 : 0;
      ++out.events;
      out.tids.insert(static_cast<int>(ev.find("tid")->num));
    }
  }
  out.ok = true;
  return out;
}

SchemaCheck validate_metrics_json(std::string_view json) {
  return schema_check(json, kMetricsDoc, {"metrics"});
}

SchemaCheck validate_analysis_json(std::string_view json) {
  return schema_check(json, kAnalysisDoc, {"analysis"});
}

SchemaCheck validate_autotune_json(std::string_view json) {
  return schema_check(json, kAutotuneDoc, {"autotune", "trials"});
}

SchemaCheck validate_events_json(std::string_view json) {
  return schema_check(json, kEventsDoc, {"events"});
}

SchemaCheck validate_series_json(std::string_view json, JsonValue* doc) {
  return schema_check(json, kSeriesDoc, {"series"}, doc);
}

FlightCheck validate_flight_json(std::string_view json) {
  FlightCheck out;
  JsonValue root;
  out.error = schema_check(json, kFlightDoc, {"flight"}, &root).error;
  if (!out.error.empty()) {
    return out;
  }
  const JsonValue& f = *root.find("flight");
  out.rank = static_cast<int>(f.find("rank")->num);
  out.step = static_cast<std::int64_t>(f.find("step")->num);
  out.reason = f.find("reason")->str;
  out.health_samples = static_cast<std::int64_t>(f.find("health")->arr.size());
  out.ok = true;
  return out;
}

PromCheck validate_prometheus_text(std::string_view text) {
  PromCheck out;
  std::string last_help;   // Family named by the most recent # HELP.
  std::string family;      // Family announced by the most recent # TYPE.
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    const std::string at = " (line " + std::to_string(lineno) + ")";
    if (line.empty()) {
      continue;
    }
    auto second_word = [&line](std::size_t from) {
      const std::size_t sp = line.find(' ', from);
      return sp == std::string_view::npos
                 ? std::make_pair(line.substr(from), std::string_view{})
                 : std::make_pair(line.substr(from, sp - from),
                                  line.substr(sp + 1));
    };
    if (line.rfind("# HELP ", 0) == 0) {
      const auto [name, rest] = second_word(7);
      if (name.empty()) {
        out.error = "# HELP without a metric name" + at;
        return out;
      }
      last_help = std::string(name);
      ++out.helps;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto [name, kind] = second_word(7);
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        out.error = "# TYPE " + std::string(name) + " has unknown kind \"" +
                    std::string(kind) + "\"" + at;
        return out;
      }
      if (last_help != name) {
        out.error = "# TYPE " + std::string(name) +
                    " not preceded by its # HELP line" + at;
        return out;
      }
      family = std::string(name);
      ++out.types;
      continue;
    }
    if (line[0] == '#') {
      continue;  // Other comments are legal and unchecked.
    }
    // Sample line: <name>[{labels}] <number>.
    const std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string_view::npos) {
      out.error = "sample line without a value" + at;
      return out;
    }
    const std::string_view name = line.substr(0, name_end);
    if (family.empty() || name.rfind(family, 0) != 0) {
      out.error = "sample \"" + std::string(name) +
                  "\" outside its # TYPE family" + at;
      return out;
    }
    const std::size_t sp = line.rfind(' ');
    const std::string value(line.substr(sp + 1));
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    const bool inf = value == "+Inf" || value == "-Inf" || value == "NaN";
    if (!inf && (end == value.c_str() || *end != '\0')) {
      out.error = "sample \"" + std::string(name) +
                  "\" has unparseable value \"" + value + "\"" + at;
      return out;
    }
    ++out.samples;
  }
  if (out.types == 0) {
    out.error = "no # TYPE lines found";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace jitfd::obs
