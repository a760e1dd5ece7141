#include "reference.h"

#include <algorithm>
#include <charconv>

namespace perfbench {

const std::array<const char*, kDims> kDimNames = {
    "Month", "Date", "Weekday", "Hour", "Area", "Station", "Status",
    "DockGroup"};

const char* OpName(Op op) {
  switch (op) {
    case Op::kPoint: return "point";
    case Op::kAggregate: return "aggregate";
    case Op::kSlice: return "slice";
    case Op::kRollUp: return "rollup";
  }
  return "?";
}

namespace {

constexpr const char* kMonths[] = {
    "January", "February", "March",     "April",   "May",      "June",
    "July",    "August",   "September", "October", "November", "December"};
constexpr const char* kWeekdays[] = {"Monday", "Tuesday",  "Wednesday",
                                     "Thursday", "Friday", "Saturday",
                                     "Sunday"};

// Days since 1970-01-01 of a proleptic Gregorian date (H. Hinnant's
// days_from_civil).
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

bool ParseInt(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

std::string Unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out.push_back(text[i]);
      continue;
    }
    static constexpr std::pair<std::string_view, char> kEntities[] = {
        {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'},
        {"&apos;", '\''}};
    bool matched = false;
    for (const auto& [entity, c] : kEntities) {
      if (text.substr(i, entity.size()) == entity) {
        out.push_back(c);
        i += entity.size() - 1;
        matched = true;
        break;
      }
    }
    if (!matched) out.push_back('&');
  }
  return out;
}

// Text of the first <tag>...</tag> inside \p record, or false.
bool Field(std::string_view record, std::string_view tag, std::string* out) {
  std::string open = "<" + std::string(tag) + ">";
  std::string close = "</" + std::string(tag) + ">";
  size_t begin = record.find(open);
  if (begin == std::string_view::npos) return false;
  begin += open.size();
  size_t end = record.find(close, begin);
  if (end == std::string_view::npos) return false;
  *out = Unescape(record.substr(begin, end - begin));
  return true;
}

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out->append("\\u00");
      out->push_back(kHex[(c >> 4) & 0xf]);
      out->push_back(kHex[c & 0xf]);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

bool PredMatches(const Pred& pred, const std::string& value) {
  switch (pred.kind) {
    case Pred::kAll: return true;
    case Pred::kPoint: return value == pred.lo;
    case Pred::kRange: return pred.lo <= value && value <= pred.hi;
    case Pred::kSet:
      return std::find(pred.set.begin(), pred.set.end(), value) !=
             pred.set.end();
  }
  return false;
}

std::string JoinKeys(const Keys& keys) {
  std::string joined;
  for (const std::string& key : keys) {
    joined += key;
    joined.push_back('\x1f');
  }
  return joined;
}

}  // namespace

bool ScanDocument(std::string_view document, std::vector<Tuple>* out,
                  std::string* error) {
  static constexpr std::string_view kOpen = "<station>";
  static constexpr std::string_view kClose = "</station>";
  size_t pos = 0;
  while ((pos = document.find(kOpen, pos)) != std::string_view::npos) {
    size_t end = document.find(kClose, pos);
    if (end == std::string_view::npos) {
      *error = "unterminated <station> record";
      return false;
    }
    std::string_view record = document.substr(pos, end - pos);
    pos = end + kClose.size();

    std::string name, area, stands, bikes, status, stamp;
    if (!Field(record, "name", &name) || !Field(record, "area", &area) ||
        !Field(record, "bike_stands", &stands) ||
        !Field(record, "available_bikes", &bikes) ||
        !Field(record, "last_update", &stamp)) {
      *error = "record lacks a required field";
      return false;
    }
    if (!Field(record, "status", &status)) status = "UNKNOWN";

    // "YYYY-MM-DDTHH:MM:SS"
    int64_t year = 0, month = 0, day = 0, hour = 0, capacity = 0, measure = 0;
    if (stamp.size() < 13 || !ParseInt(std::string_view(stamp).substr(0, 4), &year) ||
        !ParseInt(std::string_view(stamp).substr(5, 2), &month) ||
        !ParseInt(std::string_view(stamp).substr(8, 2), &day) ||
        !ParseInt(std::string_view(stamp).substr(11, 2), &hour) ||
        month < 1 || month > 12 || !ParseInt(stands, &capacity) ||
        capacity < 0 || !ParseInt(bikes, &measure)) {
      *error = "malformed value in record";
      return false;
    }
    // 1970-01-01 was a Thursday (index 3 with Monday = 0).
    int64_t days = DaysFromCivil(year, static_cast<unsigned>(month),
                                 static_cast<unsigned>(day));
    int64_t weekday = ((days % 7) + 7 + 3) % 7;
    int64_t bucket = capacity / 10 * 10;

    Tuple tuple;
    tuple.keys = {kMonths[month - 1], stamp.substr(0, 10), kWeekdays[weekday],
                  stamp.substr(11, 2), std::move(area), std::move(name),
                  std::move(status),
                  std::to_string(bucket) + "-" + std::to_string(bucket + 9)};
    tuple.measure = measure;
    out->push_back(std::move(tuple));
  }
  return true;
}

bool Matches(const Query& query, const Keys& keys) {
  for (size_t d = 0; d < kDims; ++d) {
    if (!PredMatches(query.preds[d], keys[d])) return false;
  }
  return true;
}

std::string ToJson(const Query& query) {
  std::string out = "{\"op\":\"";
  out += OpName(query.op);
  out += "\"";
  switch (query.op) {
    case Op::kPoint:
      out += ",\"keys\":[";
      for (size_t d = 0; d < kDims; ++d) {
        if (d > 0) out.push_back(',');
        if (query.preds[d].kind == Pred::kPoint) {
          AppendJsonString(query.preds[d].lo, &out);
        } else {
          out += "null";
        }
      }
      out += "]";
      break;
    case Op::kAggregate:
      out += ",\"predicates\":[";
      for (size_t d = 0; d < kDims; ++d) {
        const Pred& pred = query.preds[d];
        if (d > 0) out.push_back(',');
        switch (pred.kind) {
          case Pred::kAll: out += "{\"kind\":\"all\"}"; break;
          case Pred::kPoint:
            out += "{\"kind\":\"point\",\"key\":";
            AppendJsonString(pred.lo, &out);
            out += "}";
            break;
          case Pred::kRange:
            out += "{\"kind\":\"range\",\"lo\":";
            AppendJsonString(pred.lo, &out);
            out += ",\"hi\":";
            AppendJsonString(pred.hi, &out);
            out += "}";
            break;
          case Pred::kSet:
            out += "{\"kind\":\"set\",\"keys\":[";
            for (size_t i = 0; i < pred.set.size(); ++i) {
              if (i > 0) out.push_back(',');
              AppendJsonString(pred.set[i], &out);
            }
            out += "]}";
            break;
        }
      }
      out += "]";
      break;
    case Op::kSlice:
      out += ",\"dim\":";
      AppendJsonString(kDimNames[query.slice_dim], &out);
      out += ",\"key\":";
      AppendJsonString(query.slice_key, &out);
      break;
    case Op::kRollUp:
      out += ",\"dims\":[";
      for (size_t i = 0; i < query.group.size(); ++i) {
        if (i > 0) out.push_back(',');
        AppendJsonString(kDimNames[query.group[i]], &out);
      }
      out += "]";
      if (query.window_dim >= 0) {
        out += ",\"where\":[{\"dim\":";
        AppendJsonString(kDimNames[query.window_dim], &out);
        out += ",\"lo\":";
        AppendJsonString(query.window_lo, &out);
        out += ",\"hi\":";
        AppendJsonString(query.window_hi, &out);
        out += "}]";
      }
      break;
  }
  out += "}";
  return out;
}

void Reference::Add(const Tuple& tuple) {
  total_ += tuple.measure;
  auto [it, inserted] = slot_.try_emplace(JoinKeys(tuple.keys), base_.size());
  if (inserted) {
    base_.push_back(tuple);
  } else {
    base_[it->second].measure += tuple.measure;
  }
}

void Reference::Finish() {
  slot_.clear();
  std::sort(base_.begin(), base_.end(),
            [](const Tuple& a, const Tuple& b) { return a.keys < b.keys; });
  for (size_t d = 0; d < kDims; ++d) {
    postings_[d].clear();
    for (uint32_t i = 0; i < base_.size(); ++i) {
      postings_[d][base_[i].keys[d]].push_back(i);
    }
    values_[d].clear();
    for (const auto& [value, list] : postings_[d]) values_[d].push_back(value);
    std::sort(values_[d].begin(), values_[d].end());
  }
  ids_.assign(base_.size(), {});
  for (size_t d = 0; d < kDims; ++d) {
    for (uint16_t id = 0; id < values_[d].size(); ++id) {
      for (uint32_t i : postings_[d][values_[d][id]]) ids_[i][d] = id;
    }
  }
}

const std::vector<uint32_t>* Reference::Postings(
    size_t dim, const std::string& value) const {
  auto it = postings_[dim].find(value);
  static const std::vector<uint32_t> kEmpty;
  return it == postings_[dim].end() ? &kEmpty : &it->second;
}

std::vector<uint32_t> Reference::Candidates(const Query& query) const {
  // The tuples holding one of \p dim's admissible values; every tuple
  // outside them fails that dimension's predicate. The narrowest such
  // dimension is used.
  size_t best_dim = kDims;
  size_t best_size = base_.size();
  std::vector<std::string> best_values;
  auto consider = [&](size_t dim, std::vector<std::string> admissible) {
    size_t size = 0;
    for (const std::string& value : admissible) size += Postings(dim, value)->size();
    if (best_dim == kDims || size < best_size) {
      best_dim = dim;
      best_size = size;
      best_values = std::move(admissible);
    }
  };
  auto in_range = [&](size_t dim, const std::string& lo, const std::string& hi) {
    std::vector<std::string> hit;
    for (const std::string& value : values_[dim]) {
      if (lo <= value && value <= hi) hit.push_back(value);
    }
    return hit;
  };
  if (query.op == Op::kSlice) {
    consider(query.slice_dim, {query.slice_key});
  } else if (query.op == Op::kRollUp) {
    if (query.window_dim >= 0) {
      consider(query.window_dim,
               in_range(query.window_dim, query.window_lo, query.window_hi));
    }
  } else {
    for (size_t d = 0; d < kDims; ++d) {
      const Pred& pred = query.preds[d];
      if (pred.kind == Pred::kPoint) consider(d, {pred.lo});
      if (pred.kind == Pred::kSet) consider(d, pred.set);
      if (pred.kind == Pred::kRange) consider(d, in_range(d, pred.lo, pred.hi));
    }
  }
  std::vector<uint32_t> out;
  if (best_dim == kDims) {
    out.resize(base_.size());
    for (uint32_t i = 0; i < base_.size(); ++i) out[i] = i;
    return out;
  }
  std::sort(best_values.begin(), best_values.end());
  best_values.erase(std::unique(best_values.begin(), best_values.end()),
                    best_values.end());
  out.reserve(best_size);
  for (const std::string& value : best_values) {
    const std::vector<uint32_t>* list = Postings(best_dim, value);
    out.insert(out.end(), list->begin(), list->end());
  }
  return out;
}

bool Reference::Measure(const Query& query, int64_t* sum) const {
  // Each constrained dimension's predicate as a table over its value ids.
  std::vector<std::pair<size_t, std::vector<char>>> allowed;
  for (size_t d = 0; d < kDims; ++d) {
    if (query.preds[d].kind == Pred::kAll) continue;
    std::vector<char> table(values_[d].size());
    for (size_t id = 0; id < values_[d].size(); ++id) {
      table[id] = PredMatches(query.preds[d], values_[d][id]);
    }
    allowed.emplace_back(d, std::move(table));
  }
  int64_t total = 0;
  bool any = false;
  for (uint32_t i : Candidates(query)) {
    bool match = true;
    for (const auto& [d, table] : allowed) {
      if (!table[ids_[i][d]]) {
        match = false;
        break;
      }
    }
    if (match) {
      total += base_[i].measure;
      any = true;
    }
  }
  *sum = total;
  return any;
}

std::vector<Row> Reference::Rows(const Query& query) const {
  std::vector<Row> rows;
  if (query.op == Op::kSlice) {
    // Base tuples are distinct, so every matching tuple is one row.
    for (uint32_t i : Candidates(query)) {
      const Keys& keys = base_[i].keys;
      if (keys[query.slice_dim] != query.slice_key) continue;
      Row row;
      for (size_t d = 0; d < kDims; ++d) {
        if (d != query.slice_dim) row.keys.push_back(keys[d]);
      }
      row.measure = base_[i].measure;
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
  // Roll-up: group on the value ids of up to four dimensions packed into one
  // 64-bit key; ids follow value order, so the window is an id range.
  if (query.group.empty() || query.group.size() > 4) return rows;
  uint16_t lo = 0, hi = UINT16_MAX;
  if (query.window_dim >= 0) {
    const std::vector<std::string>& vals = values_[query.window_dim];
    lo = static_cast<uint16_t>(
        std::lower_bound(vals.begin(), vals.end(), query.window_lo) - vals.begin());
    size_t past = static_cast<size_t>(
        std::upper_bound(vals.begin(), vals.end(), query.window_hi) - vals.begin());
    if (past <= lo) return rows;
    hi = static_cast<uint16_t>(past - 1);
  }
  std::unordered_map<uint64_t, int64_t> groups;
  for (uint32_t i : Candidates(query)) {
    const std::array<uint16_t, kDims>& ids = ids_[i];
    if (query.window_dim >= 0 &&
        (ids[query.window_dim] < lo || ids[query.window_dim] > hi)) {
      continue;
    }
    uint64_t key = 0;
    for (size_t g = 0; g < query.group.size(); ++g) {
      key |= static_cast<uint64_t>(ids[query.group[g]]) << (16 * g);
    }
    groups[key] += base_[i].measure;
  }
  rows.reserve(groups.size());
  for (const auto& [key, measure] : groups) {
    Row row;
    for (size_t g = 0; g < query.group.size(); ++g) {
      row.keys.push_back(values_[query.group[g]][(key >> (16 * g)) & 0xffff]);
    }
    row.measure = measure;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<Row> Reference::BaseRows() const {
  std::vector<Row> rows;
  rows.reserve(base_.size());
  for (const Tuple& tuple : base_) {
    rows.push_back({std::vector<std::string>(tuple.keys.begin(),
                                             tuple.keys.end()),
                    tuple.measure});
  }
  return rows;  // base_ is sorted by keys
}

int64_t SumMatching(const Query& query, const std::vector<Tuple>& tuples) {
  int64_t sum = 0;
  for (const Tuple& tuple : tuples) {
    if (Matches(query, tuple.keys)) sum += tuple.measure;
  }
  return sum;
}

}  // namespace perfbench
