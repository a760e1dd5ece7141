#include "checks.h"

#include <algorithm>
#include <charconv>
#include <cstring>

#include "dwarf/update.h"

namespace perfbench {

namespace {

bool ReadU32(std::string_view in, size_t* pos, uint32_t* out) {
  if (in.size() - *pos < 4) return false;
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[*pos + i]);
  }
  *pos += 4;
  *out = v;
  return true;
}

bool ReadU64(std::string_view in, size_t* pos, uint64_t* out) {
  if (in.size() - *pos < 8) return false;
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(in[*pos + i]);
  }
  *pos += 8;
  *out = v;
  return true;
}

std::string RowText(const Row& row) {
  std::string text = "[";
  for (size_t i = 0; i < row.keys.size(); ++i) {
    if (i > 0) text += ",";
    text += row.keys[i];
  }
  return text + "]=" + std::to_string(row.measure);
}

constexpr unsigned char kMagic = 0xB1;

// A small parser for the response shapes of docs/WIRE_PROTOCOL.md §4: the
// envelope, `measure`, `cursor`, `done` and `rows`; other fields are
// skipped. The benchmark's own, so that answers are not decoded by the
// program's json module.
class ResponseParser {
 public:
  explicit ResponseParser(std::string_view in) : in_(in) {}

  bool Parse(Answer* out, bool* ok_field, bool* epoch_field,
             bool* cached_field) {
    if (!Expect('{')) return false;
    if (Peek('}')) return ++pos_, true;
    do {
      std::string key;
      if (!String(&key) || !Expect(':')) return false;
      if (key == "ok") {
        if (!Bool(&out->ok)) return false;
        *ok_field = true;
      } else if (key == "epoch") {
        int64_t epoch = 0;
        if (!Int(&epoch) || epoch < 0) return false;
        out->epoch = static_cast<uint64_t>(epoch);
        *epoch_field = true;
      } else if (key == "cached") {
        if (!Bool(&out->cached)) return false;
        *cached_field = true;
      } else if (key == "measure") {
        if (!Int(&out->measure)) return false;
        out->has_measure = true;
      } else if (key == "cursor") {
        int64_t cursor = 0;
        if (!Int(&cursor) || cursor < 0) return false;
        out->cursor = static_cast<uint64_t>(cursor);
      } else if (key == "done") {
        if (!Bool(&out->done)) return false;
      } else if (key == "rows") {
        if (!Rows(&out->rows)) return false;
        out->has_rows = true;
      } else if (!Skip()) {
        return false;
      }
    } while (Comma());
    return Expect('}') && AtEnd();
  }

 private:
  void Space() {
    while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\n' ||
                                 in_[pos_] == '\t' || in_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    Space();
    return pos_ < in_.size() && in_[pos_] == c;
  }
  bool Expect(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }
  bool Comma() { return Expect(','); }
  bool AtEnd() {
    Space();
    return pos_ == in_.size();
  }
  bool Literal(std::string_view word) {
    Space();
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool Bool(bool* out) {
    if (Literal("true")) return *out = true, true;
    if (Literal("false")) return *out = false, true;
    return false;
  }
  bool Int(int64_t* out) {
    Space();
    size_t begin = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') ++pos_;
    if (pos_ == begin || (pos_ < in_.size() && (in_[pos_] == '.' ||
                                                in_[pos_] == 'e' ||
                                                in_[pos_] == 'E'))) {
      return false;
    }
    auto [ptr, ec] = std::from_chars(in_.data() + begin, in_.data() + pos_, *out);
    return ec == std::errc() && ptr == in_.data() + pos_;
  }
  bool String(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) return false;
      char e = in_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (in_.size() - pos_ < 4) return false;
          unsigned code = 0;
          auto [ptr, ec] = std::from_chars(in_.data() + pos_, in_.data() + pos_ + 4,
                                           code, 16);
          if (ec != std::errc() || ptr != in_.data() + pos_ + 4) return false;
          pos_ += 4;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool Rows(std::vector<Row>* rows) {
    if (!Expect('[')) return false;
    if (Peek(']')) return ++pos_, true;
    do {
      Row row;
      bool keys = false, measure = false;
      if (!Expect('{')) return false;
      do {
        std::string field;
        if (!String(&field) || !Expect(':')) return false;
        if (field == "keys") {
          if (!Expect('[')) return false;
          if (!Peek(']')) {
            do {
              row.keys.emplace_back();
              if (!String(&row.keys.back())) return false;
            } while (Comma());
          }
          if (!Expect(']')) return false;
          keys = true;
        } else if (field == "measure") {
          if (!Int(&row.measure)) return false;
          measure = true;
        } else {
          return false;
        }
      } while (Comma());
      if (!Expect('}') || !keys || !measure) return false;
      rows->push_back(std::move(row));
    } while (Comma());
    return Expect(']');
  }
  // Skips any JSON value.
  bool Skip() {
    Space();
    if (pos_ >= in_.size()) return false;
    char c = in_[pos_];
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == '{' || c == '[') {
      char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Peek(close)) return ++pos_, true;
      do {
        if (c == '{') {
          std::string key;
          if (!String(&key) || !Expect(':')) return false;
        }
        if (!Skip()) return false;
      } while (Comma());
      return Expect(close);
    }
    if (Literal("true") || Literal("false") || Literal("null")) return true;
    size_t begin = pos_;
    while (pos_ < in_.size() &&
           std::strchr("+-0123456789.eE", in_[pos_]) != nullptr) {
      ++pos_;
    }
    return pos_ > begin;
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseAnswer(std::string_view json, Answer* out, std::string* error) {
  *out = Answer();
  bool ok_field = false, epoch_field = false, cached_field = false;
  ResponseParser parser(json);
  if (!parser.Parse(out, &ok_field, &epoch_field, &cached_field)) {
    *error = "unparseable response: " + std::string(json.substr(0, 120));
    return false;
  }
  if (!ok_field || !epoch_field || !cached_field) {
    *error = "response lacks its envelope";
    return false;
  }
  if (!out->ok) *error = "error response: " + std::string(json.substr(0, 200));
  return true;
}

bool UnwrapBin1(std::string_view payload, std::string_view* json) {
  if (payload.empty() || static_cast<unsigned char>(payload[0]) != kMagic) {
    *json = payload;
    return true;
  }
  size_t pos = 2;
  uint32_t size = 0;
  if (payload.size() < 2 || payload[1] != 0 || !ReadU32(payload, &pos, &size) ||
      payload.size() - pos != size) {
    return false;
  }
  *json = payload.substr(pos, size);
  return true;
}

bool DecodeCursorPage(std::string_view payload, Answer* out,
                      std::string* error) {
  *out = Answer();
  size_t pos = 2;
  uint64_t epoch = 0, cursor = 0;
  uint32_t num_rows = 0;
  if (payload.size() < 3 || static_cast<unsigned char>(payload[0]) != kMagic ||
      payload[1] != 3 || !ReadU64(payload, &pos, &epoch) ||
      !ReadU64(payload, &pos, &cursor) || payload.size() - pos < 1) {
    *error = "not a cursor page";
    return false;
  }
  out->done = payload[pos++] != 0;
  if (!ReadU32(payload, &pos, &num_rows)) {
    *error = "truncated cursor page header";
    return false;
  }
  out->ok = true;
  out->epoch = epoch;
  out->cursor = cursor;
  out->has_rows = true;
  out->rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (payload.size() - pos < 2) {
      *error = "truncated cursor row";
      return false;
    }
    uint16_t num_keys = static_cast<uint16_t>(
        static_cast<unsigned char>(payload[pos]) |
        (static_cast<unsigned char>(payload[pos + 1]) << 8));
    pos += 2;
    Row row;
    for (uint16_t k = 0; k < num_keys; ++k) {
      uint32_t size = 0;
      if (!ReadU32(payload, &pos, &size) || payload.size() - pos < size) {
        *error = "truncated cursor key";
        return false;
      }
      row.keys.emplace_back(payload.substr(pos, size));
      pos += size;
    }
    uint64_t measure = 0;
    if (!ReadU64(payload, &pos, &measure)) {
      *error = "truncated cursor measure";
      return false;
    }
    row.measure = static_cast<int64_t>(measure);
    out->rows.push_back(std::move(row));
  }
  if (pos != payload.size()) {
    *error = "trailing bytes after cursor page";
    return false;
  }
  return true;
}

std::string EncodeQueryNext(uint64_t cursor) {
  std::string out;
  out.push_back(static_cast<char>(kMagic));
  out.push_back(1);     // version
  out.push_back(0x07);  // query_next
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((cursor >> (8 * i)) & 0xff));
  }
  return out;
}

bool PeekEnvelope(std::string_view payload, bool* cached, uint64_t* epoch) {
  std::string_view head = payload.substr(0, 96);
  size_t e = head.find("\"epoch\":");
  size_t c = head.find("\"cached\":");
  if (e == std::string_view::npos || c == std::string_view::npos) return false;
  uint64_t value = 0;
  for (size_t i = e + 8; i < head.size() && head[i] >= '0' && head[i] <= '9';
       ++i) {
    value = value * 10 + static_cast<uint64_t>(head[i] - '0');
  }
  *epoch = value;
  *cached = head.substr(c + 9, 4) == "true";
  return true;
}

std::string CheckMeasure(const Answer& answer, int64_t expected) {
  if (!answer.ok) return "answer is an error";
  if (!answer.has_measure) return "answer carries no measure";
  if (answer.measure != expected) {
    return "measure " + std::to_string(answer.measure) + ", reference " +
           std::to_string(expected);
  }
  return "";
}

std::string CheckRows(std::vector<Row> got, const std::vector<Row>& expected) {
  if (got.size() != expected.size()) {
    return std::to_string(got.size()) + " rows, reference " +
           std::to_string(expected.size());
  }
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == expected[i])) {
      return "row " + RowText(got[i]) + ", reference " + RowText(expected[i]);
    }
  }
  return "";
}

void Checks::Expect(const std::string& what, const std::string& diff) {
  if (diff.empty()) {
    ++passed;
  } else if (failures.size() < 20) {
    failures.push_back(what + ": " + diff);
  }
}

std::vector<Row> ToRows(const std::vector<scdwarf::dwarf::SliceRow>& rows) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back({row.keys, row.measure});
  return out;
}

void CheckCube(const scdwarf::dwarf::DwarfCube& cube, const std::vector<Row>& expected_rows,
               int64_t expected_total, const std::string& label,
               Checks* checks) {
  auto base = scdwarf::dwarf::ExtractBaseTuples(cube);
  if (!base.ok()) {
    checks->Expect(label + " base relation", base.status().ToString());
    return;
  }
  checks->Expect(label + " base relation", CheckRows(ToRows(*base), expected_rows));
  auto total = scdwarf::dwarf::PointQuery(
      cube, std::vector<std::optional<scdwarf::dwarf::DimKey>>(kDims));
  Answer answer;
  answer.ok = total.ok();
  answer.has_measure = total.ok();
  answer.measure = total.ok() ? *total : 0;
  checks->Expect(label + " grand total", CheckMeasure(answer, expected_total));
}

std::string CheckResponse(const Reference& ref, const Query& query,
                          std::string_view payload) {
  std::string_view json;
  if (!UnwrapBin1(payload, &json)) return "undecodable bin1 response";
  Answer answer;
  std::string error;
  if (!ParseAnswer(json, &answer, &error)) return error;
  if (!answer.ok) return error;
  if (query.op == Op::kPoint || query.op == Op::kAggregate) {
    int64_t expected = 0;
    if (!ref.Measure(query, &expected)) return "reference has no match";
    return CheckMeasure(answer, expected);
  }
  if (!answer.has_rows) return "answer carries no rows";
  return CheckRows(std::move(answer.rows), ref.Rows(query));
}

}  // namespace perfbench
