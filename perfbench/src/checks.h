// Answer decoding and the comparisons behind every correctness check. Each
// Check* function returns an empty string when the answer is right and a
// one-line description of the first difference otherwise; the self test
// feeds them perturbed answers to show that each one fails.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"
#include "reference.h"

namespace perfbench {

/// A decoded wire response.
struct Answer {
  bool ok = false;
  uint64_t epoch = 0;
  bool cached = false;
  bool has_measure = false;
  int64_t measure = 0;
  bool has_rows = false;
  std::vector<Row> rows;
  uint64_t cursor = 0;  ///< query_open responses
  bool done = false;    ///< cursor pages
};

/// Decodes a JSON response (the envelope plus `measure` or `rows`).
bool ParseAnswer(std::string_view json, Answer* out, std::string* error);

/// Returns the JSON text of a bin1 response: a kind-0 passthrough is
/// unwrapped, a JSON payload is returned as is. False for other kinds.
bool UnwrapBin1(std::string_view payload, std::string_view* json);

/// Decodes a bin1 kind-3 cursor page (docs/WIRE_PROTOCOL.md §5.3).
bool DecodeCursorPage(std::string_view payload, Answer* out,
                      std::string* error);

/// A bin1 query_next request for \p cursor (§5.2).
std::string EncodeQueryNext(uint64_t cursor);

/// Fast scan of a response's envelope: the `cached` flag and the epoch,
/// read from the first bytes of a JSON or kind-0 bin1 response.
bool PeekEnvelope(std::string_view payload, bool* cached, uint64_t* epoch);

/// Collects the outcome of every correctness check; a run with any failure
/// fails.
struct Checks {
  std::vector<std::string> failures;
  uint64_t passed = 0;
  void Expect(const std::string& what, const std::string& diff);
};

std::vector<Row> ToRows(const std::vector<scdwarf::dwarf::SliceRow>& rows);

/// Base relation and grand total of \p cube against the expected rows
/// (sorted) and total.
void CheckCube(const scdwarf::dwarf::DwarfCube& cube,
               const std::vector<Row>& expected_rows, int64_t expected_total,
               const std::string& label, Checks* checks);

/// A wire answer (JSON, or bin1 kind 0) against the reference.
std::string CheckResponse(const Reference& ref, const Query& query,
                          std::string_view payload);

std::string CheckMeasure(const Answer& answer, int64_t expected);
/// Compares rows as multisets (the program orders rows by dictionary id,
/// the reference by value).
std::string CheckRows(std::vector<Row> got, const std::vector<Row>& expected);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
