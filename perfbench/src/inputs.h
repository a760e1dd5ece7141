// Everything the benchmark feeds the program, generated from the seed before
// anything is timed: the Month feed documents, the reference built from
// them, pre-serialised request frames (JSON and bin1), the cursor drains,
// the publish batches and the publish-time reader queries.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"

namespace perfbench {

/// A query plus its two wire encodings.
struct Request {
  Query query;
  std::string json;
  std::string bin1;
};

/// A cursor drain: the slice, its query_open frame in bin1, and the number
/// of rows the reference says it must deliver.
struct Drain {
  Query query;
  std::string open_bin1;
  uint64_t expected_rows = 0;
};

struct Inputs {
  std::vector<std::string> documents;  ///< Month feed, rendered to memory
  Reference reference;

  /// Serve mix: requests[0, dashboard) repeat, the rest are fresh.
  std::vector<Request> requests;
  size_t dashboard = 0;
  /// Per connection (0 = JSON, 1 = bin1), the request indices in send order.
  std::vector<uint32_t> sequence[2];
  std::vector<Drain> drains;

  /// Publish batches: one feed document of the days after the Month feed
  /// each, as the program takes them and as reference tuples.
  std::vector<std::vector<std::pair<std::vector<std::string>, int64_t>>>
      batches;
  std::vector<std::vector<Tuple>> batch_tuples;
  std::vector<Request> reads;  ///< publish-time reader queries
};

struct InputSizes {
  size_t dashboard = 256;
  size_t fresh_per_connection = 20000;
  size_t publishes = 72;
  size_t reads = 64;
  size_t page_size = 2048;
};

/// Generates every input from \p seed. Returns an error message on failure.
std::string GenerateInputs(uint64_t seed, const InputSizes& sizes,
                           Inputs* inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
