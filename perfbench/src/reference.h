// Independent reference for the benchmark's correctness checks.
//
// The reference reads the eight dimension values and `available_bikes`
// straight out of the generated feed documents with its own field scan
// (no scdwarf xml/etl code), derives the calendar dimensions and the
// 10-stand bucket itself, and answers point, aggregate, slice and roll-up
// queries by scanning its own tuple table. Every check in the benchmark
// compares the program's answers against this class or against a property
// of the method (Apply == Rebuild, grand totals).

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

constexpr size_t kDims = 8;
/// Dimension order of the bikes cube (MakeBikesCubeSchema).
extern const std::array<const char*, kDims> kDimNames;

using Keys = std::array<std::string, kDims>;

struct Tuple {
  Keys keys;
  int64_t measure = 0;
};

/// One answer row: keys in the order the query asked for, plus the measure.
struct Row {
  std::vector<std::string> keys;
  int64_t measure = 0;
  bool operator==(const Row& other) const {
    return measure == other.measure && keys == other.keys;
  }
  bool operator<(const Row& other) const {
    return keys != other.keys ? keys < other.keys : measure < other.measure;
  }
};

/// Appends one tuple per <station> record of \p document. Returns false with
/// \p error set when a record lacks a field or carries a malformed value.
bool ScanDocument(std::string_view document, std::vector<Tuple>* out,
                  std::string* error);

/// One predicate of a point or aggregate query. kPoint uses `lo`.
struct Pred {
  enum Kind { kAll, kPoint, kRange, kSet };
  Kind kind = kAll;
  std::string lo, hi;
  std::vector<std::string> set;
};

enum class Op { kPoint, kAggregate, kSlice, kRollUp };

struct Query {
  Op op = Op::kPoint;
  std::array<Pred, kDims> preds;  ///< kPoint / kAggregate
  size_t slice_dim = 0;           ///< kSlice
  std::string slice_key;
  std::vector<size_t> group;      ///< kRollUp, in requested order
  int window_dim = -1;            ///< kRollUp `where` window, -1 = none
  std::string window_lo, window_hi;
};

const char* OpName(Op op);

/// True when \p keys satisfies every predicate of a point/aggregate query.
bool Matches(const Query& query, const Keys& keys);

/// The query in the wire protocol's JSON request form.
std::string ToJson(const Query& query);

class Reference {
 public:
  /// Adds one source record; records with equal keys are summed.
  void Add(const Tuple& tuple);
  /// Sorts the distinct tuples and builds the per-value indexes.
  void Finish();

  const std::vector<Tuple>& base() const { return base_; }
  int64_t total() const { return total_; }
  /// Distinct values of \p dim, ascending.
  const std::vector<std::string>& values(size_t dim) const {
    return values_[dim];
  }

  /// Sum over the matching tuples of a point/aggregate query; false when
  /// nothing matches.
  bool Measure(const Query& query, int64_t* sum) const;
  /// Number of base tuples whose \p dim equals \p value (= slice rows).
  size_t Count(size_t dim, const std::string& value) const {
    return Postings(dim, value)->size();
  }
  /// Rows of a slice or roll-up, sorted.
  std::vector<Row> Rows(const Query& query) const;
  /// The base relation as rows of all eight keys, sorted.
  std::vector<Row> BaseRows() const;

 private:
  const std::vector<uint32_t>* Postings(size_t dim,
                                        const std::string& value) const;
  std::vector<uint32_t> Candidates(const Query& query) const;

  std::unordered_map<std::string, size_t> slot_;  ///< joined keys -> base_
  std::vector<Tuple> base_;
  /// Per base tuple, each key's position in values_ (so id order is value
  /// order).
  std::vector<std::array<uint16_t, kDims>> ids_;
  int64_t total_ = 0;
  std::array<std::vector<std::string>, kDims> values_;
  std::array<std::unordered_map<std::string, std::vector<uint32_t>>, kDims>
      postings_;
};

/// Sum of a point/aggregate query over \p tuples (publish batches).
int64_t SumMatching(const Query& query, const std::vector<Tuple>& tuples);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
