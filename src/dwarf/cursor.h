/// \file cursor.h
/// \brief The one traversal kernel over a DwarfCube's cells: a resumable
/// depth-first enumerator that every slice, roll-up, aggregate and sub-cube
/// materialization drains.
///
/// A traversal is described by one DimStep per dimension. A fan-out step
/// visits the cells its predicate admits: an id window (found by
/// lower_bound, a point predicate pins one key), a rank window, or a key
/// set. An ALL step follows the node's precomputed ALL cell. Fan-out dims
/// named in the cursor's key dims are labelled: their decoded keys form each
/// row's keys, in key-dim order. The one-shot Slice / RollUp / AggregateQuery
/// (query.h) are drained cursors, so a paged cursor yields exactly the
/// one-shot rows by construction, across any sequence of Next() page sizes.
///
/// Each stack frame caches its node's admitted `[next, end)` cell range (the
/// ALL step is a one-cell range over a copy of the ALL cell), so a cell costs
/// one pointer bump. Rank-window subtree pruning through the cube's
/// RangeIndex happens in one place, the push of a frame, and is counted by
/// dwarf_range_subtrees_pruned_total.
///
/// A RowCursor holds a plain pointer to the cube; the caller owns the cube
/// and must keep it alive for the cursor's lifetime (the serving layer pins
/// the epoch snapshot's shared_ptr next to the cursor for this reason).

#ifndef SCDWARF_DWARF_CURSOR_H_
#define SCDWARF_DWARF_CURSOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "dwarf/dwarf_cube.h"
#include "dwarf/query.h"

namespace scdwarf::dwarf {

/// \brief How the kernel treats one dimension.
struct DimStep {
  enum class Kind : uint8_t {
    kFanOut,  ///< visit every cell `pred` admits
    kAll,     ///< follow the precomputed ALL cell
  };

  Kind kind = Kind::kAll;
  DimPredicate pred;  ///< kFanOut only

  static DimStep All() { return {}; }
  static DimStep FanOut(DimPredicate pred = DimPredicate::All()) {
    return {Kind::kFanOut, std::move(pred)};
  }
};

/// \brief Paused depth-first enumeration of a cube's rows.
class RowCursor {
 public:
  /// Cursor over \p steps (one per dimension); rows carry the decoded keys
  /// of \p key_dims in that order, and every key dim must be a fan-out
  /// step. InvalidArgument on an arity mismatch, a duplicate or non-fan-out
  /// key dim, a predicate on an ALL step, or a rank range on a dimension the
  /// schema does not mark ordered; OutOfRange on a key dim past the cube. A
  /// range with lo > hi matches nothing.
  static Result<RowCursor> Over(const DwarfCube& cube,
                                std::vector<DimStep> steps,
                                std::vector<size_t> key_dims);

  /// Cursor over the sub-cube where \p fixed_dim equals \p key, grouped by
  /// every other dimension in ascending order (rows of dwarf::Slice).
  static Result<RowCursor> OverSlice(const DwarfCube& cube, size_t fixed_dim,
                                     DimKey key);

  /// Cursor over the group-by of \p group_dims, every other dimension rolled
  /// up through its ALL cell (rows of dwarf::RollUp). Row keys come back in
  /// requested \p group_dims order; \p filters (optional, copied) restricts
  /// grouped ordered dims to rank windows.
  static Result<RowCursor> OverRollUp(const DwarfCube& cube,
                                      const std::vector<size_t>& group_dims,
                                      const RankFilters* filters = nullptr);

  RowCursor(RowCursor&&) = default;
  RowCursor& operator=(RowCursor&&) = default;
  /// Frames point into their own ALL cells; a moved vector keeps its
  /// buffer, a copied one would not.
  RowCursor(const RowCursor&) = delete;
  RowCursor& operator=(const RowCursor&) = delete;

  /// \brief Appends up to \p max_rows next rows to \p out and returns how
  /// many were produced (< max_rows only when the traversal finished).
  /// Calling Next on an exhausted cursor appends nothing.
  size_t Next(size_t max_rows, std::vector<SliceRow>* out);

  /// \brief Moves to the next row without decoding its keys and stores its
  /// measure in \p measure; false once the traversal is finished.
  bool NextMeasure(Measure* measure);

  /// True once a call has run past the last row.
  bool done() const { return frames_.empty(); }

  /// Rows emitted so far across all Next() / NextMeasure() calls.
  uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  /// One node on the path: the admitted cells not yet taken. The cell just
  /// taken is next[-1]; its key labels the row and its child is below.
  struct Frame {
    const DwarfCell* next = nullptr;
    const DwarfCell* end = nullptr;
    /// Rank window or key set each cell must pass; null when the range
    /// holds only admitted cells.
    const DimPredicate* scan = nullptr;
    DwarfCell all;  ///< the ALL step's one cell
  };

  RowCursor(const DwarfCube& cube, std::vector<DimStep> steps,
            std::vector<size_t> key_dims);

  /// Pushes the frame of node \p id one level below the top frame, unless
  /// the range index proves its subtree misses a pending rank window.
  void Push(NodeId id);

  /// Adds the prunes counted since the last flush to the shared counter.
  void FlushPruned();

  const DwarfCube* cube_ = nullptr;
  std::vector<DimStep> steps_;
  std::vector<size_t> key_dims_;
  std::vector<size_t> rank_dims_;  ///< dims with a rank window to prune on
  const RangeIndex* ridx_ = nullptr;
  size_t leaf_level_ = 0;
  std::vector<Frame> frames_;      ///< frames_[level]; capacity = dims
  uint64_t rows_emitted_ = 0;
  uint64_t pruned_ = 0;            ///< prunes not yet flushed
};

/// \brief Drains \p cursor into one row vector (or passes its error on).
Result<std::vector<SliceRow>> Drain(Result<RowCursor> cursor);

}  // namespace scdwarf::dwarf

#endif  // SCDWARF_DWARF_CURSOR_H_
