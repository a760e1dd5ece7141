#include "dwarf/cursor.h"

#include <algorithm>
#include <limits>

#include "common/metrics.h"

namespace scdwarf::dwarf {

namespace {

metrics::Counter* RangePrunedCounter() {
  static metrics::Counter* const counter = metrics::GlobalRegistry().GetCounter(
      "dwarf_range_subtrees_pruned_total", {},
      "subtrees skipped because their min/max-rank span misses a range "
      "predicate's window");
  return counter;
}

bool IsRankRange(const DimPredicate& pred) {
  return pred.kind == DimPredicate::Kind::kRange && pred.by_rank;
}

/// Row key dims must be distinct dimensions of the cube. A duplicate
/// in-range dim is reported before an out-of-range one, as a sorted scan
/// would meet them.
Status ValidateKeyDims(size_t num_dimensions,
                       const std::vector<size_t>& key_dims) {
  size_t duplicate = num_dimensions;
  bool out_of_range = false;
  for (size_t i = 0; i < key_dims.size(); ++i) {
    if (key_dims[i] >= num_dimensions) {
      out_of_range = true;
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (key_dims[j] == key_dims[i]) {
        duplicate = std::min(duplicate, key_dims[i]);
      }
    }
  }
  if (duplicate < num_dimensions) {
    return Status::InvalidArgument("duplicate group dimension " +
                                   std::to_string(duplicate));
  }
  if (out_of_range) return Status::OutOfRange("group dimension out of range");
  return Status::OK();
}

}  // namespace

Result<RowCursor> RowCursor::Over(const DwarfCube& cube,
                                  std::vector<DimStep> steps,
                                  std::vector<size_t> key_dims) {
  if (steps.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("traversal step arity mismatch");
  }
  SCD_RETURN_IF_ERROR(ValidateKeyDims(cube.num_dimensions(), key_dims));
  for (size_t dim : key_dims) {
    if (steps[dim].kind != DimStep::Kind::kFanOut) {
      return Status::InvalidArgument("row key dimension " +
                                     std::to_string(dim) +
                                     " is rolled up, not fanned out");
    }
  }
  for (size_t dim = 0; dim < steps.size(); ++dim) {
    if (steps[dim].kind == DimStep::Kind::kAll &&
        steps[dim].pred.kind != DimPredicate::Kind::kAll) {
      return Status::InvalidArgument("rolled-up dimension " +
                                     std::to_string(dim) +
                                     " carries a predicate");
    }
    if (IsRankRange(steps[dim].pred) &&
        (!cube.schema().dimensions()[dim].ordered ||
         !cube.dictionary(dim).has_rank_view())) {
      return Status::InvalidArgument(
          "rank range on dimension '" + cube.schema().dimensions()[dim].name +
          "', which is not marked ordered in the cube schema");
    }
  }
  return RowCursor(cube, std::move(steps), std::move(key_dims));
}

Result<RowCursor> RowCursor::OverSlice(const DwarfCube& cube, size_t fixed_dim,
                                       DimKey key) {
  if (fixed_dim >= cube.num_dimensions()) {
    return Status::OutOfRange("slice dimension out of range");
  }
  std::vector<DimStep> steps(cube.num_dimensions(), DimStep::FanOut());
  steps[fixed_dim] = DimStep::FanOut(DimPredicate::Point(key));
  std::vector<size_t> key_dims;
  for (size_t dim = 0; dim < cube.num_dimensions(); ++dim) {
    if (dim != fixed_dim) key_dims.push_back(dim);
  }
  return Over(cube, std::move(steps), std::move(key_dims));
}

Result<RowCursor> RowCursor::OverRollUp(const DwarfCube& cube,
                                        const std::vector<size_t>& group_dims,
                                        const RankFilters* filters) {
  SCD_RETURN_IF_ERROR(ValidateKeyDims(cube.num_dimensions(), group_dims));
  std::vector<DimStep> steps(cube.num_dimensions());
  for (size_t dim : group_dims) steps[dim] = DimStep::FanOut();
  if (filters != nullptr) {
    if (filters->size() != cube.num_dimensions()) {
      return Status::InvalidArgument("rank filter arity mismatch");
    }
    for (size_t dim = 0; dim < filters->size(); ++dim) {
      if (!(*filters)[dim].has_value()) continue;
      if (steps[dim].kind != DimStep::Kind::kFanOut) {
        return Status::InvalidArgument(
            "rank filter on dimension '" +
            cube.schema().dimensions()[dim].name +
            "', which is not a grouped dimension of this roll-up");
      }
      steps[dim].pred =
          DimPredicate::RankRange((*filters)[dim]->lo, (*filters)[dim]->hi);
    }
  }
  return Over(cube, std::move(steps), group_dims);
}

RowCursor::RowCursor(const DwarfCube& cube, std::vector<DimStep> steps,
                     std::vector<size_t> key_dims)
    : cube_(&cube),
      steps_(std::move(steps)),
      key_dims_(std::move(key_dims)),
      leaf_level_(cube.num_dimensions() - 1) {
  // A range with lo > hi, or a pinned key the dictionary never assigned,
  // matches no cell: the cursor is born exhausted.
  bool matches_nothing = false;
  for (size_t dim = 0; dim < steps_.size(); ++dim) {
    const DimPredicate& pred = steps_[dim].pred;
    if ((pred.kind == DimPredicate::Kind::kRange && pred.lo > pred.hi) ||
        (pred.kind == DimPredicate::Kind::kPoint &&
         pred.point >= cube.dictionary(dim).size())) {
      matches_nothing = true;
    }
    if (IsRankRange(pred) && cube.range_index() != nullptr &&
        cube.range_index()->covers(dim)) {
      rank_dims_.push_back(dim);
    }
  }
  if (!rank_dims_.empty()) ridx_ = cube.range_index();
  // Frames point into their own ALL cells, so the stack must never move.
  frames_.reserve(steps_.size());
  if (!cube.empty() && !matches_nothing) Push(cube.root());
}

void RowCursor::Push(NodeId id) {
  const size_t level = frames_.size();
  for (size_t dim : rank_dims_) {
    if (dim < level) continue;
    const DimPredicate& window = steps_[dim].pred;
    if (ridx_->span(id, dim).Disjoint(window.lo, window.hi)) {
      ++pruned_;
      return;
    }
  }
  const NodeView node = cube_->node(id);
  Frame& frame = frames_.emplace_back();
  const DwarfCell* first = node.cells.begin();
  const DwarfCell* last = node.cells.end();
  const DimStep& step = steps_[level];
  if (step.kind == DimStep::Kind::kAll) {
    // A node with no cells has no ALL cell either: it contributes nothing.
    if (first == last) return;
    frame.all.child = node.all_child;
    frame.all.measure = node.all_measure;
    frame.end = &frame.all + 1;
    if (level == leaf_level_) {
      frame.next = &frame.all;
      return;
    }
    // The only cell is taken at once: descend without another loop turn.
    frame.next = frame.end;
    Push(node.all_child);
    return;
  }
  frame.next = first;
  frame.end = last;
  const DimPredicate& pred = step.pred;
  if (pred.kind == DimPredicate::Kind::kPoint) {
    const DwarfCell* cell = node.FindCell(pred.point);
    if (cell == nullptr) {
      frame.next = last;
    } else {
      frame.next = cell;
      frame.end = cell + 1;
    }
  } else if (pred.kind == DimPredicate::Kind::kRange && !pred.by_rank) {
    // Cells are sorted by key, so an id window is a contiguous run.
    auto key_less = [](const DwarfCell& cell, DimKey key) {
      return cell.key < key;
    };
    auto key_greater = [](DimKey key, const DwarfCell& cell) {
      return key < cell.key;
    };
    frame.next = std::lower_bound(first, last, pred.lo, key_less);
    frame.end = std::upper_bound(frame.next, last, pred.hi, key_greater);
  } else if (pred.kind != DimPredicate::Kind::kAll) {
    frame.scan = &pred;  // a rank window or a key set
  }
}

bool RowCursor::NextMeasure(Measure* measure) {
  while (!frames_.empty()) {
    const size_t level = frames_.size() - 1;
    Frame& frame = frames_.back();
    const DwarfCell* cell = frame.next;
    if (frame.scan != nullptr) {
      const Dictionary& dict = cube_->dictionary(level);
      while (cell != frame.end &&
             !frame.scan->MatchesInCube(cell->key, dict)) {
        ++cell;
      }
    }
    if (cell == frame.end) {
      frames_.pop_back();
      continue;
    }
    frame.next = cell + 1;
    if (level == leaf_level_) {
      *measure = cell->measure;
      ++rows_emitted_;
      return true;
    }
    Push(cell->child);
  }
  FlushPruned();
  return false;
}

size_t RowCursor::Next(size_t max_rows, std::vector<SliceRow>* out) {
  size_t produced = 0;
  Measure measure = 0;
  while (produced < max_rows && NextMeasure(&measure)) {
    SliceRow& row = out->emplace_back();
    row.measure = measure;
    row.keys.reserve(key_dims_.size());
    for (size_t dim : key_dims_) {
      row.keys.push_back(
          cube_->dictionary(dim).DecodeUnchecked(frames_[dim].next[-1].key));
    }
    ++produced;
  }
  FlushPruned();
  return produced;
}

void RowCursor::FlushPruned() {
  if (pruned_ == 0) return;
  RangePrunedCounter()->Increment(pruned_);
  pruned_ = 0;
}

Result<std::vector<SliceRow>> Drain(Result<RowCursor> cursor) {
  if (!cursor.ok()) return cursor.status();
  std::vector<SliceRow> rows;
  cursor->Next(std::numeric_limits<size_t>::max(), &rows);
  return rows;
}

}  // namespace scdwarf::dwarf
