#include "dwarf/query.h"

#include "dwarf/cursor.h"

namespace scdwarf::dwarf {

Status ValidatePredicates(const DwarfCube& cube,
                          const std::vector<DimPredicate>& predicates) {
  if (predicates.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("aggregate query arity mismatch");
  }
  for (size_t dim = 0; dim < predicates.size(); ++dim) {
    const DimPredicate& pred = predicates[dim];
    if (pred.kind != DimPredicate::Kind::kRange) continue;
    if (pred.lo > pred.hi) {
      return Status::InvalidArgument("range predicate on dimension " +
                                     std::to_string(dim) + " has lo > hi");
    }
    if (pred.by_rank && (!cube.schema().dimensions()[dim].ordered ||
                         !cube.dictionary(dim).has_rank_view())) {
      return Status::InvalidArgument(
          "rank range on dimension '" +
          cube.schema().dimensions()[dim].name +
          "', which is not marked ordered in the cube schema");
    }
  }
  return Status::OK();
}

Result<Measure> PointQuery(const DwarfCube& cube,
                           const std::vector<std::optional<DimKey>>& keys) {
  if (keys.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("point query arity mismatch: got " +
                                   std::to_string(keys.size()) + ", cube has " +
                                   std::to_string(cube.num_dimensions()));
  }
  if (cube.empty()) return Status::NotFound("cube is empty");

  NodeId current = cube.root();
  for (size_t level = 0; level < keys.size(); ++level) {
    const NodeView node = cube.node(current);
    bool leaf = level + 1 == keys.size();
    if (keys[level].has_value()) {
      const DwarfCell* cell = node.FindCell(*keys[level]);
      if (cell == nullptr) {
        return Status::NotFound("no data at dimension " + std::to_string(level) +
                                " key id " + std::to_string(*keys[level]));
      }
      if (leaf) return cell->measure;
      current = cell->child;
    } else {
      if (leaf) return node.all_measure;
      current = node.all_child;
    }
  }
  return Status::Internal("unreachable: point query fell through");
}

Result<Measure> PointQueryByName(
    const DwarfCube& cube,
    const std::vector<std::optional<std::string>>& keys) {
  if (keys.size() != cube.num_dimensions()) {
    return Status::InvalidArgument("point query arity mismatch");
  }
  std::vector<std::optional<DimKey>> encoded(keys.size());
  for (size_t dim = 0; dim < keys.size(); ++dim) {
    if (keys[dim].has_value()) {
      SCD_ASSIGN_OR_RETURN(DimKey id, cube.dictionary(dim).Lookup(*keys[dim]));
      encoded[dim] = id;
    }
  }
  return PointQuery(cube, encoded);
}

Result<Measure> AggregateQuery(const DwarfCube& cube,
                               const std::vector<DimPredicate>& predicates) {
  SCD_RETURN_IF_ERROR(ValidatePredicates(cube, predicates));
  if (cube.empty()) return Status::NotFound("cube is empty");
  std::vector<DimStep> steps;
  steps.reserve(predicates.size());
  for (const DimPredicate& pred : predicates) {
    steps.push_back(pred.kind == DimPredicate::Kind::kAll
                        ? DimStep::All()
                        : DimStep::FanOut(pred));
  }
  SCD_ASSIGN_OR_RETURN(RowCursor cursor,
                       RowCursor::Over(cube, std::move(steps), {}));
  const AggFn agg = cube.agg();
  Measure accumulated = AggIdentity(agg);
  Measure measure = 0;
  bool found = false;
  while (cursor.NextMeasure(&measure)) {
    accumulated = AggCombine(agg, accumulated, measure);
    found = true;
  }
  if (!found) return Status::NotFound("no tuples match the query");
  return accumulated;
}

Result<std::vector<SliceRow>> Slice(const DwarfCube& cube, size_t fixed_dim,
                                    DimKey key) {
  return Drain(RowCursor::OverSlice(cube, fixed_dim, key));
}

Result<std::vector<SliceRow>> RollUp(const DwarfCube& cube,
                                     const std::vector<size_t>& group_dims,
                                     const RankFilters* filters) {
  return Drain(RowCursor::OverRollUp(cube, group_dims, filters));
}

}  // namespace scdwarf::dwarf
