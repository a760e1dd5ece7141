#include "inputs.h"

#include <algorithm>
#include <unordered_set>

#include "citibikes/datasets.h"
#include "server/binwire.h"
#include "server/wire.h"

namespace perfbench {

namespace {

// splitmix64: the benchmark's own generator, so input streams depend only
// on the seed and this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

size_t IndexOf(const std::vector<std::string>& sorted, const std::string& v) {
  return static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
}

// A window of up to `spread` neighbours on each side of \p anchor's value.
std::pair<std::string, std::string> Window(const std::vector<std::string>& vals,
                                           const std::string& anchor,
                                           size_t spread, Rng& rng) {
  size_t i = IndexOf(vals, anchor);
  size_t lo = i - std::min(i, rng.Below(spread + 1));
  size_t hi = std::min(vals.size() - 1, i + rng.Below(spread + 1));
  return {vals[lo], vals[hi]};
}

Query MakePoint(const Tuple& anchor, Rng& rng) {
  Query q;
  q.op = Op::kPoint;
  // One of Date, Hour or Station keeps the space of distinct points large;
  // one or two more coordinates come from the other dimensions but Month,
  // which has a single value.
  const size_t wide = rng.Below(3) == 0 ? 1 : rng.Below(2) == 0 ? 3 : 5;
  q.preds[wide] = {Pred::kPoint, anchor.keys[wide], "", {}};
  std::vector<size_t> dims;
  for (size_t d = 1; d < kDims; ++d) {
    if (d != wide) dims.push_back(d);
  }
  size_t more = 1 + rng.Below(2);
  for (size_t i = 0; i < more; ++i) {
    std::swap(dims[i], dims[i + rng.Below(dims.size() - i)]);
    q.preds[dims[i]] = {Pred::kPoint, anchor.keys[dims[i]], "", {}};
  }
  return q;
}

Query MakeAggregate(const Reference& ref, const Tuple& anchor, Rng& rng) {
  Query q;
  q.op = Op::kAggregate;
  size_t range_dim = rng.Below(2) == 0 ? 1 : 3;  // Date or Hour
  auto [lo, hi] = Window(ref.values(range_dim), anchor.keys[range_dim], 3, rng);
  q.preds[range_dim] = {Pred::kRange, lo, hi, {}};
  size_t set_dim = rng.Below(2) == 0 ? 5 : 4;  // Station or Area
  const std::vector<std::string>& vals = ref.values(set_dim);
  std::vector<std::string> set = {anchor.keys[set_dim]};
  for (size_t extra = 1 + rng.Below(3); extra > 0; --extra) {
    const std::string& v = vals[rng.Below(vals.size())];
    if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
  }
  q.preds[set_dim] = {Pred::kSet, "", "", set};
  return q;
}

Query MakeRollUp(const Reference& ref, const Tuple& anchor, Rng& rng) {
  Query q;
  q.op = Op::kRollUp;
  size_t window_dim = rng.Below(2) == 0 ? 1 : 3;
  q.group = {window_dim};
  if (rng.Below(2) == 0) {
    const size_t others[] = {0, 2, 4, 5, 6, 7,
                             window_dim == 1 ? size_t{3} : size_t{1}};
    size_t other = others[rng.Below(7)];
    q.group.insert(q.group.begin() + static_cast<long>(rng.Below(2)), other);
  }
  auto [lo, hi] = Window(ref.values(window_dim), anchor.keys[window_dim], 6, rng);
  q.window_dim = static_cast<int>(window_dim);
  q.window_lo = lo;
  q.window_hi = hi;
  return q;
}

Query MakeSlice(const Tuple& anchor, Rng& rng) {
  static const size_t kDimsForSlices[] = {1, 3, 5};  // Date, Hour, Station
  Query q;
  q.op = Op::kSlice;
  q.slice_dim = kDimsForSlices[rng.Below(3)];
  q.slice_key = anchor.keys[q.slice_dim];
  return q;
}

std::string EncodeBin1(const std::string& json, std::string* error) {
  auto parsed = scdwarf::server::ParseRequest(json);
  if (!parsed.ok()) {
    *error = "request does not parse: " + json;
    return "";
  }
  auto encoded = scdwarf::server::binwire::EncodeRequest(*parsed);
  if (!encoded.ok()) {
    *error = "request has no bin1 form: " + json;
    return "";
  }
  return *encoded;
}

}  // namespace

std::string GenerateInputs(uint64_t seed, const InputSizes& sizes,
                           Inputs* in) {
  std::string error;
  auto month = scdwarf::citibikes::FindDataset("Month");
  if (!month.ok()) return month.status().ToString();
  scdwarf::citibikes::BikeFeedConfig config =
      scdwarf::citibikes::MakeFeedConfig(*month, seed);
  scdwarf::citibikes::BikeFeedGenerator feed(config);
  std::vector<Tuple> tuples;
  while (feed.HasNext()) {
    in->documents.push_back(feed.NextXml());
    tuples.clear();
    if (!ScanDocument(in->documents.back(), &tuples, &error)) return error;
    for (const Tuple& t : tuples) in->reference.Add(t);
  }
  in->reference.Finish();
  const Reference& ref = in->reference;
  const std::vector<Tuple>& base = ref.base();

  // Publish batches: the same city, one document per publish, continuing
  // at the Month feed's cadence into February.
  scdwarf::citibikes::BikeFeedConfig later = config;
  later.start = {2016, 2, 1, 0, 0, 0};
  int64_t tick_seconds =
      config.period_seconds * static_cast<int64_t>(config.num_stations) /
      static_cast<int64_t>(config.target_records);
  later.period_seconds = tick_seconds * static_cast<int64_t>(sizes.publishes);
  later.target_records = config.num_stations * sizes.publishes;
  scdwarf::citibikes::BikeFeedGenerator later_feed(later);
  while (later_feed.HasNext()) {
    std::vector<Tuple> batch;
    if (!ScanDocument(later_feed.NextXml(), &batch, &error)) return error;
    std::vector<std::pair<std::vector<std::string>, int64_t>> program_batch;
    for (const Tuple& t : batch) {
      program_batch.emplace_back(
          std::vector<std::string>(t.keys.begin(), t.keys.end()), t.measure);
    }
    in->batches.push_back(std::move(program_batch));
    in->batch_tuples.push_back(std::move(batch));
  }

  Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
  std::unordered_set<std::string> seen;
  auto add = [&](Query q) -> bool {
    std::string json = ToJson(q);
    if (!seen.insert(json).second) return false;
    std::string bin1 = EncodeBin1(json, &error);
    if (bin1.empty()) return false;
    in->requests.push_back({std::move(q), std::move(json), std::move(bin1)});
    return true;
  };
  // Dashboard: a quarter each of points, aggregates, roll-ups and slices.
  for (size_t i = 0, attempts = 0;
       in->requests.size() < sizes.dashboard && attempts < 100 * sizes.dashboard;
       ++attempts) {
    const Tuple& anchor = base[rng.Below(base.size())];
    switch (i % 4) {
      case 0: i += add(MakePoint(anchor, rng)); break;
      case 1: i += add(MakeAggregate(ref, anchor, rng)); break;
      case 2: i += add(MakeRollUp(ref, anchor, rng)); break;
      case 3: i += add(MakeSlice(anchor, rng)); break;
    }
  }
  if (!error.empty()) return error;
  in->dashboard = in->requests.size();
  // Fresh requests, each used once: 1/2 points, 3/8 aggregates and 1/8
  // roll-ups (windowed one- and two-dimension roll-ups number only ~9k).
  // (There are only ~100 distinct slices; they are all dashboard material.)
  std::vector<uint32_t> fresh[2];
  for (int conn = 0; conn < 2; ++conn) {
    for (size_t i = 0, attempts = 0; fresh[conn].size() <
                                          sizes.fresh_per_connection &&
                                      attempts < 8 * sizes.fresh_per_connection;
         ++attempts) {
      const Tuple& anchor = base[rng.Below(base.size())];
      bool added = false;
      switch (i % 8) {
        case 0: case 2: case 4: case 6: added = add(MakePoint(anchor, rng)); break;
        case 1: case 3: case 5: added = add(MakeAggregate(ref, anchor, rng)); break;
        default: added = add(MakeRollUp(ref, anchor, rng)); break;
      }
      if (added) {
        fresh[conn].push_back(static_cast<uint32_t>(in->requests.size() - 1));
        ++i;
      }
    }
    // Even positions repeat a dashboard query, odd ones send a fresh one.
    for (uint32_t index : fresh[conn]) {
      in->sequence[conn].push_back(
          static_cast<uint32_t>(rng.Below(in->dashboard)));
      in->sequence[conn].push_back(index);
    }
  }
  if (!error.empty()) return error;
  if (fresh[0].size() < sizes.fresh_per_connection ||
      fresh[1].size() < sizes.fresh_per_connection) {
    return "could not generate enough distinct fresh requests";
  }

  // Cursor drains over the whole-cube-sized slices.
  for (size_t dim : {size_t{2}, size_t{4}, size_t{6}, size_t{0}}) {
    for (const std::string& value : ref.values(dim)) {
      Drain drain;
      drain.query.op = Op::kSlice;
      drain.query.slice_dim = dim;
      drain.query.slice_key = value;
      drain.expected_rows = ref.Count(dim, value);
      drain.open_bin1 = EncodeBin1("{\"op\":\"query_open\",\"query\":" +
                                       ToJson(drain.query) + ",\"page_size\":" +
                                       std::to_string(sizes.page_size) + "}",
                                   &error);
      if (drain.open_bin1.empty()) return error;
      in->drains.push_back(std::move(drain));
    }
  }

  // Reader queries during publishes: points and aggregates, whose answers
  // move as February tuples arrive.
  seen.clear();
  for (size_t i = 0, attempts = 0;
       in->reads.size() < sizes.reads && attempts < 100 * sizes.reads;
       ++attempts) {
    const Tuple& anchor = base[rng.Below(base.size())];
    Query q = i % 2 == 0 ? MakePoint(anchor, rng)
                         : MakeAggregate(ref, anchor, rng);
    std::string json = ToJson(q);
    if (!seen.insert(json).second) continue;
    in->reads.push_back({std::move(q), std::move(json), ""});
    ++i;
  }
  return "";
}

}  // namespace perfbench
