// perfbench_selftest: shows that each correctness check of the benchmark
// accepts the program's right answer and rejects a perturbed one. Runs on
// the Day feed so that it takes a second. Exit code 0 when every case
// behaves, 1 otherwise.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "citibikes/datasets.h"
#include "dwarf/update.h"
#include "etl/pipeline.h"
#include "reference.h"
#include "server/binwire.h"
#include "server/query_server.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

// Replaces the first occurrence of \p from in \p text.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// The value after the first `"measure":` in \p json, plus one.
std::string BumpFirstMeasure(const std::string& json) {
  size_t at = json.find("\"measure\":");
  if (at == std::string::npos) return json;
  size_t begin = at + 10, end = begin;
  while (end < json.size() && (json[end] == '-' || std::isdigit(json[end]))) ++end;
  long long value = std::stoll(json.substr(begin, end - begin));
  return json.substr(0, begin) + std::to_string(value + 1) + json.substr(end);
}

std::string DropFirstRow(const std::string& json) {
  size_t begin = json.find("{\"keys\"");
  size_t end = json.find("},", begin);
  if (begin == std::string::npos || end == std::string::npos) return json;
  return json.substr(0, begin) + json.substr(end + 2);
}

std::string Wrap(const std::string& json) {
  return scdwarf::server::binwire::EncodeJsonPassthrough(json);
}

}  // namespace

int main() {
  // Inputs: the Day feed, the reference over it, and the program's cube.
  auto day = scdwarf::citibikes::FindDataset("Day");
  scdwarf::citibikes::BikeFeedGenerator feed(
      scdwarf::citibikes::MakeFeedConfig(*day, 5));
  auto pipeline = scdwarf::etl::MakeBikesXmlPipeline();
  Reference ref;
  std::vector<Tuple> tuples;
  std::string error;
  while (feed.HasNext()) {
    std::string document = feed.NextXml();
    tuples.clear();
    if (!ScanDocument(document, &tuples, &error)) {
      std::printf("FAIL  reference scan: %s\n", error.c_str());
      return 1;
    }
    for (const Tuple& t : tuples) ref.Add(t);
    if (!pipeline->ConsumeXml(document).ok()) return 1;
  }
  ref.Finish();
  auto cube = std::move(*pipeline).Finish();
  if (!cube.ok()) return 1;

  // Ingest: the cube's base relation and grand total.
  {
    Checks checks;
    CheckCube(*cube, ref.BaseRows(), ref.total(), "cube", &checks);
    Expect(checks.failures.empty() && checks.passed == 2,
           "ingest: the pipeline's cube equals the reference");
    std::vector<Row> rows = ref.BaseRows();
    rows[rows.size() / 2].measure += 1;
    Checks bumped;
    CheckCube(*cube, rows, ref.total(), "cube", &bumped);
    Expect(!bumped.failures.empty(), "ingest: a perturbed base measure fails");
    rows = ref.BaseRows();
    rows.pop_back();
    Checks dropped;
    CheckCube(*cube, rows, ref.total(), "cube", &dropped);
    Expect(!dropped.failures.empty(), "ingest: a missing base tuple fails");
    rows = ref.BaseRows();
    rows[0].keys[5] += "x";
    Checks renamed;
    CheckCube(*cube, rows, ref.total(), "cube", &renamed);
    Expect(!renamed.failures.empty(), "ingest: a perturbed base key fails");
    Checks total;
    CheckCube(*cube, ref.BaseRows(), ref.total() + 1, "cube", &total);
    Expect(total.failures.size() == 1, "ingest: a perturbed grand total fails");
  }

  // Serve: one query of each kind through the in-process query server.
  scdwarf::server::ServerOptions options;
  options.num_workers = 1;
  scdwarf::server::QueryServer server(scdwarf::dwarf::DwarfCube(*cube), options);
  const Tuple& anchor = ref.base()[ref.base().size() / 3];
  Query point;
  point.op = Op::kPoint;
  point.preds[3] = {Pred::kPoint, anchor.keys[3], "", {}};
  point.preds[5] = {Pred::kPoint, anchor.keys[5], "", {}};
  Query aggregate;
  aggregate.op = Op::kAggregate;
  aggregate.preds[3] = {Pred::kRange, ref.values(3).front(), anchor.keys[3], {}};
  aggregate.preds[4] = {Pred::kSet, "", "", {anchor.keys[4]}};
  Query rollup;
  rollup.op = Op::kRollUp;
  rollup.group = {4, 3};
  rollup.window_dim = 3;
  rollup.window_lo = ref.values(3).front();
  rollup.window_hi = anchor.keys[3];
  Query slice;
  slice.op = Op::kSlice;
  slice.slice_dim = 5;
  slice.slice_key = anchor.keys[5];
  for (const Query* query : {&point, &aggregate, &rollup, &slice}) {
    const std::string name = std::string("serve ") + OpName(query->op) + ": ";
    std::string answer = server.HandleFrame(ToJson(*query));
    Expect(CheckResponse(ref, *query, answer).empty(),
           name + "the right JSON answer passes");
    Expect(CheckResponse(ref, *query, Wrap(answer)).empty(),
           name + "the right bin1 answer passes");
    Expect(!CheckResponse(ref, *query, BumpFirstMeasure(answer)).empty(),
           name + "a perturbed measure fails");
    Expect(!CheckResponse(ref, *query, Replace(answer, "\"ok\":true", "\"ok\":false")).empty(),
           name + "an error answer fails");
    std::string wrapped = Wrap(answer);
    wrapped[2] = static_cast<char>(wrapped[2] + 1);  // corrupt the length
    Expect(!CheckResponse(ref, *query, wrapped).empty(),
           name + "a malformed bin1 answer fails");
    if (query->op == Op::kRollUp || query->op == Op::kSlice) {
      Expect(!CheckResponse(ref, *query, DropFirstRow(answer)).empty(),
             name + "a missing row fails");
      Expect(!CheckResponse(ref, *query, Replace(answer, anchor.keys[4].substr(0, 3),
                                                 "Zzz")).empty(),
             name + "a perturbed key fails");
    }
  }

  // Serve drains: a cursor page decoded by the benchmark, then compared.
  {
    std::vector<Row> expected = ref.Rows(slice);
    std::vector<scdwarf::dwarf::SliceRow> rows;
    for (const Row& row : expected) rows.push_back({row.keys, row.measure});
    std::string page = scdwarf::server::binwire::EncodeCursorPage(3, 9, rows, true);
    Answer answer;
    Expect(DecodeCursorPage(page, &answer, &error) && answer.done &&
               answer.epoch == 3 && answer.cursor == 9 &&
               CheckRows(answer.rows, expected).empty(),
           "drain: a cursor page decodes to the reference rows");
    rows.pop_back();
    std::string short_page = scdwarf::server::binwire::EncodeCursorPage(3, 9, rows, true);
    Expect(DecodeCursorPage(short_page, &answer, &error) &&
               !CheckRows(answer.rows, expected).empty(),
           "drain: a short drain fails");
    rows.clear();
    for (const Row& row : expected) rows.push_back({row.keys, row.measure});
    rows.back().measure += 1;
    std::string bumped = scdwarf::server::binwire::EncodeCursorPage(3, 9, rows, true);
    Expect(DecodeCursorPage(bumped, &answer, &error) &&
               !CheckRows(answer.rows, ref.Rows(slice)).empty(),
           "drain: a perturbed drained measure fails");
    Expect(!DecodeCursorPage(page.substr(0, page.size() - 3), &answer, &error),
           "drain: a truncated page fails to decode");
  }

  // Publish: Apply == Rebuild, grand totals and reader answers by epoch.
  {
    std::vector<std::pair<std::vector<std::string>, int64_t>> batch;
    std::vector<Tuple> batch_tuples;
    for (size_t i = 0; i < 46 && i < ref.base().size(); ++i) {
      Tuple t = ref.base()[i];
      t.keys[1] = "2016-02-01";
      t.keys[0] = "February";
      batch.emplace_back(std::vector<std::string>(t.keys.begin(), t.keys.end()),
                         t.measure);
      batch_tuples.push_back(t);
    }
    scdwarf::dwarf::CubeUpdater apply{scdwarf::dwarf::DwarfCube(*cube)};
    scdwarf::dwarf::CubeUpdater rebuild{scdwarf::dwarf::DwarfCube(*cube)};
    scdwarf::dwarf::CubeUpdater short_rebuild{scdwarf::dwarf::DwarfCube(*cube)};
    for (size_t i = 0; i < batch.size(); ++i) {
      (void)apply.AddTuple(batch[i].first, batch[i].second);
      (void)rebuild.AddTuple(batch[i].first, batch[i].second);
      if (i > 0) (void)short_rebuild.AddTuple(batch[i].first, batch[i].second);
    }
    auto applied = std::move(apply).Apply();
    auto rebuilt = std::move(rebuild).Rebuild();
    auto short_rebuilt = std::move(short_rebuild).Rebuild();
    auto rows_of = [](const scdwarf::dwarf::DwarfCube& c) {
      std::vector<Row> rows = ToRows(*scdwarf::dwarf::ExtractBaseTuples(c));
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    Expect(CheckRows(rows_of(*applied), rows_of(*rebuilt)).empty(),
           "publish: Apply equals Rebuild");
    Expect(!CheckRows(rows_of(*applied), rows_of(*short_rebuilt)).empty(),
           "publish: a Rebuild missing one tuple differs");
    Reference after;
    for (const Tuple& t : ref.base()) after.Add(t);
    for (const Tuple& t : batch_tuples) after.Add(t);
    after.Finish();
    Checks checks;
    CheckCube(*applied, after.BaseRows(), ref.total() + SumMatching(Query(), batch_tuples),
              "published cube", &checks);
    Expect(checks.failures.empty(), "publish: the published cube equals the reference");
    Checks stale;
    CheckCube(*applied, after.BaseRows(), ref.total(), "published cube", &stale);
    Expect(!stale.failures.empty(), "publish: a total without the batch fails");
    // A reader answer at epoch 1 against the reference at epochs 1 and 0.
    scdwarf::server::QueryServer publisher(scdwarf::dwarf::DwarfCube(*cube), options);
    Query read;
    read.op = Op::kAggregate;
    read.preds[5] = {Pred::kSet, "", "", {anchor.keys[5]}};
    (void)publisher.ApplyUpdate(batch);
    Answer answer;
    ParseAnswer(publisher.HandleFrame(ToJson(read)), &answer, &error);
    int64_t base_value = 0;
    ref.Measure(read, &base_value);
    int64_t at_one = base_value + SumMatching(read, batch_tuples);
    Expect(answer.epoch == 1 && CheckMeasure(answer, at_one).empty(),
           "publish: a reader answer equals the reference at its epoch");
    Expect(at_one == base_value || !CheckMeasure(answer, base_value).empty(),
           "publish: the same answer fails against the previous epoch");
  }

  std::printf("%s\n", g_failures == 0 ? "self test passed" : "self test FAILED");
  return g_failures == 0 ? 0 : 1;
}
