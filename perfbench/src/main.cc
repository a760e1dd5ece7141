// perfbench — the repo benchmark.
//
//   perfbench --workload ingest|serve|publish --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--trace-out FILE]
//
// Every run drives the whole system once through its three stages, on the
// Month feed of Table 2 generated from the seed:
//
//   ingest   feed documents -> ParallelCubePipeline (2 threads) -> cube ->
//            NoSQL-DWARF store (flushed), then the other three paper schemas
//   serve    the cube spooled as a v3 snapshot, two scdwarf_replica processes
//            behind an in-process Router on TCP, two closed-loop clients
//            (one JSON, one bin1; the bin1 one also drains cursors)
//   publish  a publisher QueryServer spooling every epoch, a SnapshotNotifier
//            and one replica, one reader in a closed loop throughout
//
// The workload picks the stage that gets the measured window of S seconds;
// the other two run a fixed amount of work, so that every end-to-end metric
// comes from every workload. Timed values are medians over repetitions or
// windows within the run. All outputs are checked against the benchmark's
// own reference (reference.h) outside the timed windows.
//
// With --trace 1 the run also calls each layer's public functions directly
// on the same inputs, records a span around every call (spans.h), writes
// the spans as a Chrome trace, and prints the per-layer metrics instead of
// the end-to-end ones. The last stdout line is the result as one JSON
// object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "client/client.h"
#include "dwarf/builder.h"
#include "dwarf/cursor.h"
#include "dwarf/query.h"
#include "dwarf/update.h"
#include "etl/extractor.h"
#include "etl/parallel_pipeline.h"
#include "etl/pipeline.h"
#include "etl/tuple_mapper.h"
#include "fleet.h"
#include "inputs.h"
#include "mapper/nosql_dwarf_mapper.h"
#include "mapper/nosql_min_mapper.h"
#include "mapper/sql_dwarf_mapper.h"
#include "mapper/sql_min_mapper.h"
#include "nosql/database.h"
#include "reference.h"
#include "replica/replica.h"
#include "replica/router.h"
#include "replica/snapshot.h"
#include "server/query_server.h"
#include "server/tcp_server.h"
#include "spans.h"
#include "sql/engine.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using scdwarf::dwarf::DwarfCube;

#ifndef PERFBENCH_REPLICA_BIN
#define PERFBENCH_REPLICA_BIN "scdwarf_replica"
#endif

// ------------------------------------------------------------------ config

constexpr int kThreads = 2;              // pipeline, builder and mapper threads
constexpr size_t kPageSize = 2048;       // cursor page size
constexpr int kDrainEvery = 32;          // bin1 ops per cursor drain
constexpr double kWindowSeconds = 0.25;  // serve QPS window
constexpr double kPublishIntervalMs = 150;
constexpr size_t kCompactingPublishes = 72;  // passes the 64-chunk compaction
constexpr size_t kRetainEpochs = 4;
// The fixed share of the stages a workload does not measure for its window.
constexpr int kFixedIngestReps = 1;
constexpr double kFixedServeSeconds = 4.0;
constexpr size_t kFixedPublishes = 24;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
};

struct Plan {
  int ingest_min_reps = kFixedIngestReps;
  double ingest_seconds = 0;  ///< repeat until this much ingest time passed
  double serve_seconds = kFixedServeSeconds;
  size_t publishes = kFixedPublishes;
};

Plan MakePlan(const Args& args) {
  Plan plan;
  if (args.workload == "ingest") {
    plan.ingest_min_reps = 2;
    plan.ingest_seconds = args.seconds;
  } else if (args.workload == "serve") {
    plan.serve_seconds = args.seconds;
  } else {
    plan.publishes = std::max(
        kCompactingPublishes,
        static_cast<size_t>(args.seconds * 1000.0 / kPublishIntervalMs));
  }
  return plan;
}

// ----------------------------------------------------------------- helpers

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

/// The highest percentile with at least ten samples beyond it.
double Tail(const std::vector<double>& values) {
  if (values.size() < 40) return Median(values);
  return Quantile(values, 1.0 - 10.0 / static_cast<double>(values.size()));
}

struct Metric {
  double value = 0;
  std::string unit;
};

// The benchmark's own direct dwarf call for a query (no wire layer).
std::string DwarfCall(const DwarfCube& cube, const Query& q, int64_t* measure,
                      size_t* rows) {
  using namespace scdwarf::dwarf;
  auto id = [&](size_t dim, const std::string& value) -> std::optional<DimKey> {
    auto found = cube.dictionary(dim).Lookup(value);
    return found.ok() ? std::optional<DimKey>(*found) : std::nullopt;
  };
  auto window = [&](size_t dim, const std::string& lo, const std::string& hi) {
    const Dictionary& dict = cube.dictionary(dim);
    DimKey first = dict.LowerBoundRank(lo);
    DimKey past = dict.UpperBoundRank(hi);
    return RankWindow{first, past == 0 ? 0 : past - 1};
  };
  switch (q.op) {
    case Op::kPoint: {
      std::vector<std::optional<DimKey>> keys(kDims);
      for (size_t d = 0; d < kDims; ++d) {
        if (q.preds[d].kind == Pred::kPoint) keys[d] = id(d, q.preds[d].lo);
      }
      auto result = PointQuery(cube, keys);
      if (!result.ok()) return result.status().ToString();
      *measure = *result;
      return "";
    }
    case Op::kAggregate: {
      std::vector<DimPredicate> preds(kDims);
      for (size_t d = 0; d < kDims; ++d) {
        const Pred& p = q.preds[d];
        if (p.kind == Pred::kPoint) preds[d] = DimPredicate::Point(*id(d, p.lo));
        if (p.kind == Pred::kRange) {
          RankWindow w = window(d, p.lo, p.hi);
          preds[d] = DimPredicate::RankRange(w.lo, w.hi);
        }
        if (p.kind == Pred::kSet) {
          std::vector<DimKey> ids;
          for (const std::string& v : p.set) {
            if (auto k = id(d, v)) ids.push_back(*k);
          }
          preds[d] = DimPredicate::Set(std::move(ids));
        }
      }
      auto result = AggregateQuery(cube, preds);
      if (!result.ok()) return result.status().ToString();
      *measure = *result;
      return "";
    }
    case Op::kRollUp: {
      RankFilters filters(kDims);
      if (q.window_dim >= 0) {
        filters[q.window_dim] = window(q.window_dim, q.window_lo, q.window_hi);
      }
      auto result = RollUp(cube, q.group, &filters);
      if (!result.ok()) return result.status().ToString();
      *rows = result->size();
      return "";
    }
    case Op::kSlice: {
      auto key = id(q.slice_dim, q.slice_key);
      if (!key) return "slice key not in dictionary";
      auto result = Slice(cube, q.slice_dim, *key);
      if (!result.ok()) return result.status().ToString();
      *rows = result->size();
      return "";
    }
  }
  return "unknown op";
}

// ------------------------------------------------------------------ state

struct Run {
  Args args;
  Plan plan;
  double process_start = 0;
  std::string scratch;
  Inputs in;
  Checks checks;
  std::map<std::string, Metric> e2e;    // end-to-end metrics
  std::map<std::string, Metric> layer;  // per-layer metrics (traced run)
  double setup_seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::shared_ptr<const DwarfCube> cube;  // the Month cube of the last ingest
  std::vector<std::string> notes;         // human-readable stderr lines
};

void Note(Run* run, const char* format, double a, double b = 0, double c = 0) {
  char line[256];
  std::snprintf(line, sizeof(line), format, a, b, c);
  run->notes.emplace_back(line);
}

// ------------------------------------------------------------------ ingest

struct StoreOutcome {
  double nosql_dwarf_s = 0, nosql_min_s = 0, sql_dwarf_s = 0, sql_min_s = 0;
  uint64_t nosql_dwarf_bytes = 0, nosql_min_bytes = 0, sql_dwarf_bytes = 0,
           sql_min_bytes = 0;
  uint64_t rows = 0;
};

// One ingest repetition: pipeline -> cube -> NoSQL-DWARF (ingest_s ends at
// its flush) -> MySQL-DWARF, MySQL-Min, NoSQL-Min, one store open at a time.
// With \p check, each store's cube is loaded back and checked after its
// timed Store().
std::string IngestRep(Run* run, int rep, double* ingest_s, StoreOutcome* out,
                      bool check) {
  using namespace scdwarf;
  Span rep_span("bench.ingest_rep", static_cast<uint64_t>(rep));
  const std::string dir = run->scratch + "/stores";
  const std::vector<Row> expected =
      check ? run->in.reference.BaseRows() : std::vector<Row>();
  const int64_t total = run->in.reference.total();
  double check_seconds = 0;
  auto check_loaded = [&](const char* schema, Result<dwarf::DwarfCube> loaded) {
    Span span("bench.check_ingest");
    double began = Now();
    if (!loaded.ok()) {
      run->checks.Expect(std::string(schema) + " load", loaded.status().ToString());
    } else {
      CheckCube(*loaded, expected, total, std::string("cube loaded from ") + schema,
                &run->checks);
    }
    check_seconds += Now() - began;
  };
  fs::remove_all(dir);
  auto pipeline = etl::MakeBikesXmlParallelPipeline(
      dwarf::BuilderOptions{.num_threads = kThreads},
      etl::ParallelPipelineOptions{.num_threads = kThreads});
  auto nd_db = nosql::Database::Open(dir + "/nosql_dwarf");
  if (!pipeline.ok() || !nd_db.ok()) return "cannot set up the pipeline or store";

  double t0 = Now();
  {
    Span span("etl.consume", static_cast<uint64_t>(rep));
    for (const std::string& document : run->in.documents) {
      Status status = pipeline->ConsumeXml(document);
      if (!status.ok()) return status.ToString();
    }
  }
  Result<dwarf::DwarfCube> built = Status::Internal("unbuilt");
  {
    Span span("etl.finish", static_cast<uint64_t>(rep));
    built = std::move(*pipeline).Finish();
  }
  if (!built.ok()) return built.status().ToString();
  auto cube = std::make_shared<const dwarf::DwarfCube>(std::move(*built));
  const uint64_t cube_rows = cube->stats().cell_count + cube->num_nodes();
  {
    mapper::NoSqlDwarfMapper nd(&*nd_db, "dwarfks");
    mapper::NoSqlStoreStats stats;
    double t1 = Now();
    Result<int64_t> id = Status::Internal("unstored");
    {
      Span span("mapper.nosql_dwarf_store", static_cast<uint64_t>(rep));
      id = nd.Store(*cube, {.num_threads = kThreads}, &stats);
    }
    double t2 = Now();
    if (!id.ok()) return id.status().ToString();
    *ingest_s = t2 - t0;
    out->nosql_dwarf_s = t2 - t1;
    out->rows += stats.node_rows + stats.cell_rows;
    {
      Span span("nosql.disk_size", static_cast<uint64_t>(rep));
      out->nosql_dwarf_bytes = nd_db->DiskSizeBytes().ValueOr(0);
    }
    if (check) {
      CheckCube(*cube, expected, total, "ingest cube", &run->checks);
      check_loaded("NoSQL-DWARF", nd.Load(*id));
    }
  }
  nd_db = Status::Internal("closed");
  {
    auto engine = sql::SqlEngine::Open(dir + "/sql_dwarf");
    if (!engine.ok()) return engine.status().ToString();
    mapper::SqlDwarfMapper sd(&*engine, "dwarfdb");
    sd.set_num_threads(kThreads);
    mapper::SqlDwarfStoreStats stats;
    Result<int64_t> id = Status::Internal("unstored");
    double t1 = Now();
    {
      Span span("mapper.sql_dwarf_store", static_cast<uint64_t>(rep));
      id = sd.Store(*cube, &stats);
    }
    out->sql_dwarf_s = Now() - t1;
    if (!id.ok()) return id.status().ToString();
    out->rows += stats.node_rows + stats.cell_rows + stats.node_children_rows +
                 stats.cell_children_rows;
    {
      Span span("sql.disk_size", static_cast<uint64_t>(rep));
      out->sql_dwarf_bytes = engine->DiskSizeBytes().ValueOr(0);
    }
    if (check) check_loaded("MySQL-DWARF", sd.Load(*id));
  }
  {
    auto engine = sql::SqlEngine::Open(dir + "/sql_min");
    if (!engine.ok()) return engine.status().ToString();
    mapper::SqlMinMapper sm(&*engine, "mindb");
    sm.set_num_threads(kThreads);
    Result<int64_t> id = Status::Internal("unstored");
    double t1 = Now();
    {
      Span span("mapper.sql_min_store", static_cast<uint64_t>(rep));
      id = sm.Store(*cube);
    }
    out->sql_min_s = Now() - t1;
    if (!id.ok()) return id.status().ToString();
    out->rows += cube_rows;
    {
      Span span("sql.disk_size", static_cast<uint64_t>(rep));
      out->sql_min_bytes = engine->DiskSizeBytes().ValueOr(0);
    }
    if (check) check_loaded("MySQL-Min", sm.Load(*id));
  }
  {
    auto db = nosql::Database::Open(dir + "/nosql_min");
    if (!db.ok()) return db.status().ToString();
    mapper::NoSqlMinMapper nm(&*db, "minks", {.num_threads = kThreads});
    Result<int64_t> id = Status::Internal("unstored");
    double t1 = Now();
    {
      Span span("mapper.nosql_min_store", static_cast<uint64_t>(rep));
      id = nm.Store(*cube);
    }
    out->nosql_min_s = Now() - t1;
    if (!id.ok()) return id.status().ToString();
    out->rows += cube_rows;
    {
      Span span("nosql.disk_size", static_cast<uint64_t>(rep));
      out->nosql_min_bytes = db->DiskSizeBytes().ValueOr(0);
    }
    if (check) check_loaded("NoSQL-Min", nm.Load(*id));
  }
  if (check) Note(run, "ingest: loading back and checking took %.2f s", check_seconds);
  run->attempted += 5;  // one pipeline build, four stores
  run->cube = std::move(cube);
  return "";
}

// Traced run only: each ingest layer called directly on the same documents.
std::string IngestLayerProbes(Run* run) {
  using namespace scdwarf;
  auto extractor = etl::XmlExtractor::Create("station", etl::BikesFieldSpecs());
  auto mapper = etl::TupleMapper::Create(etl::MakeBikesCubeSchema(),
                                         etl::BikesDimensionMappings(),
                                         "available_bikes");
  if (!extractor.ok() || !mapper.ok()) return "cannot build the bikes extractor";
  dwarf::DwarfBuilder builder(etl::MakeBikesCubeSchema(),
                              {.num_threads = kThreads});
  uint64_t op = 0;
  for (const std::string& document : run->in.documents) {
    ++op;
    Result<xml::XmlDocument> parsed = Status::Internal("unparsed");
    {
      Span span("xml.parse", op);
      parsed = xml::ParseXml(document);
    }
    if (!parsed.ok()) return parsed.status().ToString();
    Result<std::vector<etl::FeedRecord>> records = Status::Internal("unextracted");
    {
      Span span("etl.extract", op);
      records = extractor->ExtractFromDocument(*parsed);
    }
    if (!records.ok()) return records.status().ToString();
    std::vector<std::pair<std::vector<std::string>, dwarf::Measure>> tuples;
    {
      Span span("etl.map", op);
      for (const etl::FeedRecord& record : *records) {
        auto mapped = mapper->Map(record);
        if (!mapped.ok()) return mapped.status().ToString();
        tuples.push_back(std::move(*mapped));
      }
    }
    for (const auto& [keys, measure] : tuples) {
      Status status = builder.AddTuple(keys, measure);
      if (!status.ok()) return status.ToString();
    }
  }
  Result<dwarf::DwarfCube> built = Status::Internal("unbuilt");
  {
    Span span("dwarf.build");
    built = std::move(builder).Build();
  }
  if (!built.ok()) return built.status().ToString();
  CheckCube(*built, run->in.reference.BaseRows(), run->in.reference.total(),
            "cube built by DwarfBuilder", &run->checks);

  const std::string path = run->scratch + "/month.cf";
  for (int i = 0; i < 5; ++i) {
    Status written = Status::OK();
    {
      Span span("replica.snapshot_write", static_cast<uint64_t>(i));
      written = replica::WriteCubeSnapshot(*run->cube, 0, path);
    }
    if (!written.ok()) return written.ToString();
    Result<replica::CubeSnapshot> loaded = Status::Internal("unloaded");
    {
      Span span("replica.snapshot_load", static_cast<uint64_t>(i));
      loaded = replica::LoadCubeSnapshot(path);
    }
    if (!loaded.ok()) return loaded.status().ToString();
  }
  run->layer["replica.snapshot_bytes"] = {
      static_cast<double>(fs::file_size(path)), "bytes"};
  fs::remove(path);
  return "";
}

std::string IngestStage(Run* run) {
  Span stage("bench.ingest");
  std::vector<double> ingest_s, schemas_s;
  StoreOutcome last;
  double start = Now();
  for (int rep = 0; rep < run->plan.ingest_min_reps ||
                    Now() - start < run->plan.ingest_seconds;
       ++rep) {
    double one = 0;
    StoreOutcome outcome;
    std::string error = IngestRep(run, rep, &one, &outcome, rep == 0);
    fs::remove_all(run->scratch + "/stores");
    if (!error.empty()) return "ingest: " + error;
    ingest_s.push_back(one);
    schemas_s.push_back(outcome.nosql_dwarf_s + outcome.sql_dwarf_s +
                        outcome.sql_min_s + outcome.nosql_min_s);
    last = outcome;
  }
  run->e2e["ingest_s"] = {Median(ingest_s), "s"};
  run->e2e["stored_bytes"] = {static_cast<double>(last.nosql_dwarf_bytes),
                              "bytes"};
  run->e2e["schemas_store_s"] = {Median(schemas_s), "s"};
  run->e2e["schemas_bytes"] = {
      static_cast<double>(last.nosql_dwarf_bytes + last.nosql_min_bytes +
                          last.sql_dwarf_bytes + last.sql_min_bytes),
      "bytes"};
  Note(run, "ingest: %.0f reps, ingest_s quartiles %.3f / %.3f",
       static_cast<double>(ingest_s.size()), Quantile(ingest_s, 0.25),
       Quantile(ingest_s, 0.75));

  if (run->args.trace) {
    const scdwarf::dwarf::CubeStats& stats = run->cube->stats();
    run->layer["dwarf.nodes"] = {static_cast<double>(stats.node_count), "count"};
    run->layer["dwarf.cells"] = {static_cast<double>(stats.cell_count), "count"};
    run->layer["mapper.rows"] = {static_cast<double>(last.rows), "count"};
    run->layer["nosql.dwarf_bytes"] = {static_cast<double>(last.nosql_dwarf_bytes), "bytes"};
    run->layer["nosql.min_bytes"] = {static_cast<double>(last.nosql_min_bytes), "bytes"};
    run->layer["sql.dwarf_bytes"] = {static_cast<double>(last.sql_dwarf_bytes), "bytes"};
    run->layer["sql.min_bytes"] = {static_cast<double>(last.sql_min_bytes), "bytes"};
    std::string error = IngestLayerProbes(run);
    if (!error.empty()) return "ingest probes: " + error;
  }
  return "";
}

// ------------------------------------------------------------------- serve

struct Event {
  double end = 0;        ///< completion time
  double micros = 0;     ///< client-observed latency
};

struct ConnLog {
  std::vector<Event> one_shots;
  std::unordered_map<uint32_t, std::string> first_answer;  ///< by request
  uint64_t hits = 0;
  uint64_t failures = 0;
  uint64_t wraps = 0;
  // Cursor drains (bin1 connection only).
  struct DrainRecord {
    uint64_t rows = 0;
    double seconds = 0;
  };
  std::vector<DrainRecord> drain_records;  ///< in rotation order
  std::map<size_t, std::vector<std::string>> first_drain_pages;
  std::vector<std::string> drain_errors;
};

const char* ClientSpanName(bool bin1, Op op) {
  static const char* kNames[2][4] = {
      {"client.json.point", "client.json.aggregate", "client.json.slice",
       "client.json.rollup"},
      {"client.bin1.point", "client.bin1.aggregate", "client.bin1.slice",
       "client.bin1.rollup"}};
  return kNames[bin1 ? 1 : 0][static_cast<int>(op)];
}

bool ResponseOk(std::string_view payload) {
  std::string_view json;
  if (!UnwrapBin1(payload, &json)) return false;
  return json.substr(0, 10) == "{\"ok\":true";
}

// Drains one large slice through the router on a bin1 connection.
void DrainOnce(scdwarf::client::CubeClient& client, const Inputs& in,
               size_t which, ConnLog* log) {
  const Drain& drain = in.drains[which];
  bool keep = log->first_drain_pages.count(which) == 0;
  std::vector<std::string> pages;
  uint64_t rows = 0;
  Span span("client.bin1.drain", which);
  double t0 = Now();
  auto opened = client.CallRaw(drain.open_bin1);
  std::string_view json;
  Answer answer;
  std::string error;
  if (!opened.ok() || !UnwrapBin1(*opened, &json) ||
      !ParseAnswer(json, &answer, &error) || !answer.ok) {
    ++log->failures;
    log->drain_errors.push_back("query_open failed: " +
                                (opened.ok() ? error : opened.status().ToString()));
    return;
  }
  const std::string next = EncodeQueryNext(answer.cursor);
  bool done = false;
  while (!done) {
    auto page = client.CallRaw(next);
    if (!page.ok()) {
      ++log->failures;
      log->drain_errors.push_back("query_next failed: " + page.status().ToString());
      return;
    }
    const std::string& bytes = *page;
    if (bytes.size() > 22 && static_cast<unsigned char>(bytes[0]) == 0xB1 &&
        bytes[1] == 3) {
      done = bytes[18] != 0;
      uint32_t n = 0;
      std::memcpy(&n, bytes.data() + 19, 4);  // little-endian host
      rows += n;
    } else {
      if (!ResponseOk(bytes)) {
        ++log->failures;
        log->drain_errors.push_back("query_next returned an error");
        return;
      }
      done = bytes.size() >= 5 && bytes.compare(bytes.size() - 5, 5, "true}") == 0;
      for (size_t at = bytes.find("\"measure\":"); at != std::string::npos;
           at = bytes.find("\"measure\":", at + 10)) {
        ++rows;
      }
    }
    if (keep) pages.push_back(std::move(*page));
  }
  log->drain_records.push_back({rows, Now() - t0});
  if (rows != drain.expected_rows) {
    log->drain_errors.push_back("drain of " + std::string(kDimNames[drain.query.slice_dim]) +
                                "=" + drain.query.slice_key + " delivered " +
                                std::to_string(rows) + " rows, reference " +
                                std::to_string(drain.expected_rows));
  }
  if (keep) log->first_drain_pages[which] = std::move(pages);
}

// The measured window opens once both connections have warmed up.
struct Window {
  std::atomic<int> ready{0};
  std::atomic<double> start{0};
  std::atomic<double> deadline{0};
};

void RunConnection(int conn, uint16_t port, const Inputs& in, Window* window,
                   ConnLog* log) {
  const bool bin1 = conn == 1;
  scdwarf::client::ClientOptions options;
  options.prefer_binary = bin1;
  options.max_frame_bytes = 16 << 20;
  options.io_timeout_ms = 30000;
  scdwarf::client::CubeClient client({"127.0.0.1", port}, options);
  bool connected = client.Call("{\"op\":\"ping\"}").ok() && client.binary() == bin1;
  // Warm-up, outside the window: every dashboard query once, so that the
  // replicas' mapped snapshots are paged in and their result caches hold
  // the repeated queries. These first answers are checked like the rest.
  for (uint32_t index = 0; connected && index < in.dashboard; ++index) {
    auto response = client.CallRaw(bin1 ? in.requests[index].bin1
                                        : in.requests[index].json);
    connected = response.ok();
    if (connected) log->first_answer.emplace(index, std::move(*response));
  }
  if (!connected) ++log->failures;
  window->ready.fetch_add(1);
  while (window->start.load() == 0 || Now() < window->start.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!connected) return;
  const double deadline = window->deadline.load();
  const std::vector<uint32_t>& sequence = in.sequence[conn];
  size_t position = 0;
  size_t next_drain = static_cast<size_t>(conn) * 7 % in.drains.size();
  for (uint64_t op = 1; Now() < deadline; ++op) {
    if (bin1 && op % kDrainEvery == 0) {
      DrainOnce(client, in, next_drain, log);
      next_drain = (next_drain + 1) % in.drains.size();
      continue;
    }
    if (position == sequence.size()) {
      position = 0;
      ++log->wraps;
    }
    uint32_t index = sequence[position++];
    const Request& request = in.requests[index];
    scdwarf::Result<std::string> response = scdwarf::Status::Internal("unsent");
    double t0 = Now();
    {
      Span span(ClientSpanName(bin1, request.query.op), index);
      response = client.CallRaw(bin1 ? request.bin1 : request.json);
    }
    double t1 = Now();
    if (!response.ok() || !ResponseOk(*response)) {
      ++log->failures;
      continue;
    }
    log->one_shots.push_back({t1, (t1 - t0) * 1e6});
    bool cached = false;
    uint64_t epoch = 0;
    if (PeekEnvelope(*response, &cached, &epoch) && cached) ++log->hits;
    if (log->first_answer.count(index) == 0) {
      log->first_answer.emplace(index, std::move(*response));
    }
  }
}

// Traced run only: the same requests through each serve layer directly.
std::string ServeLayerProbes(Run* run, uint16_t router_port,
                             uint16_t replica_port) {
  using namespace scdwarf;
  const Inputs& in = run->in;
  // Router path vs. one replica straight, alternating, on dashboard
  // requests (cached on both replicas by now).
  client::CubeClient via_router({"127.0.0.1", router_port});
  client::CubeClient direct({"127.0.0.1", replica_port});
  std::vector<double> router_us, direct_us;
  for (size_t i = 0; i < 4 * in.dashboard; ++i) {
    const Request& request = in.requests[i % in.dashboard];
    if (request.query.op == Op::kSlice) continue;  // keep to small answers
    double t0 = Now();
    bool ok;
    {
      Span span("client.router_probe", i);
      ok = via_router.Call(request.json).ok();
    }
    double t1 = Now();
    {
      Span span("replica.direct", i);
      ok = direct.Call(request.json).ok() && ok;
    }
    double t2 = Now();
    if (!ok) return "router/direct probe request failed";
    router_us.push_back((t1 - t0) * 1e6);
    direct_us.push_back((t2 - t1) * 1e6);
  }
  run->layer["replica.direct_us"] = {Median(direct_us), "us"};
  run->layer["router.hop_us"] = {Median(router_us) - Median(direct_us), "us"};

  // In-process query server, cache off, over a slice of the mix.
  server::ServerOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  server::QueryServer server(DwarfCube(*run->cube), options);
  const size_t probes = std::min<size_t>(in.requests.size(), 4000);
  std::map<Op, std::vector<double>> dwarf_us;
  std::vector<double> handle_us, handle_bin1_us;
  for (size_t i = 0; i < probes; ++i) {
    const Request& request = in.requests[i];
    double t0 = Now();
    std::string json_answer;
    {
      Span span("server.handle", i);
      json_answer = server.HandleFrame(request.json);
    }
    double t1 = Now();
    std::string bin1_answer;
    {
      Span span("server.handle_bin1", i);
      bin1_answer = server.HandleBinaryFrame(request.bin1);
    }
    double t2 = Now();
    handle_us.push_back((t1 - t0) * 1e6);
    handle_bin1_us.push_back((t2 - t1) * 1e6);
    int64_t measure = 0;
    size_t rows = 0;
    static const char* kDwarfSpans[] = {"dwarf.point", "dwarf.aggregate",
                                        "dwarf.slice", "dwarf.rollup"};
    std::string error;
    {
      Span span(kDwarfSpans[static_cast<int>(request.query.op)], i);
      error = DwarfCall(*run->cube, request.query, &measure, &rows);
    }
    double t3 = Now();
    if (!error.empty()) return "direct dwarf call: " + error;
    dwarf_us[request.query.op].push_back((t3 - t2) * 1e6);
    if (i < 500) {
      run->checks.Expect("in-process JSON answer",
                         CheckResponse(in.reference, request.query, json_answer));
      run->checks.Expect("in-process bin1 answer",
                         CheckResponse(in.reference, request.query, bin1_answer));
    }
    if (request.query.op == Op::kPoint || request.query.op == Op::kAggregate) {
      Answer answer;
      answer.ok = answer.has_measure = true;
      answer.measure = measure;
      int64_t expected = 0;
      in.reference.Measure(request.query, &expected);
      run->checks.Expect("direct dwarf measure", CheckMeasure(answer, expected));
    }
  }
  run->layer["server.handle_us"] = {Median(handle_us), "us"};
  run->layer["server.handle_bin1_us"] = {Median(handle_bin1_us), "us"};
  run->layer["dwarf.point_us"] = {Median(dwarf_us[Op::kPoint]), "us"};
  run->layer["dwarf.aggregate_us"] = {Median(dwarf_us[Op::kAggregate]), "us"};
  run->layer["dwarf.rollup_us"] = {Median(dwarf_us[Op::kRollUp]), "us"};
  run->layer["dwarf.slice_us"] = {Median(dwarf_us[Op::kSlice]), "us"};

  // RowCursor drained directly over the same large slices.
  uint64_t rows = 0;
  double seconds = 0;
  for (size_t i = 0; i < in.drains.size(); ++i) {
    const Drain& drain = in.drains[i];
    auto key = run->cube->dictionary(drain.query.slice_dim).Lookup(drain.query.slice_key);
    if (!key.ok()) return "drain key not in dictionary";
    double t0 = Now();
    {
      Span span("dwarf.cursor_drain", i);
      auto cursor = dwarf::RowCursor::OverSlice(*run->cube, drain.query.slice_dim, *key);
      if (!cursor.ok()) return cursor.status().ToString();
      std::vector<dwarf::SliceRow> page;
      while (!cursor->done()) {
        page.clear();
        rows += cursor->Next(kPageSize, &page);
      }
    }
    seconds += Now() - t0;
  }
  run->layer["dwarf.cursor_rows_per_s"] = {static_cast<double>(rows) / seconds, "rows/s"};
  return "";
}

std::string ServeStage(Run* run) {
  using namespace scdwarf;
  Span stage("bench.serve");
  const Inputs& in = run->in;
  double setup_start = Now();
  const std::string spool = run->scratch + "/serve_spool";
  fs::create_directories(spool);
  Status spooled = replica::WriteCubeSnapshot(
      *run->cube, 0, spool + "/" + replica::SnapshotFileName(0));
  if (!spooled.ok()) return "serve spool: " + spooled.ToString();
  ReplicaProcess replicas[2];
  std::vector<client::Endpoint> endpoints;
  for (ReplicaProcess& replica : replicas) {
    std::string error = replica.Start(PERFBENCH_REPLICA_BIN, spool);
    if (!error.empty()) return "serve replica: " + error;
    endpoints.push_back({"127.0.0.1", replica.port()});
  }
  replica::RouterOptions router_options;
  router_options.health_interval_ms = 0;  // a fixed fleet
  router_options.client.max_frame_bytes = 16 << 20;
  replica::Router router(endpoints, router_options);
  if (router.CheckReplicasOnce() != endpoints.size()) {
    return "serve: a replica did not answer its first ping";
  }
  server::TcpServer front(&router, 16 << 20);
  if (Status started = front.Start(0); !started.ok()) {
    return "serve router listener: " + started.ToString();
  }
  const uint16_t port = static_cast<uint16_t>(front.port());
  run->setup_seconds += Now() - setup_start;

  ConnLog logs[2];
  Window window;
  double start = 0;
  {
    std::thread threads[2];
    for (int c = 0; c < 2; ++c) {
      threads[c] = std::thread(RunConnection, c, port, std::cref(in), &window,
                               &logs[c]);
    }
    while (window.ready.load() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    start = Now() + 0.01;
    window.deadline = start + run->plan.serve_seconds;
    window.start = start;
    for (std::thread& t : threads) t.join();
  }

  std::string probe_error;
  if (run->args.trace) probe_error = ServeLayerProbes(run, port, replicas[0].port());
  front.Stop();
  for (ReplicaProcess& replica : replicas) replica.Stop();
  fs::remove_all(spool);
  if (!probe_error.empty()) return "serve probes: " + probe_error;

  // serve_qps: per window, each connection's one-shots over the time it
  // spent on one-shots (the bin1 connection also drains), summed over the
  // connections; the median over windows.
  std::vector<double> latencies;
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(run->plan.serve_seconds / kWindowSeconds));
  std::vector<double> per_window(windows, 0);
  uint64_t hits = 0, lookups = 0;
  for (const ConnLog& log : logs) {
    std::vector<double> count(windows, 0), busy(windows, 0);
    for (const Event& e : log.one_shots) {
      latencies.push_back(e.micros);
      size_t w = static_cast<size_t>((e.end - start) / kWindowSeconds);
      if (w < windows) {
        count[w] += 1;
        busy[w] += e.micros * 1e-6;
      }
    }
    for (size_t w = 0; w < windows; ++w) {
      if (busy[w] > 0) per_window[w] += count[w] / busy[w];
    }
    hits += log.hits;
    lookups += log.one_shots.size();
    run->attempted += log.one_shots.size() + log.failures + log.drain_records.size();
    run->failed += log.failures;
    if (log.wraps > 0) Note(run, "serve: a connection reused its request sequence %.0f times", static_cast<double>(log.wraps));
  }
  // drain_rows_per_s over whole rotations of the drain list, so that every
  // run weighs large and small slices alike.
  const auto& drains = logs[1].drain_records;
  size_t counted = drains.size() / in.drains.size() * in.drains.size();
  if (counted == 0) counted = drains.size();
  uint64_t drained_rows = 0;
  double drain_seconds = 0;
  for (size_t i = 0; i < counted; ++i) {
    drained_rows += drains[i].rows;
    drain_seconds += drains[i].seconds;
  }
  if (latencies.empty() || counted == 0) return "serve: no requests completed";
  run->e2e["serve_qps"] = {Median(per_window), "req/s"};
  run->e2e["serve_p50_us"] = {Median(latencies), "us"};
  run->e2e["drain_rows_per_s"] = {
      static_cast<double>(drained_rows) / drain_seconds, "rows/s"};
  Note(run, "serve: %.0f one-shots, p50 %.1f us, tail %.1f us",
       static_cast<double>(latencies.size()), Median(latencies), Tail(latencies));
  Note(run, "serve: %.0f drains, cache hits %.0f of %.0f one-shots",
       static_cast<double>(drains.size()), static_cast<double>(hits),
       static_cast<double>(lookups));
  if (run->args.trace) {
    run->layer["server.cache_hits"] = {static_cast<double>(hits), "count"};
    run->layer["server.cache_lookups"] = {static_cast<double>(lookups), "count"};
    run->layer["server.cache_hit_ratio"] = {
        static_cast<double>(hits) / static_cast<double>(lookups), "ratio"};
    run->layer["tail.serve_us"] = {Tail(latencies), "us"};
  }

  // Checks, outside the window: every distinct answer, every drain.
  Span check_span("bench.check_serve");
  const double check_began = Now();
  for (const ConnLog& log : logs) {
    for (const auto& [index, payload] : log.first_answer) {
      run->checks.Expect("serve answer to " + in.requests[index].json,
                         CheckResponse(in.reference, in.requests[index].query, payload));
    }
    for (const std::string& error : log.drain_errors) {
      run->checks.Expect("serve drain", error);
    }
    for (const auto& [which, pages] : log.first_drain_pages) {
      std::vector<Row> rows;
      std::string error;
      for (const std::string& page : pages) {
        Answer answer;
        std::string_view json;
        bool decoded = static_cast<unsigned char>(page[0]) == 0xB1 && page[1] == 3
                           ? DecodeCursorPage(page, &answer, &error)
                           : UnwrapBin1(page, &json) && ParseAnswer(json, &answer, &error);
        if (!decoded) break;
        for (Row& row : answer.rows) rows.push_back(std::move(row));
      }
      const Query& query = in.drains[which].query;
      run->checks.Expect("drained rows of " + ToJson(query),
                         error.empty() ? CheckRows(std::move(rows), in.reference.Rows(query))
                                       : error);
    }
  }
  Note(run, "serve: checking took %.2f s", Now() - check_began);
  return "";
}

// ----------------------------------------------------------------- publish

struct ReaderLog {
  std::vector<double> micros;
  std::vector<double> first_seen;  ///< by epoch: first response at >= epoch
  struct Sample {
    size_t read = 0;
    uint64_t epoch = 0;
    std::string response;
  };
  std::vector<Sample> samples;
  uint64_t reads = 0;
  uint64_t failures = 0;
  double window_start = 0, window_end = 0;
  uint64_t window_reads = 0;
};

void RunReader(uint16_t port, const Inputs& in, size_t publishes,
               const std::atomic<bool>* stop, ReaderLog* log) {
  scdwarf::client::CubeClient client({"127.0.0.1", port});
  log->first_seen.assign(publishes + 1, -1);
  uint64_t seen = 0;
  for (size_t i = 0; !stop->load(); ++i) {
    const Request& read = in.reads[i % in.reads.size()];
    double t0 = Now();
    scdwarf::Result<std::string> response = scdwarf::Status::Internal("unsent");
    {
      Span span("client.read", i);
      response = client.Call(read.json);
    }
    double t1 = Now();
    ++log->reads;
    bool cached = false;
    uint64_t epoch = 0;
    if (!response.ok() || !ResponseOk(*response) ||
        !PeekEnvelope(*response, &cached, &epoch) || epoch > publishes) {
      ++log->failures;
      continue;
    }
    log->micros.push_back((t1 - t0) * 1e6);
    if (t1 >= log->window_start && (log->window_end == 0 || t1 <= log->window_end)) {
      ++log->window_reads;
    }
    bool new_epoch = epoch > seen || i == 0;
    for (uint64_t e = seen + 1; e <= epoch; ++e) log->first_seen[e] = t1;
    seen = std::max(seen, epoch);
    if (new_epoch || i % 64 == 0) {
      log->samples.push_back({i % in.reads.size(), epoch, std::move(*response)});
    }
  }
}

// Traced run only: the publish path's layers called directly on the batches.
std::string PublishLayerProbes(Run* run, size_t publishes) {
  using namespace scdwarf;
  const Inputs& in = run->in;
  DwarfCube cube(*run->cube);
  server::ServerOptions options;
  options.num_workers = 1;
  server::QueryServer bare(DwarfCube(*run->cube), options);
  const std::string path = run->scratch + "/probe.cf";
  for (size_t k = 0; k < publishes; ++k) {
    dwarf::CubeUpdater updater{DwarfCube(cube)};
    for (const auto& [keys, measure] : in.batches[k]) {
      Status added = updater.AddTuple(keys, measure);
      if (!added.ok()) return added.ToString();
    }
    // The store's compaction rule: a full rebuild once 64 chunks pile up.
    bool compact = cube.arena_chunks() >= 64;
    Result<DwarfCube> next = Status::Internal("unapplied");
    {
      Span span(compact ? "dwarf.rebuild" : "dwarf.apply", k);
      next = compact ? std::move(updater).Rebuild() : std::move(updater).Apply();
    }
    if (!next.ok()) return next.status().ToString();
    cube = std::move(*next);
    Result<uint64_t> epoch = Status::Internal("unpublished");
    {
      Span span("server.apply_update_nospool", k);
      epoch = bare.ApplyUpdate(in.batches[k]);
    }
    if (!epoch.ok()) return epoch.status().ToString();
    Status written = Status::OK();
    {
      Span span("replica.spool_write", k);
      written = replica::WriteCubeSnapshot(cube, k + 1, path);
    }
    if (!written.ok()) return written.ToString();
    Result<replica::CubeSnapshot> loaded = Status::Internal("unloaded");
    {
      Span span("replica.spool_load", k);
      loaded = replica::LoadCubeSnapshot(path);
    }
    if (!loaded.ok()) return loaded.status().ToString();
  }
  fs::remove(path);
  return "";
}

std::string PublishStage(Run* run) {
  using namespace scdwarf;
  Span stage("bench.publish");
  const Inputs& in = run->in;
  const size_t publishes = run->plan.publishes;
  double setup_start = Now();
  const std::string spool = run->scratch + "/publish_spool";
  fs::create_directories(spool);

  struct Spool {
    std::mutex mu;
    std::vector<uint64_t> bytes;  ///< by epoch
    std::unique_ptr<replica::SnapshotNotifier> notifier;
    size_t notified = 0;
  } state;
  state.bytes.assign(publishes + 1, 0);
  server::ServerOptions options;
  options.num_workers = 1;
  options.snapshot_dir = spool;
  options.retain_epochs = kRetainEpochs;
  options.post_publish = [&state, &spool](uint64_t epoch, const std::string& path) {
    std::lock_guard<std::mutex> lock(state.mu);
    std::error_code ec;
    if (epoch < state.bytes.size()) state.bytes[epoch] = fs::file_size(path, ec);
    if (state.notifier != nullptr) state.notified += state.notifier->NotifyAll(path);
    // Keep the spool to its trailing epochs (the publisher never prunes).
    if (epoch >= kRetainEpochs) {
      fs::remove(spool + "/" + replica::SnapshotFileName(epoch - kRetainEpochs), ec);
    }
  };
  server::QueryServer publisher(DwarfCube(*run->cube), options);
  ReplicaProcess replica;
  if (std::string error = replica.Start(PERFBENCH_REPLICA_BIN, spool); !error.empty()) {
    return "publish replica: " + error;
  }
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.notifier = std::make_unique<replica::SnapshotNotifier>(
        std::vector<client::Endpoint>{{"127.0.0.1", replica.port()}});
  }
  run->setup_seconds += Now() - setup_start;

  std::atomic<bool> stop{false};
  ReaderLog reader;
  const double start = Now() + 0.2;
  reader.window_start = start;
  std::thread reader_thread(RunReader, replica.port(), std::cref(in), publishes,
                            &stop, &reader);
  std::vector<double> due(publishes), publish_ms, busy_ms;
  std::string error;
  const double interval = kPublishIntervalMs / 1000.0;
  for (size_t k = 0; k < publishes; ++k) {
    due[k] = start + static_cast<double>(k) * interval;
    double now = Now();
    if (now < due[k]) {
      std::this_thread::sleep_for(std::chrono::duration<double>(due[k] - now));
    }
    Result<uint64_t> epoch = Status::Internal("unpublished");
    double began = Now();
    {
      Span span("server.apply_update", k);
      epoch = publisher.ApplyUpdate(in.batches[k]);
    }
    double done = Now();
    busy_ms.push_back((done - began) * 1000.0);
    ++run->attempted;
    if (!epoch.ok() || *epoch != k + 1) {
      ++run->failed;
      error = "publish " + std::to_string(k) + ": " +
              (epoch.ok() ? "unexpected epoch" : epoch.status().ToString());
      break;
    }
    publish_ms.push_back((done - due[k]) * 1000.0);
  }
  reader.window_end = Now();
  // Let the reader observe the final epoch, then stop it.
  for (double limit = Now() + 2.0;
       Now() < limit && reader.first_seen.size() > publishes &&
       reader.first_seen[publishes] < 0;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  reader_thread.join();
  replica.Stop();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.notifier.reset();
  }
  run->attempted += reader.reads;
  run->failed += reader.failures;
  if (!error.empty()) return error;

  std::vector<double> visible_ms;
  for (size_t k = 0; k < publishes; ++k) {
    if (reader.first_seen[k + 1] < 0) return "publish: the replica never served epoch " + std::to_string(k + 1);
    visible_ms.push_back((reader.first_seen[k + 1] - due[k]) * 1000.0);
  }
  uint64_t spooled = 0, largest = 0;
  for (size_t e = 1; e <= publishes; ++e) {
    spooled += state.bytes[e];
    largest = std::max(largest, state.bytes[e]);
  }
  run->e2e["publish_ms"] = {Median(publish_ms), "ms"};
  run->e2e["visible_ms"] = {Median(visible_ms), "ms"};
  run->e2e["spool_bytes_per_publish"] = {
      static_cast<double>(spooled) / static_cast<double>(publishes), "bytes"};
  run->e2e["publish_read_qps"] = {
      static_cast<double>(reader.window_reads) / (reader.window_end - start), "req/s"};
  Note(run, "publish: ApplyUpdate itself median %.2f ms, tail %.2f ms",
       Median(busy_ms), Tail(busy_ms));
  Note(run, "publish: %.0f publishes, publish_ms tail %.2f, visible_ms tail %.2f",
       static_cast<double>(publishes), Tail(publish_ms), Tail(visible_ms));
  Note(run, "publish: %.0f reads, read tail %.1f us, largest spool file %.0f B",
       static_cast<double>(reader.reads), Tail(reader.micros),
       static_cast<double>(largest));
  if (state.notified != publishes) {
    run->checks.Expect("replica notified of every publish",
                       std::to_string(state.notified) + " of " +
                           std::to_string(publishes) + " notifications succeeded");
  }

  // Checks, after the stage.
  {
    Span check_span("bench.check_publish");
    const double check_began = Now();
    int64_t published = 0;
    std::vector<Tuple> all_batches;
    for (size_t k = 0; k < publishes; ++k) {
      for (const Tuple& t : in.batch_tuples[k]) {
        published += t.measure;
        all_batches.push_back(t);
      }
    }
    std::shared_ptr<const DwarfCube> final_cube = publisher.store().snapshot().cube;
    Reference expected;
    for (const Tuple& t : in.reference.base()) expected.Add(t);
    for (const Tuple& t : all_batches) expected.Add(t);
    expected.Finish();
    CheckCube(*final_cube, expected.BaseRows(), in.reference.total() + published,
              "final published cube", &run->checks);
    dwarf::CubeUpdater rebuild{DwarfCube(*run->cube)};
    for (size_t k = 0; k < publishes; ++k) {
      for (const auto& [keys, measure] : in.batches[k]) {
        Status added = rebuild.AddTuple(keys, measure);
        if (!added.ok()) return added.ToString();
      }
    }
    auto rebuilt = std::move(rebuild).Rebuild();
    auto applied_base = dwarf::ExtractBaseTuples(*final_cube);
    if (!rebuilt.ok() || !applied_base.ok()) return "publish: Rebuild failed";
    auto rebuilt_base = dwarf::ExtractBaseTuples(*rebuilt);
    if (!rebuilt_base.ok()) return "publish: Rebuild extraction failed";
    std::vector<Row> rebuilt_rows = ToRows(*rebuilt_base);
    std::sort(rebuilt_rows.begin(), rebuilt_rows.end());
    run->checks.Expect("Apply == Rebuild", CheckRows(ToRows(*applied_base), rebuilt_rows));
    // Reader answers at their epochs.
    for (const ReaderLog::Sample& sample : reader.samples) {
      const Query& query = in.reads[sample.read].query;
      int64_t value = 0;
      in.reference.Measure(query, &value);
      for (uint64_t b = 0; b < sample.epoch; ++b) {
        value += SumMatching(query, in.batch_tuples[b]);
      }
      Answer answer;
      std::string parse_error;
      if (!ParseAnswer(sample.response, &answer, &parse_error)) {
        run->checks.Expect("reader answer", parse_error);
      } else {
        run->checks.Expect("reader answer at epoch " + std::to_string(sample.epoch),
                           CheckMeasure(answer, value));
      }
    }
    Note(run, "publish: checking took %.2f s", Now() - check_began);
  }
  fs::remove_all(spool);

  if (run->args.trace) {
    run->layer["replica.spool_file_bytes_max"] = {static_cast<double>(largest), "bytes"};
    run->layer["tail.publish_ms"] = {Tail(publish_ms), "ms"};
    run->layer["tail.visible_ms"] = {Tail(visible_ms), "ms"};
    run->layer["tail.read_us"] = {Tail(reader.micros), "us"};
    std::string probe_error = PublishLayerProbes(run, kCompactingPublishes);
    if (!probe_error.empty()) return "publish probes: " + probe_error;
  }
  return "";
}

// ----------------------------------------------------------------- output

void AddSpanMetrics(Run* run) {
  const std::vector<SpanRecord> records = spans::Collect();
  auto median_of = [&](std::initializer_list<const char*> names, double scale) {
    std::vector<double> all;
    for (const char* name : names) {
      std::vector<double> d = spans::Durations(records, name);
      all.insert(all.end(), d.begin(), d.end());
    }
    return Median(all) * scale;
  };
  auto sum_of = [&](const char* name, double scale) {
    double total = 0;
    for (double d : spans::Durations(records, name)) total += d;
    return total * scale;
  };
  const double ms = 1e-3;
  auto& L = run->layer;
  L["xml.parse_ms"] = {sum_of("xml.parse", ms), "ms"};
  L["etl.extract_ms"] = {sum_of("etl.extract", ms), "ms"};
  L["etl.map_ms"] = {sum_of("etl.map", ms), "ms"};
  L["etl.consume_ms"] = {median_of({"etl.consume"}, ms), "ms"};
  L["etl.finish_ms"] = {median_of({"etl.finish"}, ms), "ms"};
  L["dwarf.build_ms"] = {median_of({"dwarf.build"}, ms), "ms"};
  L["mapper.nosql_dwarf_store_ms"] = {median_of({"mapper.nosql_dwarf_store"}, ms), "ms"};
  L["mapper.nosql_min_store_ms"] = {median_of({"mapper.nosql_min_store"}, ms), "ms"};
  L["mapper.sql_dwarf_store_ms"] = {median_of({"mapper.sql_dwarf_store"}, ms), "ms"};
  L["mapper.sql_min_store_ms"] = {median_of({"mapper.sql_min_store"}, ms), "ms"};
  L["replica.snapshot_write_ms"] = {median_of({"replica.snapshot_write"}, ms), "ms"};
  L["replica.snapshot_load_ms"] = {median_of({"replica.snapshot_load"}, ms), "ms"};
  L["client.point_us"] = {median_of({"client.json.point", "client.bin1.point"}, 1), "us"};
  L["client.aggregate_us"] = {median_of({"client.json.aggregate", "client.bin1.aggregate"}, 1), "us"};
  L["client.rollup_us"] = {median_of({"client.json.rollup", "client.bin1.rollup"}, 1), "us"};
  L["client.slice_us"] = {median_of({"client.json.slice", "client.bin1.slice"}, 1), "us"};
  L["client.json_us"] = {median_of({"client.json.point", "client.json.aggregate",
                                    "client.json.rollup", "client.json.slice"}, 1), "us"};
  L["client.bin1_us"] = {median_of({"client.bin1.point", "client.bin1.aggregate",
                                    "client.bin1.rollup", "client.bin1.slice"}, 1), "us"};
  L["dwarf.apply_ms"] = {median_of({"dwarf.apply"}, ms), "ms"};
  L["dwarf.rebuild_ms"] = {median_of({"dwarf.rebuild"}, ms), "ms"};
  L["server.apply_update_ms"] = {median_of({"server.apply_update_nospool"}, ms), "ms"};
  L["replica.spool_write_ms"] = {median_of({"replica.spool_write"}, ms), "ms"};
  L["replica.spool_load_ms"] = {median_of({"replica.spool_load"}, ms), "ms"};
  L["client.read_us"] = {median_of({"client.read"}, 1), "us"};
  for (const auto& [layer, self_ms] : spans::SelfMillisByLayer(records)) {
    L[layer + ".self_ms"] = {self_ms, "ms"};
  }
  std::ofstream out(run->args.trace_out, std::ios::binary | std::ios::trunc);
  out << spans::ToChromeJson(records);
  Note(run, "trace: %.0f spans written", static_cast<double>(records.size()));
}

void PrintResult(const Run& run, bool correct) {
  for (const std::string& line : run.notes) std::fprintf(stderr, "%s\n", line.c_str());
  for (const std::string& failure : run.checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::fprintf(stderr, "checks passed: %llu\n",
               static_cast<unsigned long long>(run.checks.passed));
  const auto& metrics = run.args.trace ? run.layer : run.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : metrics) {
    std::fprintf(stderr, "  %-30s %16.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|serve|publish "
               "--seed N --seconds S --trace 0|1 [--scratch DIR] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

int Main(int argc, char** argv, double process_start) {
  Run run;
  run.process_start = process_start;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") run.args.workload = value;
    else if (flag == "--seed") run.args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") run.args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") run.args.trace = value == "1";
    else if (flag == "--scratch") run.args.scratch = value;
    else if (flag == "--trace-out") run.args.trace_out = value;
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (run.args.workload != "ingest" && run.args.workload != "serve" &&
      run.args.workload != "publish") {
    return Usage("unknown workload");
  }
  if (!(run.args.seconds > 0)) return Usage("--seconds must be positive");
  if (run.args.scratch.empty()) {
    run.args.scratch = ".bench_out/scratch-" + std::to_string(::getpid());
  }
  if (run.args.trace_out.empty()) {
    run.args.trace_out = ".bench_out/trace-" + run.args.workload + "-" +
                         std::to_string(run.args.seed) + ".json";
  }
  run.plan = MakePlan(run.args);
  spans::Enable(run.args.trace);
  InstallChildReaper();

  // Removes every store, spool and probe file on every return path.
  struct ScratchGuard {
    std::string dir;
    ~ScratchGuard() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } guard{run.args.scratch};
  run.scratch = run.args.scratch;
  std::error_code ec;
  fs::remove_all(run.scratch, ec);
  fs::create_directories(run.scratch, ec);
  if (ec) return Usage("cannot create the scratch directory");

  InputSizes sizes;
  // The traced run's publish probes always pass the compaction point.
  sizes.publishes = std::max(run.plan.publishes, kCompactingPublishes);
  sizes.page_size = kPageSize;
  // Fresh requests for 5000 one-shots per second per connection (half of
  // them fresh), about three times what the JSON connection completes on a
  // quiet 4-core host.
  sizes.fresh_per_connection =
      static_cast<size_t>(std::max(2.0, run.plan.serve_seconds) * 2500.0);
  if (std::string error = GenerateInputs(run.args.seed, sizes, &run.in);
      !error.empty()) {
    std::fprintf(stderr, "perfbench: input generation failed: %s\n", error.c_str());
    return 1;
  }
  run.setup_seconds = Now() - run.process_start;
  Note(&run, "inputs: %.0f documents, %.0f requests, %.0f per connection sequence",
       static_cast<double>(run.in.documents.size()),
       static_cast<double>(run.in.requests.size()),
       static_cast<double>(run.in.sequence[0].size()));

  std::string error;
  for (auto [name, stage] : {std::pair{"ingest", &IngestStage},
                             std::pair{"serve", &ServeStage},
                             std::pair{"publish", &PublishStage}}) {
    double began = Now();
    error = stage(&run);
    if (!error.empty()) break;
    Note(&run, (std::string(name) + " stage: %.2f s, peak RSS %.0f MB").c_str(),
         Now() - began, PeakRssMb());
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  run.e2e["setup_s"] = {run.setup_seconds, "s"};
  run.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  // Too unsteady on a shared 4-vCPU host for any bound (run-to-run spreads
  // up to 30%; perfbench/README.md): reported with the per-layer metrics.
  for (const char* unsteady : {"serve_p50_us", "publish_read_qps"}) {
    run.layer[unsteady] = run.e2e[unsteady];
    run.e2e.erase(unsteady);
  }
  if (run.args.trace) {
    fs::create_directories(fs::path(run.args.trace_out).parent_path(), ec);
    AddSpanMetrics(&run);
    for (const auto& [name, metric] : run.e2e) {
      Note(&run, ("untraced figure under tracing: " + name + " = %.6f").c_str(),
           metric.value);
    }
  }
  bool correct = run.checks.failures.empty();
  PrintResult(run, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  double process_start = perfbench::Now();
  return perfbench::Main(argc, argv, process_start);
}
