// The three workloads. Every round of every workload has the same
// skeleton: set up a durable 4-shard collection (WAL fsync policy
// `group`), run a fixed, seeded operation list against it, read its sizes
// while it is alive, close it, time its recovery, and check the recovered
// collection against the acknowledged documents. Reads go through the
// router and are checked against reference.h, never against a stored
// copy of an earlier run's output.

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collection/collection.h"
#include "common/rng.h"
#include "dataguide/dataguide.h"
#include "index/search_index.h"
#include "json/dom.h"
#include "json/parser.h"
#include "oson/oson.h"
#include "calibration.h"
#include "perfbench.h"
#include "rdbms/table.h"
#include "reference.h"
#include "stats/path_stats.h"
#include "telemetry/memory_tracker.h"
#include "wal/wal.h"
#include "workloads/generators.h"

namespace fsdm::perfbench {

namespace {

namespace fs = std::filesystem;
using collection::JsonCollection;
using collection::PathPredicate;
using rdbms::CompareOp;
using Clock = std::chrono::steady_clock;
using ParsedDocs = std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>>;

constexpr size_t kShards = 4;
constexpr size_t kGroupOps = 32;  // CollectionOptions::wal_group_ops default
constexpr const char* kCollection = "PERF";

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Operation counts of one round. Every round of a run repeats the same
// inputs, so the log recovery replays and the sizes read are the same in
// every round.
struct Scale {
  size_t docs;                       // ingest_nobench inserts, query preload
  size_t mix[kShapeCount];           // query_nobench reads per shape
  size_t passes;                     // query_nobench: the mix, this many times
  size_t readback[kShapeCount];      // reads per shape after a reopen
  size_t kv_preload;                 // ycsb_kv
  size_t kv_ops;
};

Scale ScaleFor(bool tiny) {
  if (tiny) return {200, {4, 4, 4, 4, 2}, 2, {3, 3, 3, 3, 3}, 100, 200};
  return {4000, {200, 200, 200, 100, 40}, 3, {40, 40, 40, 40, 20}, 2000, 4000};
}

struct Query {
  int shape = kPoint;
  std::vector<PathPredicate> preds;
  std::vector<int64_t> expected;  // sorted keys, from the reference evaluator
  std::string doc;                // key-value point reads: the latest version
};

struct KvOp {
  enum Kind { kRead, kReplace, kInsert, kDelete, kCheckpoint };
  Kind kind = kRead;
  int64_t key = 0;
  std::string text;  // new version (replace/insert) or expected one (read)
};

/// Inputs of one run, generated once from the seed before any timing.
struct Inputs {
  std::vector<std::string> docs;  // document i has key i
  std::vector<Query> reads;       // query_nobench mix / read-back after reopen
  size_t passes = 1;              // timed passes over `reads` (query_nobench)
  std::vector<KvOp> kv_ops;
  // JSON_VALUE virtual columns the imc_range reads compare.
  std::vector<std::pair<std::string, sqljson::Returning>> vcs;
};

struct Ctx {
  const Options& options;
  Ledger* ledger;
  std::string dir;  // the collection's WAL directory
  bool perturb_pending;
  int failures_logged = 0;
  Calibrator cal{};

  /// A span timed around set-up or a timed pass: calibration slices that
  /// run inside it (between its operations) are taken out again.
  struct Span {
    Stopwatch watch;
    Elapsed slices_before;
  };
  Span Start() const { return {Stopwatch(), cal.spent()}; }
  Elapsed Stop(const Span& span) const {
    Elapsed e = span.watch.Stop();
    e.cpu_s -= cal.spent().cpu_s - span.slices_before.cpu_s;
    e.wall_s -= cal.spent().wall_s - span.slices_before.wall_s;
    return e;
  }

  bool trace() const { return options.trace; }
  void Layer(const std::string& name, double v) { ledger->layer[name].Add(v); }
  void Failed(OpTally* tally, const std::string& what) {
    ++tally->failed;
    if (failures_logged++ < 5) fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
};

// --- Input generation ---------------------------------------------------

KeyModel ModelOf(const std::vector<std::string>& docs) {
  KeyModel model;
  for (size_t i = 0; i < docs.size(); ++i) {
    model.Put(static_cast<int64_t>(i), docs[i], 0);
  }
  return model;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

PathPredicate Cmp(const char* path, CompareOp op, Value literal) {
  return PathPredicate::Compare(path, op, std::move(literal));
}

std::string SparseFieldOf(const json::JsonNode& doc, Rng* rng) {
  std::vector<std::string> sparse;
  for (size_t f = 0; f < doc.field_count(); ++f) {
    if (doc.field_name(f).rfind("sparse_", 0) == 0) {
      sparse.push_back(doc.field_name(f));
    }
  }
  return "$." + sparse[rng->Uniform(sparse.size())];
}

// NOBENCH reads, `counts[shape]` of each, literals drawn from the
// documents so that point, exists and conj reads find something.
std::vector<Query> NobenchReads(const ParsedDocs& docs, const size_t* counts,
                                Rng* rng) {
  std::vector<Query> reads;
  for (int shape = 0; shape < kShapeCount; ++shape) {
    for (size_t k = 0; k < counts[shape]; ++k) {
      const json::JsonNode& doc =
          *docs.at(static_cast<int64_t>(rng->Uniform(docs.size())));
      Query q;
      q.shape = shape;
      switch (shape) {
        case kPoint:
          q.preds = {Cmp("$.str1", CompareOp::kEq, doc.GetField("str1")->scalar())};
          break;
        case kExists:
          q.preds = {PathPredicate::Exists(SparseFieldOf(doc, rng))};
          break;
        case kConj:
          q.preds = {PathPredicate::Exists(SparseFieldOf(doc, rng)),
                     Cmp("$.thousandth", CompareOp::kEq,
                         doc.GetField("thousandth")->scalar())};
          break;
        case kImcRange:
        case kFull: {
          const int64_t lo = rng->Range(0, 980000);
          const char* path = shape == kImcRange ? "$.num" : "$.nested_obj.num";
          q.preds = {Cmp(path, CompareOp::kGe, Value::Int64(lo)),
                     Cmp(path, CompareOp::kLt, Value::Int64(lo + 20000))};
          break;
        }
      }
      q.expected = ExpectedKeys(docs, q.preds);
      reads.push_back(std::move(q));
    }
  }
  Shuffle(&reads, rng);
  return reads;
}

std::string YcsbKey(int64_t key) { return "user" + std::to_string(key); }

// Key-value reads after the reopen: every shape but point, which the mix
// itself measures. YCSB documents carry no sparse or numeric path, so the
// shapes map onto key ranges and field ranges (README.md).
std::vector<Query> YcsbReads(const ParsedDocs& docs, const size_t* counts,
                             Rng* rng) {
  std::vector<std::string> keys;
  std::vector<int64_t> ids;
  for (const auto& [id, doc] : docs) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (int64_t id : ids) keys.push_back(YcsbKey(id));
  std::sort(keys.begin(), keys.end());
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<Query> reads;
  for (int shape = kExists; shape < kShapeCount; ++shape) {
    for (size_t k = 0; k < counts[shape]; ++k) {
      Query q;
      q.shape = shape;
      const std::string field = "$.field" + std::to_string(rng->Uniform(10));
      switch (shape) {
        case kExists:
          q.preds = {PathPredicate::Exists(field)};
          break;
        case kConj:
          q.preds = {Cmp("$.key", CompareOp::kEq,
                         Value::String(YcsbKey(ids[rng->Uniform(ids.size())]))),
                     PathPredicate::Exists(field)};
          break;
        case kImcRange: {
          const size_t i = rng->Uniform(keys.size());
          const size_t j = std::min(i + 40, keys.size() - 1);
          q.preds = {Cmp("$.key", CompareOp::kGe, Value::String(keys[i])),
                     Cmp("$.key", CompareOp::kLt, Value::String(keys[j]))};
          break;
        }
        case kFull: {
          const char c = kChars[rng->Uniform(36)];
          q.preds = {Cmp("$.field0", CompareOp::kGe, Value::String(std::string(1, c))),
                     Cmp("$.field0", CompareOp::kLt,
                         Value::String(std::string(1, static_cast<char>(c + 1))))};
          break;
        }
      }
      q.expected = ExpectedKeys(docs, q.preds);
      reads.push_back(std::move(q));
    }
  }
  Shuffle(&reads, rng);
  return reads;
}

// YCSB-style mix: 50% point reads of a live key, 30% replaces, 10%
// inserts and 10% deletes, in a seeded order, with a checkpoint after each
// fifth of the operations but the last, so a redo tail follows the final
// checkpoint. The counts per kind are exact, so sizes and log volume do
// not depend on the seed's luck.
void YcsbMix(const Scale& scale, Rng* rng, Inputs* in) {
  std::vector<KvOp::Kind> kinds;
  for (size_t i = 0; i < scale.kv_ops; ++i) {
    const size_t tenth = i * 10 / scale.kv_ops;
    kinds.push_back(tenth < 5   ? KvOp::kRead
                    : tenth < 8 ? KvOp::kReplace
                    : tenth < 9 ? KvOp::kInsert
                                : KvOp::kDelete);
  }
  Shuffle(&kinds, rng);
  KeyModel model = ModelOf(in->docs);
  int64_t next_key = static_cast<int64_t>(in->docs.size());
  const size_t every = scale.kv_ops / 5;
  for (size_t i = 0; i < scale.kv_ops; ++i) {
    KvOp op;
    op.kind = kinds[i];
    if (op.kind == KvOp::kInsert) {
      op.key = next_key++;
    } else {
      op.key = model.live()[rng->Uniform(model.size())];
    }
    switch (op.kind) {
      case KvOp::kRead:
        op.text = model.Find(op.key)->text;
        break;
      case KvOp::kReplace:
      case KvOp::kInsert:
        op.text = workloads::Ycsb(rng, op.key);
        model.Put(op.key, op.text, 0);
        break;
      default:
        model.Erase(op.key);
        break;
    }
    in->kv_ops.push_back(std::move(op));
    if ((i + 1) % every == 0 && i + 1 < scale.kv_ops) {
      KvOp checkpoint;
      checkpoint.kind = KvOp::kCheckpoint;
      in->kv_ops.push_back(std::move(checkpoint));
    }
  }
  in->reads = YcsbReads(ParseAll(model), scale.readback, rng);
}

Inputs MakeInputs(const std::string& workload, uint64_t seed,
                  const Scale& scale) {
  Inputs in;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  if (workload == "ycsb_kv") {
    for (size_t i = 0; i < scale.kv_preload; ++i) {
      in.docs.push_back(workloads::Ycsb(&rng, static_cast<int64_t>(i)));
    }
    YcsbMix(scale, &rng, &in);
    in.vcs = {{"$.key", sqljson::Returning::kString}};
    return in;
  }
  for (size_t i = 0; i < scale.docs; ++i) {
    in.docs.push_back(workloads::Nobench(&rng, static_cast<int64_t>(i)));
  }
  const ParsedDocs parsed = ParseAll(ModelOf(in.docs));
  if (workload == "query_nobench") {
    in.reads = NobenchReads(parsed, scale.mix, &rng);
    in.passes = scale.passes;
  } else {
    in.reads = NobenchReads(parsed, scale.readback, &rng);
  }
  in.vcs = {{"$.num", sqljson::Returning::kNumber},
            {"$.str1", sqljson::Returning::kString}};
  return in;
}

// --- Engine calls -------------------------------------------------------

struct Handle {
  std::unique_ptr<rdbms::Database> db;
  std::unique_ptr<JsonCollection> coll;  // declared after db: destroyed first

  void Close() {
    coll.reset();
    db.reset();
  }
};

bool Open(Ctx* c, Handle* h) {
  collection::CollectionOptions options;
  options.shard_count = kShards;
  options.wal_dir = c->dir;
  options.wal_fsync = wal::FsyncPolicy::kGroup;
  options.wal_group_ops = kGroupOps;
  OpTally& tally = c->ledger->Op("open");
  ++tally.attempted;
  h->db = std::make_unique<rdbms::Database>();
  Result<std::unique_ptr<JsonCollection>> coll =
      JsonCollection::Create(h->db.get(), kCollection, options);
  if (!coll.ok()) {
    c->Failed(&tally, "open: " + coll.status().ToString());
    h->db.reset();
    return false;
  }
  h->coll = coll.MoveValue();
  return true;
}

bool TimedInsert(Ctx* c, JsonCollection* coll, int64_t key,
                 const std::string& text, KeyModel* model, Timed* latency) {
  OpTally& tally = c->ledger->Op("insert");
  ++tally.attempted;
  std::string copy = text;
  c->cal.Maybe();
  const Stopwatch watch;
  Result<size_t> row = coll->Insert(Value::Int64(key), std::move(copy));
  const Elapsed e = watch.Stop();
  if (!row.ok()) {
    c->Failed(&tally, "insert: " + row.status().ToString());
    return false;
  }
  if (latency != nullptr) latency->Add(e, 1e6);
  if (c->trace()) c->Layer("collection.insert_us", e.wall_s * 1e6);
  model->Put(key, text, row.value());
  return true;
}

struct Drained {
  bool ok = false;
  std::string error;
  std::string access_path;
  std::vector<int64_t> keys;
  std::vector<std::string> docs;
  double route_us = 0;
  double drain_us = 0;
};

// Route() then Open/Next/Close of the routed plan, collecting the key (and
// with `want_docs` the document) of every row.
Drained RunRouted(const JsonCollection& coll,
                  const std::vector<PathPredicate>& preds, bool want_docs) {
  Drained d;
  const Clock::time_point t0 = Clock::now();
  Result<collection::RoutedPlan> routed = coll.Route(preds);
  const Clock::time_point t1 = Clock::now();
  if (!routed.ok()) {
    d.error = routed.status().ToString();
    return d;
  }
  rdbms::Operator* op = routed.value().plan.get();
  const size_t key_pos = op->schema().IndexOf(coll.key_column());
  const size_t doc_pos =
      want_docs ? op->schema().IndexOf(coll.json_column()) : rdbms::Schema::npos;
  Status status = op->Open();
  rdbms::Row row;
  while (status.ok()) {
    Result<bool> more = op->Next(&row);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!more.value()) break;
    d.keys.push_back(key_pos < row.size() &&
                             row[key_pos].type() == ScalarType::kInt64
                         ? row[key_pos].AsInt64()
                         : -1);
    if (doc_pos < row.size() && row[doc_pos].type() == ScalarType::kString) {
      d.docs.push_back(row[doc_pos].AsString());
    }
  }
  op->Close();
  d.route_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  d.drain_us = MicrosSince(t1);
  d.ok = status.ok();
  if (!d.ok) d.error = status.ToString();
  d.access_path = collection::AccessPathName(routed.value().access_path);
  return d;
}

// Traced run: the same query against each shard alone, the posting and
// IMC calls underneath it, and the access path each shard picks.
void TraceRead(Ctx* c, const JsonCollection& coll, const Query& q,
               double facade_us) {
  const std::string shape = ShapeName(q.shape);
  double slowest = 0;
  for (size_t s = 0; s < coll.shard_count(); ++s) {
    const JsonCollection& shard = *coll.shard(s);
    Drained alone = RunRouted(shard, q.preds, false);
    ++c->ledger->paths[q.shape][alone.access_path];
    slowest = std::max(slowest, alone.route_us + alone.drain_us);
    const index::JsonSearchIndex* idx = shard.search_index();
    const PathPredicate& first = q.preds.front();
    if (q.shape == kPoint && idx != nullptr) {
      const Clock::time_point t0 = Clock::now();
      std::vector<size_t> rows = idx->DocsWithValue(first.path, *first.literal);
      c->Layer("index.lookup_value_us", MicrosSince(t0));
    } else if (q.shape == kExists && idx != nullptr) {
      const Clock::time_point t0 = Clock::now();
      std::vector<size_t> rows = idx->DocsWithPath(first.path);
      c->Layer("index.lookup_path_us", MicrosSince(t0));
    } else if (q.shape == kImcRange && shard.imc() != nullptr) {
      std::vector<imc::ColumnStore::Predicate> preds;
      for (const PathPredicate& p : q.preds) {
        const std::string* column = shard.VirtualColumnFor(p.path);
        if (column != nullptr) preds.push_back({*column, p.op, *p.literal});
      }
      const Clock::time_point t0 = Clock::now();
      Result<std::vector<uint32_t>> hits = shard.imc()->FilterPositions(preds);
      c->Layer("imc.filter_us", MicrosSince(t0));
    }
  }
  c->Layer("collection.fanout_us." + shape, facade_us - slowest);
}

void TimedRead(Ctx* c, const JsonCollection& coll, const Query& q,
               Timed* latency) {
  const std::string shape = ShapeName(q.shape);
  OpTally& tally = c->ledger->Op("read." + shape);
  ++tally.attempted;
  const bool want_doc = !q.doc.empty();
  c->cal.Maybe();
  const Stopwatch watch;
  Drained d = RunRouted(coll, q.preds, want_doc);
  const Elapsed e = watch.Stop();
  if (!d.ok) {
    c->Failed(&tally, "read." + shape + ": " + d.error);
    return;
  }
  const double us = d.route_us + d.drain_us;
  if (latency != nullptr) latency->Add(e, 1e6);
  if (c->trace()) {
    c->Layer("collection.route_us." + shape, d.route_us);
    c->Layer("rdbms.drain_us." + shape, d.drain_us);
    TraceRead(c, coll, q, us);
  }
  std::vector<int64_t> expected = q.expected;
  if (c->perturb_pending) {
    c->perturb_pending = false;
    expected.push_back(-2);
  }
  std::sort(d.keys.begin(), d.keys.end());
  if (d.keys != expected) {
    c->ledger->Problem("read." + shape + " returned " +
                       std::to_string(d.keys.size()) + " keys, reference " +
                       std::to_string(expected.size()));
  } else if (want_doc && (d.docs.size() != 1 || d.docs[0] != q.doc)) {
    c->ledger->Problem("read." + shape + " returned a stale document for key " +
                       std::to_string(q.expected.front()));
  }
}

void ImcReady(Ctx* c, JsonCollection* coll, const Inputs& in,
              uint64_t user_bytes) {
  for (size_t i = 0; i < in.vcs.size(); ++i) {
    Result<std::string> vc = coll->AddVirtualColumn(
        "VC" + std::to_string(i), in.vcs[i].first, in.vcs[i].second);
    if (!vc.ok()) c->ledger->Problem("virtual column: " + vc.status().ToString());
  }
  const Clock::time_point t0 = Clock::now();
  Status populated = coll->PopulateImc();
  const double s = SecondsSince(t0);
  if (!populated.ok()) {
    c->ledger->Problem("populate IMC: " + populated.ToString());
    return;
  }
  if (c->trace()) {
    c->Layer("imc.populate_s", s);
    uint64_t bytes = 0;
    for (size_t i = 0; i < coll->shard_count(); ++i) {
      if (coll->shard(i)->imc() != nullptr) bytes += coll->shard(i)->imc()->MemoryBytes();
    }
    c->Layer("imc.bytes_per_user_byte", static_cast<double>(bytes) / user_bytes);
  }
}

// Sizes of the live collection: each shard's public MemoryBytes(), summed,
// cross-checked against the memory tracker's reporters for the collection.
void RecordSizes(Ctx* c, const JsonCollection& coll, const KeyModel& model,
                 uint64_t written_bytes) {
  uint64_t heap = 0, postings = 0, posting_entries = 0, guide = 0, stats = 0,
           imc = 0;
  for (size_t s = 0; s < coll.shard_count(); ++s) {
    const JsonCollection& shard = *coll.shard(s);
    heap += shard.table()->HeapBytes();
    const index::JsonSearchIndex* idx = shard.search_index();
    postings += idx->MemoryBytes();
    posting_entries += idx->posting_count();
    guide += shard.dataguide().MemoryBytes();
    if (idx->dg_table() != nullptr) guide += idx->dg_table()->HeapBytes();
    stats += shard.path_stats().MemoryBytes();
    if (shard.imc() != nullptr) imc += shard.imc()->MemoryBytes();
  }
  const uint64_t wal_bytes = coll.wal()->MemoryBytes();
  const uint64_t total = heap + postings + guide + stats + imc + wal_bytes;
  using telemetry::MemSubsystem;
  const std::pair<MemSubsystem, uint64_t> expected[] = {
      {MemSubsystem::kTableHeap, heap}, {MemSubsystem::kIndexPostings, postings},
      {MemSubsystem::kDataGuide, guide}, {MemSubsystem::kPathStats, stats},
      {MemSubsystem::kImc, imc},         {MemSubsystem::kWalBuffers, wal_bytes}};
  // Each subsystem's comparison counts as one operation, so that a fault
  // in the tracker shows as a failed operation on every round.
  telemetry::MemoryTracker::Global().Refresh();
  for (const auto& [subsystem, bytes] : expected) {
    OpTally& tally = c->ledger->Op("memory.crosscheck");
    ++tally.attempted;
    uint64_t tracked = 0;
    for (const telemetry::MemoryTracker::Entry& e :
         telemetry::MemoryTracker::Global().Entries()) {
      if (e.collection == coll.name() && e.subsystem == subsystem) tracked += e.bytes;
    }
    if (tracked != bytes) {
      c->Failed(&tally, std::string("memory tracker reports ") +
                            telemetry::MemSubsystemName(subsystem) + " " +
                            std::to_string(tracked) + " bytes, shard sum " +
                            std::to_string(bytes));
    }
  }
  const double user = static_cast<double>(model.live_bytes());
  c->ledger->resident_ratio.Add(total / user);
  c->ledger->wal_ratio.Add(static_cast<double>(coll.wal()->append_bytes()) /
                           static_cast<double>(written_bytes));
  if (c->trace()) {
    c->Layer("rdbms.heap_bytes_per_user_byte", heap / user);
    c->Layer("index.bytes_per_user_byte", postings / user);
    c->Layer("index.postings_per_doc",
             static_cast<double>(posting_entries) / model.size());
    c->Layer("stats.bytes_per_user_byte", (guide + stats) / user);
  }
}

void RecordWalCounters(Ctx* c, const JsonCollection& coll, uint64_t dml_ops) {
  const wal::Wal& w = *coll.wal();
  c->Layer("wal.fsyncs_per_kop", 1000.0 * w.fsyncs() / dml_ops);
  c->Layer("wal.bytes_per_op", static_cast<double>(w.append_bytes()) / dml_ops);
}

// Traced run: each write-path layer timed alone over the round's written
// documents, on side structures (a side log, bare tables, a side guide).
void TraceWritePath(Ctx* c, const std::vector<const std::string*>& texts) {
  std::vector<std::unique_ptr<json::JsonNode>> doms;
  std::vector<std::string> images;
  for (const std::string* text : texts) {
    Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<json::JsonNode>> dom = json::Parse(*text);
    c->Layer("json.parse_us", MicrosSince(t0));
    t0 = Clock::now();
    Result<std::string> image = oson::EncodeFromText(*text);
    c->Layer("oson.encode_us", MicrosSince(t0));
    if (!dom.ok() || !image.ok()) {
      c->ledger->Problem("side parse/encode failed");
      return;
    }
    doms.push_back(dom.MoveValue());
    images.push_back(image.MoveValue());
  }

  const std::string side_dir = c->dir + "-sidelog";
  fs::remove_all(side_dir);
  {
    wal::WalOptions options;
    options.dir = side_dir;
    options.fsync = wal::FsyncPolicy::kOff;  // flushes are timed apart
    Result<wal::Wal::OpenResult> opened = wal::Wal::Open(options);
    if (!opened.ok()) {
      c->ledger->Problem("side log: " + opened.status().ToString());
      return;
    }
    wal::Wal& side = *opened.value().wal;
    for (size_t i = 0; i < images.size(); ++i) {
      Clock::time_point t0 = Clock::now();
      Result<uint64_t> lsn =
          side.AppendInsert(0, Value::Int64(static_cast<int64_t>(i)), images[i]);
      c->Layer("wal.append_us", MicrosSince(t0));
      if (!lsn.ok()) c->ledger->Problem("side append: " + lsn.status().ToString());
      if ((i + 1) % kGroupOps == 0) {
        t0 = Clock::now();
        Status flushed = side.Flush();
        c->Layer("wal.flush_us", MicrosSince(t0));
        if (!flushed.ok()) c->ledger->Problem("side flush: " + flushed.ToString());
      }
    }
  }
  fs::remove_all(side_dir);

  // Table::Insert alone, and the same insert with a postings-only search
  // index attached; the difference, per document, is the index's share.
  auto columns = [] {
    std::vector<rdbms::ColumnDef> defs(2);
    defs[0].name = "DID";
    defs[0].type = rdbms::ColumnType::kNumber;
    defs[1].name = "JDOC";
    defs[1].type = rdbms::ColumnType::kJson;
    defs[1].max_length = 4000;
    defs[1].check_is_json = true;
    return defs;
  };
  rdbms::Table bare("SIDE_BARE", columns());
  rdbms::Table indexed("SIDE_INDEXED", columns());
  index::JsonSearchIndex::Options index_options;
  index_options.maintain_dataguide = false;
  Result<std::unique_ptr<index::JsonSearchIndex>> idx =
      index::JsonSearchIndex::Create(&indexed, "JDOC", index_options);
  if (!idx.ok()) {
    c->ledger->Problem("side index: " + idx.status().ToString());
    return;
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    const Value key = Value::Int64(static_cast<int64_t>(i));
    rdbms::Row a = {key, Value::String(*texts[i])};
    rdbms::Row b = a;
    Clock::time_point t0 = Clock::now();
    Result<size_t> r1 = bare.Insert(std::move(a));
    const double bare_us = MicrosSince(t0);
    t0 = Clock::now();
    Result<size_t> r2 = indexed.Insert(std::move(b));
    const double indexed_us = MicrosSince(t0);
    if (!r1.ok() || !r2.ok()) {
      c->ledger->Problem("side table insert failed");
      return;
    }
    c->Layer("rdbms.table_insert_us", bare_us);
    c->Layer("index.on_insert_us", indexed_us - bare_us);
  }
  idx.value()->Detach();

  dataguide::DataGuide guide;
  stats::PathStatsRepository path_stats;
  for (const auto& dom : doms) {
    json::TreeDom tree(dom.get());
    const Clock::time_point t0 = Clock::now();
    Result<int> added = guide.AddDocument(tree, nullptr, &path_stats);
    c->Layer("dataguide.add_us", MicrosSince(t0));
    if (!added.ok()) c->ledger->Problem("side DataGuide: " + added.status().ToString());
  }
  c->Layer("dataguide.paths", static_cast<double>(guide.distinct_path_count()));
}

// Traced run: Wal::Open alone on a copy of the closed log, and oson::Decode
// of every document image it returns.
void TraceLogOpen(Ctx* c) {
  const std::string copy = c->dir + "-copy";
  fs::remove_all(copy);
  std::error_code ec;
  fs::copy(c->dir, copy, ec);
  if (ec) {
    c->ledger->Problem("copy log: " + ec.message());
    return;
  }
  {
    wal::WalOptions options;
    options.dir = copy;
    options.fsync = wal::FsyncPolicy::kGroup;
    const Clock::time_point t0 = Clock::now();
    Result<wal::Wal::OpenResult> opened = wal::Wal::Open(options);
    c->Layer("wal.open_s", SecondsSince(t0));
    if (!opened.ok()) {
      c->ledger->Problem("open log copy: " + opened.status().ToString());
    } else {
      for (const wal::Record& r : opened.value().replay) {
        if (r.oson.empty()) continue;
        const Clock::time_point d0 = Clock::now();
        Result<std::unique_ptr<json::JsonNode>> doc = oson::Decode(r.oson);
        c->Layer("oson.decode_us", MicrosSince(d0));
        if (!doc.ok()) c->ledger->Problem("decode logged image failed");
      }
    }
  }
  fs::remove_all(copy);
}

// Closes the collection and times JsonCollection::Create on its directory.
bool Reopen(Ctx* c, Handle* h) {
  h->Close();
  if (c->trace()) TraceLogOpen(c);
  c->cal.Force();
  const Stopwatch watch;
  if (!Open(c, h)) return false;
  c->ledger->recovery_s.Add(watch.Stop(), 1);
  if (c->trace()) {
    c->Layer("wal.replay_s", h->coll->wal()->recovery().replay_ms / 1000.0);
  }
  return true;
}

// Recovered documents must equal the acknowledged ones, key for key, and
// the recovered stack must pass CheckConsistency().
void VerifyRecovered(Ctx* c, const JsonCollection& coll, const KeyModel& model) {
  rdbms::OperatorPtr scan = coll.Scan();
  const size_t key_pos = scan->schema().IndexOf(coll.key_column());
  const size_t doc_pos = scan->schema().IndexOf(coll.json_column());
  std::unordered_set<int64_t> seen;
  size_t mismatched = 0;
  Status status = scan->Open();
  rdbms::Row row;
  while (status.ok()) {
    Result<bool> more = scan->Next(&row);
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!more.value()) break;
    if (row[key_pos].type() != ScalarType::kInt64) {
      ++mismatched;
      continue;
    }
    const int64_t key = row[key_pos].AsInt64();
    const KeyModel::Entry* acked = model.Find(key);
    if (acked == nullptr || !seen.insert(key).second) {
      ++mismatched;
      continue;
    }
    Result<std::unique_ptr<json::JsonNode>> got = json::Parse(row[doc_pos].AsString());
    Result<std::unique_ptr<json::JsonNode>> want = json::Parse(acked->text);
    if (!got.ok() || !want.ok() || !SameDocument(*got.value(), *want.value())) {
      ++mismatched;
    }
  }
  scan->Close();
  if (!status.ok()) c->ledger->Problem("scan after recovery: " + status.ToString());
  if (mismatched > 0 || seen.size() != model.size()) {
    c->ledger->Problem("recovered " + std::to_string(seen.size()) + " of " +
                       std::to_string(model.size()) + " acknowledged documents, " +
                       std::to_string(mismatched) + " differing or unknown");
  }
  const Clock::time_point t0 = Clock::now();
  collection::ConsistencyReport report = coll.CheckConsistency();
  if (c->trace()) c->Layer("collection.check_consistency_s", SecondsSince(t0));
  if (!report.consistent) {
    c->ledger->Problem("CheckConsistency after recovery: " + report.ToString());
  }
}

void TraceCheckpoint(Ctx* c, JsonCollection* coll) {
  const Clock::time_point t0 = Clock::now();
  Status done = coll->Checkpoint();
  c->Layer("collection.checkpoint_s", SecondsSince(t0));
  if (!done.ok()) c->ledger->Problem("checkpoint: " + done.ToString());
}

std::vector<const std::string*> Pointers(const std::vector<std::string>& v) {
  std::vector<const std::string*> out;
  for (const std::string& s : v) out.push_back(&s);
  return out;
}

// --- Rounds -------------------------------------------------------------

// Inserts into an empty collection, then recovers the whole redo log.
// Reads run only after the reopen, as the check of the recovered stack.
void IngestRound(Ctx* c, const Inputs& in) {
  Ledger* L = c->ledger;
  Handle h;
  c->cal.Force();
  Ctx::Span span = c->Start();
  if (!Open(c, &h)) return;
  L->setup_s.Add(c->Stop(span), 1);

  KeyModel model;
  uint64_t written = 0;
  span = c->Start();
  for (size_t i = 0; i < in.docs.size(); ++i) {
    TimedInsert(c, h.coll.get(), static_cast<int64_t>(i), in.docs[i], &model,
                &L->write_us);
    written += in.docs[i].size();
  }
  L->TimedPass(in.docs.size(), c->Stop(span));
  RecordSizes(c, *h.coll, model, written);
  if (c->trace()) {
    RecordWalCounters(c, *h.coll, in.docs.size());
    TraceWritePath(c, Pointers(in.docs));
  }

  if (!Reopen(c, &h)) return;
  VerifyRecovered(c, *h.coll, model);
  ImcReady(c, h.coll.get(), in, model.live_bytes());
  for (const Query& q : in.reads) {
    TimedRead(c, *h.coll, q, &L->read_us[q.shape]);
  }
  if (c->trace()) TraceCheckpoint(c, h.coll.get());
}

// Set-up preloads, declares the virtual columns, populates the IMC and
// checkpoints; the timed phase is a read-only mix of the five shapes.
void QueryRound(Ctx* c, const Inputs& in) {
  Ledger* L = c->ledger;
  Handle h;
  c->cal.Force();
  Ctx::Span span = c->Start();
  if (!Open(c, &h)) return;
  KeyModel model;
  uint64_t written = 0;
  for (size_t i = 0; i < in.docs.size(); ++i) {
    TimedInsert(c, h.coll.get(), static_cast<int64_t>(i), in.docs[i], &model,
                &L->write_us);
    written += in.docs[i].size();
  }
  ImcReady(c, h.coll.get(), in, model.live_bytes());
  Status checkpointed = h.coll->Checkpoint();
  if (!checkpointed.ok()) L->Problem("checkpoint: " + checkpointed.ToString());
  L->setup_s.Add(c->Stop(span), 1);
  RecordSizes(c, *h.coll, model, written);

  for (size_t pass = 0; pass < in.passes; ++pass) {
    span = c->Start();
    for (const Query& q : in.reads) {
      TimedRead(c, *h.coll, q, &L->read_us[q.shape]);
    }
    L->TimedPass(in.reads.size(), c->Stop(span));
  }
  if (c->trace()) {
    RecordWalCounters(c, *h.coll, in.docs.size());
    TraceWritePath(c, Pointers(in.docs));
  }

  if (!Reopen(c, &h)) return;
  VerifyRecovered(c, *h.coll, model);
  if (c->trace()) TraceCheckpoint(c, h.coll.get());
}

// Set-up preloads and checkpoints; the timed phase is the key-value mix
// with its checkpoints. The other shapes are read after the reopen.
void KvRound(Ctx* c, const Inputs& in) {
  Ledger* L = c->ledger;
  Handle h;
  c->cal.Force();
  Ctx::Span span = c->Start();
  if (!Open(c, &h)) return;
  KeyModel model;
  uint64_t written = 0;
  for (size_t i = 0; i < in.docs.size(); ++i) {
    TimedInsert(c, h.coll.get(), static_cast<int64_t>(i), in.docs[i], &model,
                nullptr);
    written += in.docs[i].size();
  }
  Status checkpointed = h.coll->Checkpoint();
  if (!checkpointed.ok()) L->Problem("checkpoint: " + checkpointed.ToString());
  L->setup_s.Add(c->Stop(span), 1);

  JsonCollection* coll = h.coll.get();
  std::vector<const std::string*> write_texts;
  uint64_t dml_ops = in.docs.size();
  span = c->Start();
  for (const KvOp& op : in.kv_ops) {
    if (op.kind == KvOp::kRead) {
      Query q;
      q.preds = {Cmp("$.key", CompareOp::kEq, Value::String(YcsbKey(op.key)))};
      q.expected = {op.key};
      q.doc = op.text;
      TimedRead(c, *coll, q, &L->read_us[kPoint]);
      continue;
    }
    if (op.kind == KvOp::kInsert) {
      TimedInsert(c, coll, op.key, op.text, &model, &L->write_us);
      written += op.text.size();
      write_texts.push_back(&op.text);
      ++dml_ops;
      continue;
    }
    const char* kind = op.kind == KvOp::kReplace  ? "replace"
                       : op.kind == KvOp::kDelete ? "delete"
                                                  : "checkpoint";
    OpTally& tally = L->Op(kind);
    ++tally.attempted;
    const KeyModel::Entry* entry = model.Find(op.key);
    const size_t row = entry != nullptr ? entry->row_id : 0;
    std::string copy = op.text;
    c->cal.Maybe();
    const Stopwatch watch;
    Status done = op.kind == KvOp::kReplace
                      ? coll->Replace(row, Value::Int64(op.key), std::move(copy))
                  : op.kind == KvOp::kDelete ? coll->Delete(row)
                                             : coll->Checkpoint();
    const Elapsed e = watch.Stop();
    if (!done.ok()) {
      c->Failed(&tally, std::string(kind) + ": " + done.ToString());
      continue;
    }
    L->write_us.Add(e, 1e6);
    if (op.kind == KvOp::kReplace) {
      model.Put(op.key, op.text, row);
      written += op.text.size();
      write_texts.push_back(&op.text);
      ++dml_ops;
    } else if (op.kind == KvOp::kDelete) {
      model.Erase(op.key);
      ++dml_ops;
    }
  }
  L->TimedPass(in.kv_ops.size(), c->Stop(span));
  RecordSizes(c, *coll, model, written);
  if (c->trace()) {
    RecordWalCounters(c, *coll, dml_ops);
    TraceWritePath(c, write_texts);
  }

  if (!Reopen(c, &h)) return;
  VerifyRecovered(c, *h.coll, model);
  ImcReady(c, h.coll.get(), in, model.live_bytes());
  for (const Query& q : in.reads) {
    TimedRead(c, *h.coll, q, &L->read_us[q.shape]);
  }
  if (c->trace()) TraceCheckpoint(c, h.coll.get());
}

}  // namespace

const char* ShapeName(int shape) {
  static const char* kNames[kShapeCount] = {"point", "exists", "conj",
                                            "imc_range", "full"};
  return kNames[shape];
}

const char* ShapePath(int shape) {
  static const char* kPaths[kShapeCount] = {
      "indexed-value-scan", "indexed-path-scan", "posting-intersect-scan",
      "imc-filter-scan", "full-scan"};
  return kPaths[shape];
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(p / 100.0 * sorted.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double v : v_) sum += v;
  return sum / v_.size();
}

double ThreadCpuUs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

double ProcessCpuUs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
}

Stopwatch::Stopwatch()
    : cpu0_us_(ProcessCpuUs()),
      wall0_us_(std::chrono::duration<double, std::micro>(
                    Clock::now().time_since_epoch())
                    .count()) {}

Elapsed Stopwatch::Stop() const {
  const double wall_us =
      std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch())
          .count();
  return {(ProcessCpuUs() - cpu0_us_) / 1e6, (wall_us - wall0_us_) / 1e6};
}

void Ledger::TimedPass(uint64_t ops, const Elapsed& e) {
  timed_ops += ops;
  timed.cpu_s += e.cpu_s;
  timed.wall_s += e.wall_s;
  cpu_rate.Add(ops / e.cpu_s);
  wall_rate.Add(ops / e.wall_s);
}

void Ledger::Problem(std::string what) {
  ++problem_count;
  if (problems.size() < 10) problems.push_back(std::move(what));
}

bool RunWorkload(const Options& options, Ledger* ledger) {
  void (*round)(Ctx*, const Inputs&) = nullptr;
  if (options.workload == "ingest_nobench") round = IngestRound;
  if (options.workload == "query_nobench") round = QueryRound;
  if (options.workload == "ycsb_kv") round = KvRound;
  if (round == nullptr) return false;

  const Inputs inputs =
      MakeInputs(options.workload, options.seed, ScaleFor(options.tiny));
  Ctx ctx{options, ledger, options.work_dir + "/" + options.workload,
          options.perturb};
  const Clock::time_point start = Clock::now();
  do {
    fs::remove_all(ctx.dir);
    round(&ctx, inputs);
    ++ledger->rounds;
  } while (!options.tiny && SecondsSince(start) < options.seconds);
  fs::remove_all(ctx.dir);
  ledger->slices = ctx.cal.slices();
  ledger->slice_us = ctx.cal.MedianUs();
  ledger->scale = ctx.cal.Scale();
  return true;
}

}  // namespace fsdm::perfbench
