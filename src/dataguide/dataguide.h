#ifndef FSDM_DATAGUIDE_DATAGUIDE_H_
#define FSDM_DATAGUIDE_DATAGUIDE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/value.h"
#include "json/dom.h"
#include "telemetry/memory_tracker.h"

namespace fsdm::dataguide {

/// Generalized scalar category for DataGuide leaves. Merging a number with
/// a string generalizes to string (§3.1); null merges into anything.
enum class LeafType : uint8_t {
  kNull = 0,     // only nulls seen so far
  kBoolean,
  kNumber,
  kString,       // top of the generalization lattice
};

std::string_view LeafTypeName(LeafType type);

/// One row of the $DG table: a distinct (path, node-kind) with statistics.
/// The paper's type vocabulary ("object", "array", "number", "array of
/// string", ...) comes out of TypeString(): nodes reached through at least
/// one un-nested array carry the "array of " prefix.
struct PathEntry {
  std::string path;            // "$.purchaseOrder.items.name"
  json::NodeKind kind = json::NodeKind::kScalar;
  bool under_array = false;    // reached through >= 1 array un-nesting
  LeafType leaf_type = LeafType::kNull;  // scalars only
  size_t max_length = 0;       // max display-byte length of scalar values

  // Statistics (§3.2.1's statistical columns).
  uint64_t frequency = 0;      // documents containing this path
  uint64_t null_count = 0;     // null scalar occurrences
  std::optional<Value> min_value;
  std::optional<Value> max_value;

  /// Internal: id of the last document that touched this entry, used to
  /// count per-document frequency without a per-document set.
  uint64_t last_doc_stamp = 0;

  /// "object" | "array" | "<leaf>" with "array of " prefix when
  /// under_array.
  std::string TypeString() const;
};

/// Observer fed during AddDocument's instance walk: every scalar leaf with
/// its DataGuide path, then one end-of-document call. Statistics consumers
/// (the per-collection PathStatsRepository) hang off this so value-level
/// stats ride the walk the guide already pays for on the DML path.
class ScalarSink {
 public:
  virtual ~ScalarSink() = default;
  virtual void OnScalar(const std::string& path, bool under_array,
                        const Value& v) = 0;
  virtual void OnDocumentEnd() = 0;
};

/// The JSON DataGuide (§3): a dynamic soft schema computed from document
/// instances. One instance serves both roles in the paper — the persistent
/// DataGuide embedded in the JSON search index and the transient DataGuide
/// produced by the SQL aggregate.
class DataGuide {
 public:
  DataGuide() = default;

  /// Extracts the skeleton of one document and merges it in. Returns the
  /// number of *new* $DG rows this document introduced (0 for documents
  /// whose structure is already fully known — the fast common case the
  /// check-constraint integration relies on, §3.2.1). When `new_entries`
  /// is non-null, pointers to the newly created entries are appended (the
  /// rows a persistent DataGuide must write to $DG). When `sink` is
  /// non-null it receives every scalar leaf visited by the walk.
  Result<int> AddDocument(const json::Dom& dom,
                          std::vector<const PathEntry*>* new_entries = nullptr,
                          ScalarSink* sink = nullptr);

  /// Convenience: parse text then AddDocument.
  Result<int> AddJsonText(std::string_view text);

  /// Merges another DataGuide (union of paths, generalization of types).
  void Merge(const DataGuide& other);

  uint64_t document_count() const { return doc_count_; }
  size_t distinct_path_count() const { return entries_.size(); }

  /// In-memory footprint of the guide (ISSUE 9 memory attribution):
  /// per-entry node overhead plus the path string twice (the hash Key and
  /// the PathEntry each own a copy). Deterministic size-based formula;
  /// min/max sample Values are excluded (bounded per entry, and their
  /// variant payloads would make the formula value-dependent). Maintained
  /// where entries are created (AddDocument, Merge); O(1) to read, since
  /// the collection's memory reporter polls it once per routed query.
  uint64_t MemoryBytes() const { return memory_bytes_.load(); }
  /// Exact O(entries) walk with the same formula; the unit tests pin
  /// MemoryBytes() == RecomputeMemoryBytes().
  uint64_t RecomputeMemoryBytes() const;

  /// Entries sorted by path (then container-before-leaf).
  std::vector<const PathEntry*> SortedEntries() const;

  /// Looks up an entry by path and kind.
  const PathEntry* Find(std::string_view path, json::NodeKind kind,
                        bool under_array) const;

  /// Flat form (§3.2.2): a JSON array of {"o:path", "type", "o:length",
  /// "o:frequency"} objects — the shape Table 2 tabulates.
  std::string ToFlatJson() const;

  /// Hierarchical form: a JSON-Schema-flavored nested document with
  /// "type" / "properties" / "items" plus "o:length"/"o:frequency"
  /// annotations, as returned by getDataGuide().
  std::string ToHierarchicalJson() const;

  /// Leaf scalar paths with a one-to-one relationship to documents
  /// (never under an array) — the candidates for JSON_VALUE virtual
  /// columns (§3.3.1).
  std::vector<const PathEntry*> SingletonScalarPaths() const;

 private:
  struct Key {
    std::string path;
    json::NodeKind kind;
    bool under_array;
  };
  struct KeyView {
    std::string_view path;
    json::NodeKind kind;
    bool under_array;
  };
  // Heterogeneous hash/equality: the hot structural-check path of §3.2.1
  // looks entries up by string_view without materializing a Key.
  struct KeyHash {
    using is_transparent = void;
    template <typename K>
    size_t operator()(const K& k) const {
      uint64_t h = Hash64(std::string_view(k.path));
      h = h * 31 + static_cast<uint64_t>(k.kind) * 2 +
          (k.under_array ? 1 : 0);
      return static_cast<size_t>(h);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return std::string_view(a.path) == std::string_view(b.path) &&
             a.kind == b.kind && a.under_array == b.under_array;
    }
  };

  friend class InstanceWalker;

  /// MemoryBytes() charge of one entry.
  static uint64_t EntryBytes(const std::string& path);

  std::unordered_map<Key, PathEntry, KeyHash, KeyEq> entries_;
  uint64_t doc_count_ = 0;
  telemetry::ByteCounter memory_bytes_;  // sum of EntryBytes over entries_
};

}  // namespace fsdm::dataguide

#endif  // FSDM_DATAGUIDE_DATAGUIDE_H_
