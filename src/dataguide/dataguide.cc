#include "dataguide/dataguide.h"

#include <algorithm>
#include <set>

#include "json/parser.h"
#include "json/serializer.h"
#include "telemetry/memory_tracker.h"

namespace fsdm::dataguide {

std::string_view LeafTypeName(LeafType type) {
  switch (type) {
    case LeafType::kNull:
      return "null";
    case LeafType::kBoolean:
      return "boolean";
    case LeafType::kNumber:
      return "number";
    case LeafType::kString:
      return "string";
  }
  return "unknown";
}

std::string PathEntry::TypeString() const {
  std::string base;
  switch (kind) {
    case json::NodeKind::kObject:
      base = "object";
      break;
    case json::NodeKind::kArray:
      base = "array";
      break;
    case json::NodeKind::kScalar:
      base = std::string(LeafTypeName(leaf_type));
      break;
  }
  return under_array ? "array of " + base : base;
}

namespace {

LeafType Categorize(const Value& v) {
  switch (v.type()) {
    case ScalarType::kNull:
      return LeafType::kNull;
    case ScalarType::kBool:
      return LeafType::kBoolean;
    case ScalarType::kInt64:
    case ScalarType::kDouble:
    case ScalarType::kDecimal:
      return LeafType::kNumber;
    default:
      return LeafType::kString;
  }
}

// Type generalization: null merges into anything; differing non-null types
// generalize to string (§3.1's merge rule).
LeafType Generalize(LeafType a, LeafType b) {
  if (a == b) return a;
  if (a == LeafType::kNull) return b;
  if (b == LeafType::kNull) return a;
  return LeafType::kString;
}

}  // namespace

/// Walks one instance, updating the owning guide. Per-document frequency
/// is counted once per distinct key (doc-stamped on the entries).
class InstanceWalker {
 public:
  InstanceWalker(DataGuide* guide,
                 std::vector<const PathEntry*>* new_entries,
                 ScalarSink* scalar_sink)
      : guide_(guide),
        new_sink_(new_entries),
        scalar_sink_(scalar_sink),
        doc_stamp_(guide->doc_count_ + 1) {}

  Status Walk(const json::Dom& dom, json::Dom::NodeRef node,
              std::string* path, bool under_array) {
    using json::NodeKind;
    NodeKind kind = dom.GetNodeType(node);
    PathEntry* entry = Touch(*path, kind, under_array);

    switch (kind) {
      case NodeKind::kObject: {
        size_t n = dom.GetFieldCount(node);
        for (size_t i = 0; i < n; ++i) {
          std::string_view name;
          json::Dom::NodeRef child;
          dom.GetFieldAt(node, i, &name, &child);
          size_t mark = path->size();
          path->push_back('.');
          path->append(name);
          FSDM_RETURN_NOT_OK(Walk(dom, child, path, under_array));
          path->resize(mark);
        }
        return Status::Ok();
      }
      case NodeKind::kArray: {
        // Array elements keep the array's path; descendants are marked as
        // under_array so their type strings carry the "array of" prefix.
        size_t n = dom.GetArrayLength(node);
        for (size_t i = 0; i < n; ++i) {
          FSDM_RETURN_NOT_OK(
              Walk(dom, dom.GetArrayElement(node, i), path, true));
        }
        return Status::Ok();
      }
      case NodeKind::kScalar: {
        Value v;
        FSDM_RETURN_NOT_OK(dom.GetScalarValue(node, &v));
        LeafType lt = Categorize(v);
        entry->leaf_type = Generalize(entry->leaf_type, lt);
        if (v.is_null()) {
          ++entry->null_count;
        } else {
          entry->max_length = std::max(entry->max_length, CheapLength(v));
          UpdateMinMax(entry, v);
        }
        if (scalar_sink_ != nullptr) {
          scalar_sink_->OnScalar(*path, under_array, v);
        }
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable");
  }

  int new_entries() const { return new_entries_; }

 private:
  // Display-length without allocating (the DataGuide length column only
  // needs byte counts).
  static size_t CheapLength(const Value& v) {
    switch (v.type()) {
      case ScalarType::kString:
        return v.AsString().size();
      case ScalarType::kBool:
        return v.AsBool() ? 4 : 5;
      case ScalarType::kInt64: {
        int64_t x = v.AsInt64();
        size_t n = x < 0 ? 2 : 1;
        uint64_t mag = x < 0 ? static_cast<uint64_t>(-(x + 1)) + 1
                             : static_cast<uint64_t>(x);
        while (mag >= 10) {
          mag /= 10;
          ++n;
        }
        return n;
      }
      case ScalarType::kDecimal:
        // digits + sign + point bound; exact length is not worth a
        // formatting pass on the hot DML path.
        return static_cast<size_t>(v.AsDecimal().digit_count()) + 2;
      default:
        return 8;
    }
  }

  PathEntry* Touch(const std::string& path, json::NodeKind kind,
                   bool under_array) {
    // Fast path: existing entry found without materializing a Key.
    DataGuide::KeyView view{path, kind, under_array};
    auto it = guide_->entries_.find(view);
    if (it == guide_->entries_.end()) {
      ++new_entries_;
      it = guide_->entries_
               .try_emplace(DataGuide::Key{path, kind, under_array})
               .first;
      it->second.path = path;
      it->second.kind = kind;
      it->second.under_array = under_array;
      guide_->memory_bytes_.Add(DataGuide::EntryBytes(path));
      if (new_sink_ != nullptr) new_sink_->push_back(&it->second);
    }
    // Per-document frequency via doc stamping (no per-doc set).
    if (it->second.last_doc_stamp != doc_stamp_) {
      it->second.last_doc_stamp = doc_stamp_;
      ++it->second.frequency;
    }
    return &it->second;
  }

  void UpdateMinMax(PathEntry* entry, const Value& v) {
    if (!entry->min_value.has_value()) {
      entry->min_value = v;
      entry->max_value = v;
      return;
    }
    Result<int> lo = v.CompareTo(*entry->min_value);
    if (lo.ok() && lo.value() < 0) entry->min_value = v;
    Result<int> hi = v.CompareTo(*entry->max_value);
    if (hi.ok() && hi.value() > 0) entry->max_value = v;
  }

  DataGuide* guide_;
  std::vector<const PathEntry*>* new_sink_;
  ScalarSink* scalar_sink_;
  uint64_t doc_stamp_;
  int new_entries_ = 0;
};

Result<int> DataGuide::AddDocument(const json::Dom& dom,
                                   std::vector<const PathEntry*>* new_entries,
                                   ScalarSink* sink) {
  InstanceWalker walker(this, new_entries, sink);
  std::string path = "$";
  FSDM_RETURN_NOT_OK(walker.Walk(dom, dom.root(), &path, false));
  ++doc_count_;
  if (sink != nullptr) sink->OnDocumentEnd();
  return walker.new_entries();
}

Result<int> DataGuide::AddJsonText(std::string_view text) {
  FSDM_ASSIGN_OR_RETURN(std::unique_ptr<json::JsonNode> doc,
                        json::Parse(text));
  json::TreeDom dom(doc.get());
  return AddDocument(dom);
}

void DataGuide::Merge(const DataGuide& other) {
  for (const auto& [key, theirs] : other.entries_) {
    auto [it, inserted] = entries_.try_emplace(key, theirs);
    if (inserted) {
      memory_bytes_.Add(EntryBytes(theirs.path));
      continue;
    }
    PathEntry& ours = it->second;
    ours.leaf_type = Generalize(ours.leaf_type, theirs.leaf_type);
    ours.max_length = std::max(ours.max_length, theirs.max_length);
    ours.frequency += theirs.frequency;
    ours.null_count += theirs.null_count;
    if (theirs.min_value.has_value()) {
      if (!ours.min_value.has_value()) {
        ours.min_value = theirs.min_value;
      } else {
        Result<int> cmp = theirs.min_value->CompareTo(*ours.min_value);
        if (cmp.ok() && cmp.value() < 0) ours.min_value = theirs.min_value;
      }
    }
    if (theirs.max_value.has_value()) {
      if (!ours.max_value.has_value()) {
        ours.max_value = theirs.max_value;
      } else {
        Result<int> cmp = theirs.max_value->CompareTo(*ours.max_value);
        if (cmp.ok() && cmp.value() > 0) ours.max_value = theirs.max_value;
      }
    }
  }
  doc_count_ += other.doc_count_;
}

std::vector<const PathEntry*> DataGuide::SortedEntries() const {
  std::vector<const PathEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const PathEntry* a, const PathEntry* b) {
              if (a->path != b->path) return a->path < b->path;
              if (a->kind != b->kind) return a->kind < b->kind;
              return a->under_array < b->under_array;
            });
  return out;
}

uint64_t DataGuide::EntryBytes(const std::string& path) {
  // Hash node overhead (bucket pointer + node header) plus the entry
  // payload; the path string is owned twice, by the Key and the PathEntry.
  constexpr uint64_t kEntryBytes = 2 * sizeof(void*) + sizeof(PathEntry);
  return kEntryBytes + 2 * telemetry::OwnedStringBytes(path);
}

uint64_t DataGuide::RecomputeMemoryBytes() const {
  uint64_t total = 0;
  for (const auto& [key, entry] : entries_) total += EntryBytes(entry.path);
  return total;
}

const PathEntry* DataGuide::Find(std::string_view path, json::NodeKind kind,
                                 bool under_array) const {
  auto it = entries_.find(Key{std::string(path), kind, under_array});
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<const PathEntry*> DataGuide::SingletonScalarPaths() const {
  std::vector<const PathEntry*> out;
  for (const PathEntry* e : SortedEntries()) {
    if (e->kind == json::NodeKind::kScalar && !e->under_array) {
      out.push_back(e);
    }
  }
  return out;
}

std::string DataGuide::ToFlatJson() const {
  std::string out = "[";
  bool first = true;
  for (const PathEntry* e : SortedEntries()) {
    if (!first) out += ",";
    first = false;
    out += "{\"o:path\":";
    json::AppendQuoted(&out, e->path);
    out += ",\"type\":";
    json::AppendQuoted(&out, e->TypeString());
    if (e->kind == json::NodeKind::kScalar) {
      out += ",\"o:length\":" + std::to_string(e->max_length);
    }
    out += ",\"o:frequency\":" + std::to_string(e->frequency);
    out += "}";
  }
  out += "]";
  return out;
}

namespace {

// Hierarchical rendering node.
struct HierNode {
  // child name -> node (objects)
  std::map<std::string, HierNode> properties;
  // element node (arrays); only ever 0 or 1 deep per path step
  std::unique_ptr<HierNode> items;
  std::vector<const PathEntry*> selves;  // entries at this exact path
};

void RenderHier(const HierNode& node, std::string* out) {
  // A path position can hold several merged kinds (e.g. scalar in one doc,
  // object in another); render "type" as a string or array of strings.
  out->push_back('{');
  std::string types;
  const PathEntry* scalar_entry = nullptr;
  bool has_object = !node.properties.empty();
  bool has_array = node.items != nullptr;
  std::set<std::string> type_set;
  for (const PathEntry* e : node.selves) {
    if (e->kind == json::NodeKind::kScalar) {
      scalar_entry = e;
      type_set.insert(std::string(LeafTypeName(e->leaf_type)));
    } else if (e->kind == json::NodeKind::kObject) {
      type_set.insert("object");
    } else {
      type_set.insert("array");
    }
  }
  if (has_object) type_set.insert("object");
  if (has_array) type_set.insert("array");
  out->append("\"type\":");
  if (type_set.size() == 1) {
    json::AppendQuoted(out, *type_set.begin());
  } else {
    out->push_back('[');
    bool first = true;
    for (const std::string& t : type_set) {
      if (!first) out->push_back(',');
      first = false;
      json::AppendQuoted(out, t);
    }
    out->push_back(']');
  }
  if (scalar_entry != nullptr) {
    out->append(",\"o:length\":" + std::to_string(scalar_entry->max_length));
    out->append(",\"o:frequency\":" +
                std::to_string(scalar_entry->frequency));
  }
  if (has_object) {
    out->append(",\"properties\":{");
    bool first = true;
    for (const auto& [name, child] : node.properties) {
      if (!first) out->push_back(',');
      first = false;
      json::AppendQuoted(out, name);
      out->push_back(':');
      RenderHier(child, out);
    }
    out->push_back('}');
  }
  if (has_array) {
    out->append(",\"items\":");
    RenderHier(*node.items, out);
  }
  out->push_back('}');
}

}  // namespace

std::string DataGuide::ToHierarchicalJson() const {
  HierNode root;
  for (const PathEntry* e : SortedEntries()) {
    // Split "$.a.b" into steps; descend/create the hierarchy. An entry
    // with under_array attaches beneath the nearest array's "items".
    HierNode* cur = &root;
    std::string_view rest(e->path);
    if (!rest.empty() && rest[0] == '$') rest.remove_prefix(1);
    while (!rest.empty()) {
      if (rest[0] == '.') rest.remove_prefix(1);
      size_t dot = rest.find('.');
      std::string step(rest.substr(0, dot));
      cur = &cur->properties[step];
      if (dot == std::string_view::npos) break;
      rest.remove_prefix(dot);
    }
    if (e->under_array || e->kind == json::NodeKind::kArray) {
      // Entries merged under arrays live inside the array's items node;
      // the array container entry itself stays on the outer node.
      if (e->under_array) {
        if (!cur->items) cur->items = std::make_unique<HierNode>();
        cur->items->selves.push_back(e);
        continue;
      }
    }
    cur->selves.push_back(e);
  }
  // Fix-up: object fields under arrays. Above, under_array entries landed
  // on items of their own path node, but their children (properties) were
  // attached to the outer node as well. This approximation renders the
  // structural shape faithfully for typical collections; the flat form is
  // the authoritative representation (as in the paper's $DG table).
  std::string out;
  RenderHier(root, &out);
  return out;
}

}  // namespace fsdm::dataguide
