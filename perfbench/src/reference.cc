#include "reference.h"

#include <algorithm>
#include <string_view>

#include "json/parser.h"

namespace fsdm::perfbench {

namespace {

const json::JsonNode* Navigate(const json::JsonNode& doc,
                               std::string_view path) {
  if (path.substr(0, 1) != "$") return nullptr;
  path.remove_prefix(1);
  const json::JsonNode* node = &doc;
  while (!path.empty()) {
    if (path[0] != '.' || !node->is_object()) return nullptr;
    path.remove_prefix(1);
    const size_t end = std::min(path.find('.'), path.size());
    node = node->GetField(path.substr(0, end));
    if (node == nullptr) return nullptr;
    path.remove_prefix(end);
  }
  return node;
}

// Three-way comparison of a document scalar with a literal of the same
// kind; false in `*comparable` when the kinds differ.
int CompareScalar(const Value& v, const Value& literal, bool* comparable) {
  *comparable = true;
  if (v.type() == ScalarType::kInt64 && literal.type() == ScalarType::kInt64) {
    return v.AsInt64() < literal.AsInt64() ? -1
                                           : v.AsInt64() > literal.AsInt64();
  }
  if (v.type() == ScalarType::kString && literal.type() == ScalarType::kString) {
    const int c = v.AsString().compare(literal.AsString());
    return c < 0 ? -1 : c > 0;
  }
  *comparable = false;
  return 0;
}

bool Holds(rdbms::CompareOp op, int c) {
  switch (op) {
    case rdbms::CompareOp::kEq: return c == 0;
    case rdbms::CompareOp::kNe: return c != 0;
    case rdbms::CompareOp::kLt: return c < 0;
    case rdbms::CompareOp::kLe: return c <= 0;
    case rdbms::CompareOp::kGt: return c > 0;
    case rdbms::CompareOp::kGe: return c >= 0;
  }
  return false;
}

bool SameScalar(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ScalarType::kNull: return true;
    case ScalarType::kBool: return a.AsBool() == b.AsBool();
    case ScalarType::kInt64: return a.AsInt64() == b.AsInt64();
    case ScalarType::kString: return a.AsString() == b.AsString();
    default: return a.ToDisplayString() == b.ToDisplayString();
  }
}

}  // namespace

bool MatchesAll(const json::JsonNode& doc,
                const std::vector<collection::PathPredicate>& predicates) {
  for (const collection::PathPredicate& p : predicates) {
    const json::JsonNode* node = Navigate(doc, p.path);
    if (node == nullptr) return false;
    if (p.is_existence()) continue;
    if (!node->is_scalar()) return false;
    bool comparable = false;
    const int c = CompareScalar(node->scalar(), *p.literal, &comparable);
    if (!comparable || !Holds(p.op, c)) return false;
  }
  return true;
}

bool SameDocument(const json::JsonNode& a, const json::JsonNode& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_scalar()) return SameScalar(a.scalar(), b.scalar());
  if (a.is_array()) {
    if (a.array_size() != b.array_size()) return false;
    for (size_t i = 0; i < a.array_size(); ++i) {
      if (!SameDocument(*a.element(i), *b.element(i))) return false;
    }
    return true;
  }
  if (a.field_count() != b.field_count()) return false;
  for (size_t i = 0; i < a.field_count(); ++i) {
    const json::JsonNode* other = b.GetField(a.field_name(i));
    if (other == nullptr || !SameDocument(*a.field_value(i), *other)) {
      return false;
    }
  }
  return true;
}

void KeyModel::Put(int64_t key, std::string text, size_t row_id) {
  auto [it, fresh] = entries_.try_emplace(key);
  Entry& e = it->second;
  if (fresh) {
    e.slot = live_.size();
    live_.push_back(key);
  } else {
    live_bytes_ -= e.text.size();
  }
  live_bytes_ += text.size();
  e.text = std::move(text);
  e.row_id = row_id;
}

void KeyModel::Erase(int64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  const size_t slot = it->second.slot;
  live_bytes_ -= it->second.text.size();
  live_[slot] = live_.back();
  entries_[live_[slot]].slot = slot;
  live_.pop_back();
  entries_.erase(it);
}

const KeyModel::Entry* KeyModel::Find(int64_t key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>> ParseAll(
    const KeyModel& model) {
  std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>> docs;
  docs.reserve(model.size());
  for (int64_t key : model.live()) {
    Result<std::unique_ptr<json::JsonNode>> parsed =
        json::Parse(model.Find(key)->text);
    // A document that does not parse is left out, so every read that
    // should return it reports a mismatch.
    if (parsed.ok()) docs.emplace(key, parsed.MoveValue());
  }
  return docs;
}

std::vector<int64_t> ExpectedKeys(
    const std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>>& docs,
    const std::vector<collection::PathPredicate>& predicates) {
  std::vector<int64_t> keys;
  for (const auto& [key, doc] : docs) {
    if (MatchesAll(*doc, predicates)) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace fsdm::perfbench
