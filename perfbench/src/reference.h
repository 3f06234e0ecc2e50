#ifndef FSDM_PERFBENCH_REFERENCE_H_
#define FSDM_PERFBENCH_REFERENCE_H_

// Expected results computed apart from the engine: a reference evaluator
// that walks a parsed document for a conjunction of path predicates, an
// order-insensitive document comparison, and the key-version model that
// says what every key-value read must return. None of this calls into the
// collection, router, index or IMC; it only uses the JSON parser to build
// the DOM it walks.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "collection/router.h"
#include "json/node.h"

namespace fsdm::perfbench {

/// True when `doc` satisfies every predicate: an existence test holds when
/// the object path leads to any node; a comparison holds when it leads to
/// a scalar of the literal's kind (number or string) that compares as
/// asked. Paths are "$" followed by ".field" steps.
bool MatchesAll(const json::JsonNode& doc,
                const std::vector<collection::PathPredicate>& predicates);

/// Structural equality that ignores the order of object members (the
/// engine may re-order members when it re-encodes a document).
bool SameDocument(const json::JsonNode& a, const json::JsonNode& b);

/// Latest acknowledged version of each key, with the row id the engine
/// returned for it, plus the live key list for seeded picks.
class KeyModel {
 public:
  struct Entry {
    std::string text;
    size_t row_id = 0;
    size_t slot = 0;  // position in live_
  };

  void Put(int64_t key, std::string text, size_t row_id);
  void Erase(int64_t key);
  const Entry* Find(int64_t key) const;
  const std::vector<int64_t>& live() const { return live_; }
  size_t size() const { return live_.size(); }
  /// Sum of the live documents' text lengths.
  uint64_t live_bytes() const { return live_bytes_; }

 private:
  std::unordered_map<int64_t, Entry> entries_;
  std::vector<int64_t> live_;
  uint64_t live_bytes_ = 0;
};

/// Parses every live document of `model` once, keyed like the model.
std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>> ParseAll(
    const KeyModel& model);

/// Sorted keys of the parsed documents that satisfy `predicates`.
std::vector<int64_t> ExpectedKeys(
    const std::unordered_map<int64_t, std::unique_ptr<json::JsonNode>>& docs,
    const std::vector<collection::PathPredicate>& predicates);

}  // namespace fsdm::perfbench

#endif  // FSDM_PERFBENCH_REFERENCE_H_
