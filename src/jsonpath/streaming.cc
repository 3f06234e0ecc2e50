#include "jsonpath/streaming.h"

#include <vector>

#include "json/parser.h"

namespace fsdm::jsonpath {

namespace {

constexpr int kDead = -1;

/// Match progress of one open container.
struct Frame {
  bool is_object;
  int progress;        // match progress for members/elements within
  bool emit_elements;  // selected array with trailing [*]
};

/// Event-stream matcher for member-only paths (optional trailing [*]).
/// Mirrors the DOM engine's lax semantics: member steps unwrap one array
/// level (object elements inherit the match progress; nested arrays and
/// scalar elements go dead), and a trailing [*] on a non-array selects the
/// node itself.
///
/// Allocation-free per call: step names are read in place from the path,
/// the frame stack is the caller's reused buffer, and the parse is aborted
/// at the first result with a message short enough for the string's
/// inline buffer (found() tells that abort from a real parse error).
class Matcher final : public json::JsonEventHandler {
 public:
  Matcher(const PathExpression& path, bool want_value,
          std::vector<Frame>* frames)
      : steps_(path.steps()), want_value_(want_value), frames_(*frames) {
    frames_.clear();
    // CanStream admits only member steps and one trailing [*].
    trailing_star_ =
        !steps_.empty() && steps_.back().kind != StepKind::kMember;
    k_ = static_cast<int>(steps_.size()) - (trailing_star_ ? 1 : 0);
  }

  bool found() const { return found_; }
  std::optional<Value> TakeValue() { return std::move(value_); }

  Status OnStartObject() override {
    int p = TakeValueProgress();
    // A selected object: the node itself is the result (a container).
    if (IsResult(p, /*is_array=*/false)) return Emit(std::nullopt);
    frames_.push_back(Frame{/*is_object=*/true, /*progress=*/p,
                            /*emit_elements=*/false});
    return Status::Ok();
  }

  Status OnEndObject() override {
    frames_.pop_back();
    return Status::Ok();
  }

  Status OnStartArray() override {
    int p = TakeValueProgress();
    bool emit_elements = false;
    if (p == k_) {
      if (trailing_star_) {
        // Selected array + [*]: its elements are the results.
        emit_elements = true;
      } else {
        // Selected array without [*]: the array itself is the result.
        return Emit(std::nullopt);
      }
    }
    frames_.push_back(Frame{/*is_object=*/false, p, emit_elements});
    return Status::Ok();
  }

  Status OnEndArray() override {
    frames_.pop_back();
    return Status::Ok();
  }

  Status OnKey(std::string_view key) override {
    const Frame& frame = frames_.back();
    if (frame.progress >= 0 && frame.progress < k_ &&
        key == steps_[frame.progress].name) {
      next_progress_ = frame.progress + 1;
    } else {
      next_progress_ = kDead;
    }
    return Status::Ok();
  }

  Status OnString(std::string_view s) override {
    return ScalarEvent([&] { return Value::String(std::string(s)); });
  }
  Status OnNumber(std::string_view text) override {
    return ScalarEvent([&]() -> Value {
      Result<Value> v = json::NumberTextToValue(text);
      return v.ok() ? v.MoveValue() : Value::Null();
    });
  }
  Status OnBool(bool b) override {
    return ScalarEvent([&] { return Value::Bool(b); });
  }
  Status OnNull() override {
    return ScalarEvent([] { return Value::Null(); });
  }

 private:
  // Progress assigned to the value event happening now, derived from the
  // enclosing frame (or the root).
  int TakeValueProgress() {
    if (frames_.empty()) return 0;  // root value
    const Frame& frame = frames_.back();
    if (frame.is_object) {
      int p = next_progress_;
      next_progress_ = kDead;
      return p;
    }
    // Array element.
    if (frame.emit_elements) return kEmitElement;
    return frame.progress;  // lax unwrap: inherited by object elements;
                            // scalar/array element cases handled by caller
  }

  // Is a node with progress p (possibly kEmitElement) a result?
  bool IsResult(int p, bool is_array) {
    if (p == kEmitElement) return true;
    if (p != k_) return false;
    if (!trailing_star_) return true;
    // Trailing [*]: arrays defer to their elements; handled in
    // OnStartArray. Non-arrays select the node itself (lax).
    return !is_array;
  }

  template <typename MakeValue>
  Status ScalarEvent(const MakeValue& make_value) {
    int p = TakeValueProgress();
    // A fully-matched scalar is a result; a trailing [*] on a scalar also
    // selects the scalar itself (lax singleton treatment).
    if (p == kEmitElement || p == k_) return Emit(make_value());
    return Status::Ok();
  }

  Status Emit(std::optional<Value> v) {
    found_ = true;
    if (want_value_) value_ = std::move(v);
    return Status::Internal("done");
  }

  static constexpr int kEmitElement = -2;

  const std::vector<Step>& steps_;
  int k_ = 0;
  bool trailing_star_ = false;
  bool want_value_;
  std::vector<Frame>& frames_;
  int next_progress_ = kDead;
  bool found_ = false;
  std::optional<Value> value_;
};

}  // namespace

bool StreamingPathEngine::CanStream(const PathExpression& path) {
  const std::vector<Step>& steps = path.steps();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind == StepKind::kMember) continue;
    if (steps[i].kind == StepKind::kArrayWildcard && i + 1 == steps.size()) {
      continue;  // single trailing [*]
    }
    return false;
  }
  return true;
}

namespace {

/// The frame stack the matchers of this thread share; it keeps its
/// capacity from call to call.
std::vector<Frame>* ThreadFrames() {
  thread_local std::vector<Frame> frames;
  return &frames;
}

Status RunMatcher(std::string_view json_text, const PathExpression& path,
                  Matcher* matcher) {
  if (!StreamingPathEngine::CanStream(path)) {
    return Status::Unsupported("path not streamable: " + path.ToString());
  }
  Status st = json::ParseEvents(json_text, matcher);
  // Once the matcher has found a result, a non-OK status is its abort.
  if (!st.ok() && !matcher->found()) return st;
  return Status::Ok();
}

}  // namespace

Result<bool> StreamingPathEngine::Exists(std::string_view json_text,
                                         const PathExpression& path) {
  Matcher matcher(path, /*want_value=*/false, ThreadFrames());
  FSDM_RETURN_NOT_OK(RunMatcher(json_text, path, &matcher));
  return matcher.found();
}

Result<std::optional<Value>> StreamingPathEngine::FirstScalar(
    std::string_view json_text, const PathExpression& path) {
  Matcher matcher(path, /*want_value=*/true, ThreadFrames());
  FSDM_RETURN_NOT_OK(RunMatcher(json_text, path, &matcher));
  if (!matcher.found()) return std::optional<Value>(std::nullopt);
  return matcher.TakeValue();
}

}  // namespace fsdm::jsonpath
