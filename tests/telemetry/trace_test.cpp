#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

namespace uavres::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser — just enough to round-trip the Chrome trace document.
// Failing to parse marks the value invalid; the tests assert validity, so a
// malformed emitter shows up as a test failure rather than a silent skip.
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, std::shared_ptr<JsonArray>,
               std::shared_ptr<JsonObject>>
      v{nullptr};

  bool IsObject() const { return std::holds_alternative<std::shared_ptr<JsonObject>>(v); }
  bool IsArray() const { return std::holds_alternative<std::shared_ptr<JsonArray>>(v); }
  const JsonObject& AsObject() const { return *std::get<std::shared_ptr<JsonObject>>(v); }
  const JsonArray& AsArray() const { return *std::get<std::shared_ptr<JsonArray>>(v); }
  const std::string& AsString() const { return std::get<std::string>(v); }
  double AsNumber() const { return std::get<double>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses one document; `ok()` reports whether the whole input was valid.
  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    if (pos_ != s_.size()) ok_ = false;
    return v;
  }
  bool ok() const { return ok_; }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool Consume(char c) {
    if (Peek() != c) {
      ok_ = false;
      return false;
    }
    ++pos_;
    return true;
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return JsonValue{ParseString()};
      case 't':
        return ParseLiteral("true", JsonValue{true});
      case 'f':
        return ParseLiteral("false", JsonValue{false});
      case 'n':
        return ParseLiteral("null", JsonValue{nullptr});
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseLiteral(const std::string& lit, JsonValue v) {
    SkipWs();
    if (s_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return v;
    }
    ok_ = false;
    return JsonValue{};
  }

  std::string ParseString() {
    std::string out;
    if (!Consume('"')) return out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            pos_ += 4;  // tests only emit ASCII; skip the code point
            c = '?';
            break;
          default: c = esc;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) ok_ = false;
    else ++pos_;  // closing quote
    return out;
  }

  JsonValue ParseNumber() {
    SkipWs();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) {
      ok_ = false;
      return JsonValue{};
    }
    return JsonValue{std::stod(s_.substr(start, pos_ - start))};
  }

  JsonValue ParseArray() {
    auto arr = std::make_shared<JsonArray>();
    Consume('[');
    if (Peek() == ']') {
      ++pos_;
      return JsonValue{arr};
    }
    do {
      arr->push_back(ParseValue());
    } while (ok_ && Peek() == ',' && Consume(','));
    Consume(']');
    return JsonValue{arr};
  }

  JsonValue ParseObject() {
    auto obj = std::make_shared<JsonObject>();
    Consume('{');
    if (Peek() == '}') {
      ++pos_;
      return JsonValue{obj};
    }
    do {
      const std::string key = ParseString();
      Consume(':');
      (*obj)[key] = ParseValue();
    } while (ok_ && Peek() == ',' && Consume(','));
    Consume('}');
    return JsonValue{obj};
  }

  const std::string& s_;
  std::size_t pos_{0};
  bool ok_{true};
};

JsonValue ParseRecorder(const TraceRecorder& rec, bool* ok) {
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  const std::string doc = os.str();
  JsonParser parser(doc);
  JsonValue v = parser.Parse();
  *ok = parser.ok();
  return v;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable();
  }
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, EmptyRecorderEmitsValidJson) {
  TraceRecorder::Global().Clear();
  bool ok = false;
  const JsonValue doc = ParseRecorder(TraceRecorder::Global(), &ok);
  ASSERT_TRUE(ok);
  ASSERT_TRUE(doc.IsObject());
  ASSERT_TRUE(doc.AsObject().at("traceEvents").IsArray());
  EXPECT_TRUE(doc.AsObject().at("traceEvents").AsArray().empty());
}

TEST_F(TraceTest, SpanEmitsBalancedBeginEnd) {
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  bool ok = false;
  const JsonValue doc = ParseRecorder(TraceRecorder::Global(), &ok);
  ASSERT_TRUE(ok);
  const JsonArray& events = doc.AsObject().at("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 4u);
  // LIFO close order: outer-B, inner-B, inner-E, outer-E.
  EXPECT_EQ(events[0].AsObject().at("name").AsString(), "outer");
  EXPECT_EQ(events[0].AsObject().at("ph").AsString(), "B");
  EXPECT_EQ(events[1].AsObject().at("name").AsString(), "inner");
  EXPECT_EQ(events[2].AsObject().at("name").AsString(), "inner");
  EXPECT_EQ(events[2].AsObject().at("ph").AsString(), "E");
  EXPECT_EQ(events[3].AsObject().at("name").AsString(), "outer");
  EXPECT_EQ(events[3].AsObject().at("ph").AsString(), "E");
}

TEST_F(TraceTest, DisabledRecorderEmitsNothing) {
  TraceRecorder::Global().Disable();
  {
    TraceSpan span("ignored");
    UAVRES_TRACE_INSTANT("also-ignored");
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

// A span opened while disabled must not emit a dangling 'E' if tracing is
// enabled before it closes.
TEST_F(TraceTest, SpanOpenedWhileDisabledStaysInert) {
  TraceRecorder::Global().Disable();
  {
    TraceSpan span("pre-enable");
    TraceRecorder::Global().Enable();
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

// Property: events from K threads each nesting spans round-trip through the
// parser with per-thread balanced begin/end, monotonic timestamps, and the
// exact expected event count.
TEST_F(TraceTest, ConcurrentSpansRoundTripBalancedPerThread) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer("t/outer");
        TraceSpan inner("t/inner");
        UAVRES_TRACE_INSTANT("t/instant");
      }
    });
  }
  for (auto& th : pool) th.join();

  bool ok = false;
  const JsonValue doc = ParseRecorder(TraceRecorder::Global(), &ok);
  ASSERT_TRUE(ok);
  const JsonArray& events = doc.AsObject().at("traceEvents").AsArray();
  constexpr std::size_t kEventsPerIter = 5;  // 2B + 2E + 1 instant
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread * kEventsPerIter);

  std::map<int, int> depth;           // tid -> open spans
  std::map<int, double> last_ts;      // tid -> previous timestamp
  std::map<int, int> begins, ends;    // tid -> event tallies
  for (const JsonValue& ev : events) {
    const JsonObject& o = ev.AsObject();
    const int tid = static_cast<int>(o.at("tid").AsNumber());
    const std::string& ph = o.at("ph").AsString();
    const double ts = o.at("ts").AsNumber();
    if (last_ts.contains(tid)) {
      EXPECT_GE(ts, last_ts[tid]);
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      ++depth[tid];
      ++begins[tid];
    } else if (ph == "E") {
      --depth[tid];
      ++ends[tid];
      EXPECT_GE(depth[tid], 0) << "unbalanced E on tid " << tid;
    }
  }
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
    EXPECT_EQ(begins[tid], ends[tid]);
  }
}

TEST_F(TraceTest, ClearKeepsThreadBuffersUsable) {
  { TraceSpan span("before-clear"); }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 2u);
  TraceRecorder::Global().Clear();
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
  { TraceSpan span("after-clear"); }  // same thread-local buffer, still valid
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 2u);
}

TEST_F(TraceTest, EscapesSpecialCharactersInNames) {
  TraceRecorder::Global().Emit("quote\"back\\slash", 'i');
  bool ok = false;
  const JsonValue doc = ParseRecorder(TraceRecorder::Global(), &ok);
  ASSERT_TRUE(ok);
  const JsonArray& events = doc.AsObject().at("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].AsObject().at("name").AsString(), "quote\"back\\slash");
}

}  // namespace
}  // namespace uavres::telemetry
