// Wire-codec unit tests: every message round-trips bit-exactly, the frame
// reader reassembles frames from arbitrary byte fragmentation, and malformed
// input — truncation, trailing junk, oversized lengths, wrong versions —
// decodes to a clean failure, never to a plausible-but-wrong message.
#include "telemetry/spec_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace uavres::telemetry {
namespace {

WireSpec SampleFaultySpec() {
  WireSpec s;
  s.mission_index = 7;
  s.seed_base = 987654321;
  s.recovery = true;
  s.has_fault = true;
  s.fault_type = 3;
  s.fault_target = 1;
  s.start_time_s = 90.0;
  s.duration_s = 12.5;
  s.magnitude = 0.75;
  return s;
}

WireSpec SampleGoldSpec() {
  WireSpec s;
  s.mission_index = 2;
  s.seed_base = 2024;
  return s;
}

/// Feeds `bytes` into a FrameReader in chunks of `chunk` and returns every
/// completed frame.
std::vector<SpecFrame> FeedAll(const std::string& bytes, std::size_t chunk) {
  FrameReader reader;
  std::vector<SpecFrame> frames;
  for (std::size_t off = 0; off < bytes.size(); off += chunk) {
    EXPECT_TRUE(reader.Feed(bytes.data() + off, std::min(chunk, bytes.size() - off)));
    while (auto f = reader.Next()) frames.push_back(std::move(*f));
  }
  EXPECT_FALSE(reader.corrupt());
  return frames;
}

TEST(SpecCodec, HelloRoundTrip) {
  const std::string payload = Encode(WireHello{kSpecSchemaVersion, "test-client"});
  WireHello hello;
  ASSERT_TRUE(Decode(payload, hello));
  EXPECT_EQ(hello.schema_version, kSpecSchemaVersion);
  EXPECT_EQ(hello.client_name, "test-client");

  WireHelloAck ack;
  ASSERT_TRUE(Decode(Encode(WireHelloAck{kSpecSchemaVersion}), ack));
  EXPECT_EQ(ack.schema_version, kSpecSchemaVersion);
}

TEST(SpecCodec, SubmitBatchRoundTripPreservesEverySpecField) {
  WireBatch batch;
  batch.requests.push_back({11, SampleFaultySpec()});
  batch.requests.push_back({12, SampleGoldSpec()});
  WireBatch decoded_batch;
  ASSERT_TRUE(Decode(Encode(batch), decoded_batch));
  const auto& decoded = decoded_batch.requests;
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].request_id, 11u);
  EXPECT_EQ(decoded[1].request_id, 12u);
  const WireSpec& a = decoded[0].spec;
  const WireSpec& want = batch.requests[0].spec;
  EXPECT_EQ(a.mission_index, want.mission_index);
  EXPECT_EQ(a.seed_base, want.seed_base);
  EXPECT_EQ(a.recovery, want.recovery);
  EXPECT_EQ(a.has_fault, want.has_fault);
  EXPECT_EQ(a.fault_type, want.fault_type);
  EXPECT_EQ(a.fault_target, want.fault_target);
  EXPECT_EQ(a.start_time_s, want.start_time_s);
  EXPECT_EQ(a.duration_s, want.duration_s);
  EXPECT_EQ(a.magnitude, want.magnitude);
  EXPECT_FALSE(decoded[1].spec.has_fault);
}

TEST(SpecCodec, ProgressResultRejectStatsRoundTrip) {
  WireProgress progress;
  ASSERT_TRUE(Decode(Encode(WireProgress{42, RequestState::kAttached}), progress));
  EXPECT_EQ(progress.request_id, 42u);
  EXPECT_EQ(progress.state, RequestState::kAttached);

  WireResult result;
  const std::string opaque = std::string("binary\0payload", 14);
  ASSERT_TRUE(Decode(Encode(WireResult{7, ResultSource::kStoreHit, opaque}), result));
  EXPECT_EQ(result.request_id, 7u);
  EXPECT_EQ(result.source, ResultSource::kStoreHit);
  EXPECT_EQ(result.result_bytes, opaque);  // opaque payloads must survive embedded NULs

  WireReject reject;
  ASSERT_TRUE(
      Decode(Encode(WireReject{9, RejectReason::kRejectedOverload, "queue full"}), reject));
  EXPECT_EQ(reject.request_id, 9u);
  EXPECT_EQ(reject.reason, RejectReason::kRejectedOverload);
  EXPECT_EQ(reject.detail, "queue full");

  WireStatsReply stats;
  stats.stats.accepted = 10;
  stats.stats.completed = 9;
  stats.stats.singleflight = 3;
  stats.stats.gold_computed = 2;
  stats.metrics_json = "{\"x\":1}";
  WireStatsReply out;
  ASSERT_TRUE(Decode(Encode(stats), out));
  EXPECT_EQ(out.stats.accepted, 10u);
  EXPECT_EQ(out.stats.completed, 9u);
  EXPECT_EQ(out.stats.singleflight, 3u);
  EXPECT_EQ(out.stats.gold_computed, 2u);
  EXPECT_EQ(out.metrics_json, "{\"x\":1}");
}

TEST(SpecCodec, FrameReaderReassemblesAcrossArbitraryFragmentation) {
  std::string bytes;
  bytes += EncodeFrame(SpecMsgType::kHello, Encode(WireHello{kSpecSchemaVersion, "c"}));
  bytes += EncodeFrame(SpecMsgType::kProgress, Encode(WireProgress{5, RequestState::kRunning}));
  bytes += EncodeFrame(SpecMsgType::kStats, std::string());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                                  bytes.size()}) {
    const auto frames = FeedAll(bytes, chunk);
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, SpecMsgType::kHello);
    EXPECT_EQ(frames[1].type, SpecMsgType::kProgress);
    EXPECT_EQ(frames[2].type, SpecMsgType::kStats);
    WireProgress progress;
    ASSERT_TRUE(Decode(frames[1].payload, progress));
    EXPECT_EQ(progress.request_id, 5u);
    EXPECT_EQ(progress.state, RequestState::kRunning);
  }
}

TEST(SpecCodec, TruncatedPayloadFailsToDecode) {
  const std::string payload = Encode(WireHello{kSpecSchemaVersion, "client-name"});
  WireHello hello;
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(Decode(payload.substr(0, cut), hello)) << "cut=" << cut;
  }
  const std::string batch = Encode(WireBatch{{{1, SampleFaultySpec()}}});
  WireBatch decoded;
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4}, batch.size() / 2,
                                batch.size() - 1}) {
    EXPECT_FALSE(Decode(batch.substr(0, cut), decoded)) << "cut=" << cut;
  }
}

TEST(SpecCodec, TrailingJunkFailsToDecode) {
  // Decoders enforce full payload consumption: a frame carrying extra bytes
  // is a framing bug upstream, not something to silently ignore.
  EXPECT_FALSE([&] {
    WireHelloAck ack;
    return Decode(Encode(WireHelloAck{kSpecSchemaVersion}) + "x", ack);
  }());
  EXPECT_FALSE([&] {
    WireBatch decoded;
    return Decode(Encode(WireBatch{{{1, SampleGoldSpec()}}}) + "junk", decoded);
  }());
}

TEST(SpecCodec, OversizedFrameLengthPoisonsReader) {
  // A length prefix beyond kMaxFramePayloadBytes can only come from a
  // corrupt or hostile peer; the reader latches its corrupt state instead
  // of trying to buffer gigabytes.
  std::string bytes;
  const std::uint32_t huge = kMaxFramePayloadBytes + 1;
  bytes.push_back(static_cast<char>(huge & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 8) & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 16) & 0xFF));
  bytes.push_back(static_cast<char>((huge >> 24) & 0xFF));
  bytes.push_back(1);  // msg type
  FrameReader reader;
  ASSERT_TRUE(reader.Feed(bytes.data(), bytes.size()));
  EXPECT_FALSE(reader.Next().has_value());  // detection happens at parse time
  EXPECT_TRUE(reader.corrupt());
  // The corrupt state latches: further feeds are refused.
  EXPECT_FALSE(reader.Feed(bytes.data(), bytes.size()));
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(SpecCodec, RejectsOverlongBatchAndStrings) {
  // Batch count beyond kMaxSpecsPerBatch must fail before any allocation
  // proportional to the claimed count.
  std::string payload = Encode(WireBatch{{{1, SampleGoldSpec()}}});
  // Patch the leading u32 count to an absurd value; the rest of the payload
  // is now short, but the count check must trip first.
  const std::uint32_t absurd = kMaxSpecsPerBatch + 1;
  payload[0] = static_cast<char>(absurd & 0xFF);
  payload[1] = static_cast<char>((absurd >> 8) & 0xFF);
  payload[2] = static_cast<char>((absurd >> 16) & 0xFF);
  payload[3] = static_cast<char>((absurd >> 24) & 0xFF);
  WireBatch decoded;
  EXPECT_FALSE(Decode(payload, decoded));

  WireHello hello;
  EXPECT_FALSE(Decode(
      Encode(WireHello{kSpecSchemaVersion, std::string(kMaxWireStringLen + 1, 'x')}), hello));
}

TEST(SpecCodec, SchemaVersionMatchesApiContract) {
  // One constant, three consumers (wire, cache key, store): the wire value
  // IS the canonical definition — this pins today's value so a bump is a
  // deliberate, reviewed act that also re-pins the historical cache keys.
  EXPECT_EQ(kSpecSchemaVersion, 4u);
}

}  // namespace
}  // namespace uavres::telemetry
