// Tests for the mighty-serve wire protocol (serve/protocol.hpp): frame
// assembly over arbitrary chunking, the payload codecs, and — most
// importantly — the edge cases a hostile or buggy peer can produce:
// truncated frames, oversized declared lengths, trailing garbage, out-of-
// range enum values.  Every rejection must be the right stable ErrorCode,
// never a crash or a silent misparse.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mighty::serve {
namespace {

using api::ErrorCode;

/// Runs `call` and returns the ErrorCode it threw (ok when it did not).
template <typename Call>
ErrorCode code_of(Call&& call) {
  try {
    call();
    return ErrorCode::ok;
  } catch (const api::Error& e) {
    return e.code();
  }
}

/// Decodes `bytes` in one feed, expecting exactly one complete frame.
Frame one_frame(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_FALSE(decoder.next().has_value());
  return frame.value_or(Frame{});
}

TEST(ProtocolTest, FrameRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = encode_frame(Tag::submit, payload);
  ASSERT_EQ(bytes.size(), 1 + 4 + payload.size());
  const Frame frame = one_frame(bytes);
  EXPECT_EQ(frame.tag, static_cast<uint8_t>(Tag::submit));
  EXPECT_EQ(frame.payload, payload);
}

TEST(ProtocolTest, DecoderReassemblesByteByByte) {
  const auto bytes = encode_frame(Tag::hello, encode_hello(kProtocolVersion));
  FrameDecoder decoder;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.next().has_value()) << "frame complete too early";
  }
  decoder.feed(&bytes[bytes.size() - 1], 1);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(decode_hello(frame->payload), kProtocolVersion);
}

TEST(ProtocolTest, DecoderYieldsBackToBackFrames) {
  auto bytes = encode_frame(Tag::status, encode_job_id(7));
  const auto second = encode_frame(Tag::cancel, encode_job_id(9));
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  auto a = decoder.next();
  auto b = decoder.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(decode_job_id(a->payload), 7u);
  EXPECT_EQ(decode_job_id(b->payload), 9u);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.pending(), 0u);
}

TEST(ProtocolTest, TruncatedFrameWaitsInsteadOfFailing) {
  const auto bytes = encode_frame(Tag::submit, std::vector<uint8_t>(100, 0xAB));
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);  // everything but the last byte
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.pending(), bytes.size() - 1);
}

TEST(ProtocolTest, OversizedHeaderRejectedBeforeBuffering) {
  // Header declaring 4 GiB: must throw from the 5 header bytes alone.
  const std::vector<uint8_t> header = {0x02, 0xFF, 0xFF, 0xFF, 0xFF};
  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  EXPECT_EQ(code_of([&] { decoder.next(); }), ErrorCode::oversized_frame);

  // Just past the cap is rejected; exactly at the cap is not oversized.
  const uint32_t limit = kMaxPayloadBytes;
  std::vector<uint8_t> boundary = {0x02,
                                   static_cast<uint8_t>((limit + 1) & 0xFF),
                                   static_cast<uint8_t>(((limit + 1) >> 8) & 0xFF),
                                   static_cast<uint8_t>(((limit + 1) >> 16) & 0xFF),
                                   static_cast<uint8_t>(((limit + 1) >> 24) & 0xFF)};
  FrameDecoder rejecting;
  rejecting.feed(boundary.data(), boundary.size());
  EXPECT_EQ(code_of([&] { rejecting.next(); }), ErrorCode::oversized_frame);

  boundary = {0x02, static_cast<uint8_t>(limit & 0xFF),
              static_cast<uint8_t>((limit >> 8) & 0xFF),
              static_cast<uint8_t>((limit >> 16) & 0xFF),
              static_cast<uint8_t>((limit >> 24) & 0xFF)};
  FrameDecoder accepting;
  accepting.feed(boundary.data(), boundary.size());
  EXPECT_FALSE(accepting.next().has_value());  // legal, just incomplete
}

TEST(ProtocolTest, HelloRoundTripAndRejection) {
  EXPECT_EQ(decode_hello(encode_hello(3)), 3u);
  EXPECT_EQ(code_of([] { decode_hello({1, 2}); }), ErrorCode::malformed_frame);
  // Trailing bytes are not ignored: a message is exactly its layout.
  auto padded = encode_hello(1);
  padded.push_back(0);
  EXPECT_EQ(code_of([&] { decode_hello(padded); }), ErrorCode::malformed_frame);
}

TEST(ProtocolTest, SubmitRoundTrip) {
  api::JobRequest request;
  request.name = "mult16";
  request.script = "TF5; (BFD; size)*; map";
  request.network_blif = ".model m\n.inputs a\n.outputs y\n.end\n";
  request.node_budget = 123;
  request.conflict_budget = 456789;
  request.wall_budget_seconds = 2.5;

  const auto decoded = decode_submit(encode_submit(request));
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.script, request.script);
  EXPECT_EQ(decoded.network_blif, request.network_blif);
  EXPECT_EQ(decoded.node_budget, request.node_budget);
  EXPECT_EQ(decoded.conflict_budget, request.conflict_budget);
  EXPECT_EQ(decoded.wall_budget_seconds, request.wall_budget_seconds);
}

TEST(ProtocolTest, StringLengthOverrunIsMalformed) {
  // A string declaring 1000 bytes with 2 present must not read out of
  // bounds or adopt garbage.
  Writer w;
  w.u32(1000);
  w.u8('x');
  w.u8('y');
  const auto payload = w.take();
  EXPECT_EQ(code_of([&] { decode_submit(payload); }), ErrorCode::malformed_frame);
}

TEST(ProtocolTest, StatusRoundTripAndBadState) {
  for (const auto state :
       {api::JobState::queued, api::JobState::running, api::JobState::done,
        api::JobState::failed, api::JobState::cancelled}) {
    EXPECT_EQ(decode_status_ok(encode_status_ok(api::JobStatus{state})).state, state);
  }
  Writer w;
  w.u8(99);  // not a JobState
  const auto payload = w.take();
  EXPECT_EQ(code_of([&] { decode_status_ok(payload); }), ErrorCode::malformed_frame);
}

TEST(ProtocolTest, ResultRoundTripCarriesReport) {
  api::JobResult result;
  result.code = ErrorCode::ok;
  result.network_blif = ".model mig\n.end\n";
  result.report.size_before = 100;
  result.report.size_after = 80;
  result.report.depth_before = 12;
  result.report.depth_after = 9;
  result.report.seconds = 0.25;
  result.report.oracle_queries = 42;
  result.report.oracle_cache5_hits = 17;
  result.report.oracle_conflicts = 123456;
  result.report.oracle_constructed = 9;
  flow::PassStats pass;
  pass.name = "TF";
  pass.size_before = 100;
  pass.size_after = 80;
  pass.oracle_conflicts = 123456;
  pass.oracle_constructed = 9;
  result.report.passes.push_back(pass);

  const auto decoded = decode_result_ok(encode_result_ok(result));
  EXPECT_EQ(decoded.code, ErrorCode::ok);
  EXPECT_EQ(decoded.network_blif, result.network_blif);
  EXPECT_EQ(decoded.report.size_before, 100u);
  EXPECT_EQ(decoded.report.size_after, 80u);
  EXPECT_EQ(decoded.report.seconds, 0.25);
  EXPECT_EQ(decoded.report.oracle_queries, 42u);
  EXPECT_EQ(decoded.report.oracle_cache5_hits, 17u);
  EXPECT_EQ(decoded.report.oracle_conflicts, 123456u);
  EXPECT_EQ(decoded.report.oracle_constructed, 9u);
  ASSERT_EQ(decoded.report.passes.size(), 1u);
  EXPECT_EQ(decoded.report.passes[0].name, "TF");
  EXPECT_EQ(decoded.report.passes[0].size_after, 80u);
  EXPECT_EQ(decoded.report.passes[0].oracle_conflicts, 123456u);
  EXPECT_EQ(decoded.report.passes[0].oracle_constructed, 9u);
}

/// Lower-case hex of `bytes`, two digits per byte.
std::string hex(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// The result and stats layouts, pinned byte for byte (all integers little-
// endian).  Every counter holds a distinct value, so a reordered, dropped
// or duplicated field changes the bytes.  fuzz/corpus/frame/result_ok.bin
// and stats_ok.bin hold these two frames.
TEST(ProtocolTest, GoldenResultAndStatsFrames) {
  api::JobResult result;
  result.network_blif = ".end\n";
  auto& report = result.report;
  report.size_before = 100;
  report.size_after = 80;
  report.depth_before = 12;
  report.depth_after = 9;
  report.seconds = 0.5;
  report.oracle_queries = 1;
  report.oracle_answered = 2;
  report.oracle_cache5_hits = 3;
  report.oracle_synthesized = 4;
  report.oracle_constructed = 5;
  report.oracle_failures = 6;
  report.oracle_conflicts = 7;
  flow::PassStats pass;
  pass.name = "TF";
  pass.size_before = 100;
  pass.size_after = 80;
  pass.depth_before = 12;
  pass.depth_after = 9;
  pass.cuts_evaluated = 21;
  pass.replacements = 22;
  pass.oracle_queries = 11;
  pass.oracle_answered = 12;
  pass.oracle_cache5_hits = 13;
  pass.oracle_synthesized = 14;
  pass.oracle_constructed = 15;
  pass.oracle_failures = 16;
  pass.oracle_conflicts = 17;
  pass.seconds = 0.25;
  report.passes.push_back(pass);
  const auto result_frame = encode_frame(Tag::result_ok, encode_result_ok(result));
  EXPECT_EQ(hex(result_frame),
            "84" "d4000000"                          // tag, payload length 212
            "00000000" "00000000"                    // code ok, empty message
            "05000000" "2e656e640a"                  // network_blif ".end\n"
            "64000000" "50000000" "0c000000" "09000000"  // size, depth
            "000000000000e03f"                       // seconds 0.5
            "0100000000000000" "0200000000000000"    // queries, answered
            "0300000000000000" "0400000000000000"    // cache5_hits, synthesized
            "0500000000000000" "0600000000000000"    // constructed, failures
            "0700000000000000"                       // conflicts
            "01000000"                               // one pass record:
            "02000000" "5446"                        //   name "TF"
            "64000000" "50000000" "0c000000" "09000000"  // size, depth
            "1500000000000000" "1600000000000000"    //   cuts, replacements
            "00" "00000000" "00000000"               //   not mapping, 0 LUTs
            "0b00000000000000" "0c00000000000000"    //   queries, answered
            "0d00000000000000" "0e00000000000000"    //   cache5_hits, synthesized
            "0f00000000000000" "1000000000000000"    //   constructed, failures
            "1100000000000000"                       //   conflicts
            "000000000000d03f");                     //   seconds 0.25
  EXPECT_EQ(encode_result_ok(decode_result_ok(one_frame(result_frame).payload)),
            encode_result_ok(result));

  api::ServiceStats stats;
  stats.submitted = 1;
  stats.completed = 2;
  stats.failed = 3;
  stats.cancelled = 4;
  stats.queued = 5;
  stats.running = 6;
  stats.oracle_queries = 7;
  stats.oracle_cache5_hits = 8;
  stats.oracle_synthesized = 9;
  stats.cache_entries = 10;
  stats.cache_dirty = 11;
  stats.threads = 12;
  stats.job_workers = 13;
  const auto stats_frame = encode_frame(Tag::stats_ok, encode_stats_ok(stats));
  EXPECT_EQ(hex(stats_frame),
            "86" "60000000"                          // tag, payload length 96
            "0100000000000000" "0200000000000000"    // submitted, completed
            "0300000000000000" "0400000000000000"    // failed, cancelled
            "0500000000000000" "0600000000000000"    // queued, running
            "0700000000000000" "0800000000000000"    // oracle queries, cache5_hits
            "0900000000000000"                       // oracle synthesized
            "0a00000000000000" "0b00000000000000"    // cache entries, dirty
            "0c000000" "0d000000");                  // threads, job workers
  EXPECT_EQ(encode_stats_ok(decode_stats_ok(one_frame(stats_frame).payload)),
            encode_stats_ok(stats));
}

TEST(ProtocolTest, ManyMinimalPassRecordsAreNotAForgedCount) {
  // Nameless pass records are the smallest a report can carry; the forged-
  // count floor must still admit any number of them.
  api::JobResult result;
  result.report.passes.resize(500);
  const auto decoded = decode_result_ok(encode_result_ok(result));
  EXPECT_EQ(decoded.report.passes.size(), 500u);
}

TEST(ProtocolTest, ResultWithAbsurdPassCountIsMalformed) {
  // A tiny payload claiming millions of passes must be rejected from the
  // count alone, before any per-pass allocation.
  Writer w;
  w.u32(static_cast<uint32_t>(ErrorCode::ok));
  w.str("");  // message
  w.str("");  // blif
  w.u32(0);   // size_before
  w.u32(0);
  w.u32(0);
  w.u32(0);
  w.f64(0.0);
  w.u64(0);  // oracle counters, conflicts last
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  w.u32(50'000'000);  // pass count
  const auto payload = w.take();
  EXPECT_EQ(code_of([&] { decode_result_ok(payload); }), ErrorCode::malformed_frame);
}

TEST(ProtocolTest, StatsRoundTrip) {
  api::ServiceStats stats;
  stats.submitted = 10;
  stats.completed = 7;
  stats.failed = 2;
  stats.cancelled = 1;
  stats.queued = 3;
  stats.running = 2;
  stats.oracle_queries = 1000;
  stats.oracle_cache5_hits = 900;
  stats.oracle_synthesized = 50;
  stats.cache_entries = 777;
  stats.cache_dirty = 5;
  stats.threads = 8;
  stats.job_workers = 2;

  const auto decoded = decode_stats_ok(encode_stats_ok(stats));
  EXPECT_EQ(decoded.submitted, 10u);
  EXPECT_EQ(decoded.completed, 7u);
  EXPECT_EQ(decoded.failed, 2u);
  EXPECT_EQ(decoded.cancelled, 1u);
  EXPECT_EQ(decoded.queued, 3u);
  EXPECT_EQ(decoded.running, 2u);
  EXPECT_EQ(decoded.oracle_queries, 1000u);
  EXPECT_EQ(decoded.oracle_cache5_hits, 900u);
  EXPECT_EQ(decoded.oracle_synthesized, 50u);
  EXPECT_EQ(decoded.cache_entries, 777u);
  EXPECT_EQ(decoded.cache_dirty, 5u);
  EXPECT_EQ(decoded.threads, 8u);
  EXPECT_EQ(decoded.job_workers, 2u);
}

TEST(ProtocolTest, CancelRoundTrip) {
  EXPECT_TRUE(decode_cancel_ok(encode_cancel_ok(true)));
  EXPECT_FALSE(decode_cancel_ok(encode_cancel_ok(false)));
  EXPECT_EQ(code_of([] { decode_cancel_ok({}); }), ErrorCode::malformed_frame);
}

TEST(ProtocolTest, ErrorRoundTripClampsUnknownCodes) {
  const auto decoded =
      decode_error(encode_error(ErrorCode::wall_budget_exceeded, "too slow"));
  EXPECT_EQ(decoded.code(), ErrorCode::wall_budget_exceeded);
  EXPECT_STREQ(decoded.what(), "too slow");

  // A peer speaking a future protocol may send codes we do not know; they
  // clamp to `internal` instead of faulting the connection.
  Writer w;
  w.u32(999);
  w.str("from the future");
  const auto future = decode_error(w.take());
  EXPECT_EQ(future.code(), ErrorCode::internal);
}

TEST(ProtocolTest, EmptyPayloadsAreMalformedForEveryTypedDecoder) {
  const std::vector<uint8_t> empty;
  EXPECT_EQ(code_of([&] { decode_hello(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_submit(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_job_id(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_status_ok(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_result_ok(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_cancel_ok(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_stats_ok(empty); }), ErrorCode::malformed_frame);
  EXPECT_EQ(code_of([&] { decode_error(empty); }), ErrorCode::malformed_frame);
}

}  // namespace
}  // namespace mighty::serve
