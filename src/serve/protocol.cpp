#include "serve/protocol.hpp"

#include <cstring>

#include "opt/oracle_counts.hpp"

namespace mighty::serve {

namespace {

using api::Error;
using api::ErrorCode;

[[noreturn]] void malformed(const std::string& what) {
  throw Error(ErrorCode::malformed_frame, "malformed frame: " + what);
}

/// ErrorCode travels as u32; values outside the enum (a newer peer) land on
/// `internal` rather than forging a code this build never defined.
ErrorCode code_from_wire(uint32_t raw) {
  if (raw > static_cast<uint32_t>(ErrorCode::internal)) {
    return ErrorCode::internal;
  }
  return static_cast<ErrorCode>(raw);
}

api::JobState state_from_wire(uint8_t raw) {
  if (raw > static_cast<uint8_t>(api::JobState::cancelled)) {
    malformed("job state " + std::to_string(raw));
  }
  return static_cast<api::JobState>(raw);
}

}  // namespace

// --- framing -----------------------------------------------------------------

bool is_known_tag(uint8_t raw) {
  switch (static_cast<Tag>(raw)) {
    case Tag::hello:
    case Tag::submit:
    case Tag::status:
    case Tag::result:
    case Tag::cancel:
    case Tag::stats:
    case Tag::shutdown:
    case Tag::hello_ok:
    case Tag::submit_ok:
    case Tag::status_ok:
    case Tag::result_ok:
    case Tag::cancel_ok:
    case Tag::stats_ok:
    case Tag::shutdown_ok:
    case Tag::error:
      return true;
  }
  return false;
}

std::vector<uint8_t> encode_frame(Tag tag, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(5 + payload.size());
  out.push_back(static_cast<uint8_t>(tag));
  const auto length = static_cast<uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<uint8_t>(length >> shift));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameDecoder::feed(const uint8_t* data, size_t size) {
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // a long conversation does not degrade to O(n^2) erases.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameDecoder::next() {
  const size_t available = buffer_.size() - consumed_;
  if (available < 5) return std::nullopt;
  const uint8_t* head = buffer_.data() + consumed_;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(head[1 + i]) << (8 * i);
  }
  // Reject before buffering: a hostile 4 GiB declaration must not drive
  // allocation.  The header alone convicts it.
  if (length > kMaxPayloadBytes) {
    throw Error(ErrorCode::oversized_frame,
                "frame declares " + std::to_string(length) +
                    " payload bytes (cap " + std::to_string(kMaxPayloadBytes) +
                    ")");
  }
  if (available < 5 + static_cast<size_t>(length)) return std::nullopt;
  Frame frame;
  frame.tag = head[0];
  frame.payload.assign(head + 5, head + 5 + length);
  consumed_ += 5 + static_cast<size_t>(length);
  return frame;
}

// --- payload primitives ------------------------------------------------------

void Writer::u8(uint8_t v) { bytes_.push_back(v); }

void Writer::u32(uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Writer::u64(uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(v >> shift));
  }
}

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::str(const std::string& v) {
  u32(static_cast<uint32_t>(v.size()));
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void Reader::require(size_t n) const {
  if (size_ - pos_ < n) malformed("truncated payload");
}

uint8_t Reader::u8() {
  require(1);
  return data_[pos_++];
}

uint32_t Reader::u32() {
  require(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::u64() {
  require(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double Reader::f64() {
  const uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::str() {
  const uint32_t length = u32();
  require(length);
  std::string v(reinterpret_cast<const char*>(data_ + pos_), length);
  pos_ += length;
  return v;
}

void Reader::expect_end() const {
  if (!at_end()) malformed("trailing bytes");
}

// --- message codecs ----------------------------------------------------------

std::vector<uint8_t> encode_hello(uint32_t version) {
  Writer w;
  w.u32(version);
  return w.take();
}

uint32_t decode_hello(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  const uint32_t version = r.u32();
  r.expect_end();
  return version;
}

std::vector<uint8_t> encode_submit(const api::JobRequest& request) {
  Writer w;
  w.str(request.name);
  w.str(request.script);
  w.str(request.network_blif);
  w.u32(request.node_budget);
  w.u64(request.conflict_budget);
  w.f64(request.wall_budget_seconds);
  return w.take();
}

api::JobRequest decode_submit(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  api::JobRequest request;
  request.name = r.str();
  request.script = r.str();
  request.network_blif = r.str();
  request.node_budget = r.u32();
  request.conflict_budget = r.u64();
  request.wall_budget_seconds = r.f64();
  r.expect_end();
  return request;
}

std::vector<uint8_t> encode_job_id(api::JobId id) {
  Writer w;
  w.u64(id);
  return w.take();
}

api::JobId decode_job_id(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  const api::JobId id = r.u64();
  r.expect_end();
  return id;
}

std::vector<uint8_t> encode_status_ok(const api::JobStatus& status) {
  Writer w;
  w.u8(static_cast<uint8_t>(status.state));
  return w.take();
}

api::JobStatus decode_status_ok(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  api::JobStatus status;
  status.state = state_from_wire(r.u8());
  r.expect_end();
  return status;
}

namespace {

/// The oracle counter record: one u64 per field, in kOracleCountFields order.
void write_counts(Writer& w, const opt::OracleCounts& counts) {
  for (const auto& field : opt::kOracleCountFields) w.u64(counts.*field.count);
}

void read_counts(Reader& r, opt::OracleCounts& counts) {
  for (const auto& field : opt::kOracleCountFields) counts.*field.count = r.u64();
}

/// Smallest encoded PassStats record: an empty name (4), four u32 sizes and
/// depths (16), two u64 effort counters (16), is_mapping (1), two u32 LUT
/// figures (8), the oracle counter record and the f64 seconds (8).
constexpr size_t kMinPassBytes = 53 + 8 * opt::kOracleCountFields.size();

void write_pass_stats(Writer& w, const flow::PassStats& pass) {
  w.str(pass.name);
  w.u32(pass.size_before);
  w.u32(pass.size_after);
  w.u32(pass.depth_before);
  w.u32(pass.depth_after);
  w.u64(pass.cuts_evaluated);
  w.u64(pass.replacements);
  w.u8(pass.is_mapping ? 1 : 0);
  w.u32(pass.num_luts);
  w.u32(pass.lut_depth);
  write_counts(w, pass);
  w.f64(pass.seconds);
}

flow::PassStats read_pass_stats(Reader& r) {
  flow::PassStats pass;
  pass.name = r.str();
  pass.size_before = r.u32();
  pass.size_after = r.u32();
  pass.depth_before = r.u32();
  pass.depth_after = r.u32();
  pass.cuts_evaluated = r.u64();
  pass.replacements = r.u64();
  pass.is_mapping = r.u8() != 0;
  pass.num_luts = r.u32();
  pass.lut_depth = r.u32();
  read_counts(r, pass);
  pass.seconds = r.f64();
  return pass;
}

}  // namespace

std::vector<uint8_t> encode_result_ok(const api::JobResult& result) {
  Writer w;
  w.u32(static_cast<uint32_t>(result.code));
  w.str(result.message);
  w.str(result.network_blif);
  const auto& report = result.report;
  w.u32(report.size_before);
  w.u32(report.size_after);
  w.u32(report.depth_before);
  w.u32(report.depth_after);
  w.f64(report.seconds);
  write_counts(w, report);
  w.u32(static_cast<uint32_t>(report.passes.size()));
  for (const auto& pass : report.passes) write_pass_stats(w, pass);
  return w.take();
}

api::JobResult decode_result_ok(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  api::JobResult result;
  result.code = code_from_wire(r.u32());
  result.message = r.str();
  result.network_blif = r.str();
  auto& report = result.report;
  report.size_before = r.u32();
  report.size_after = r.u32();
  report.depth_before = r.u32();
  report.depth_after = r.u32();
  report.seconds = r.f64();
  read_counts(r, report);
  const uint32_t num_passes = r.u32();
  // Each pass costs >= kMinPassBytes payload bytes; a count the payload
  // cannot hold is a forged header, not a big report.
  if (static_cast<size_t>(num_passes) > payload.size() / kMinPassBytes + 1) {
    malformed("pass count " + std::to_string(num_passes));
  }
  report.passes.reserve(num_passes);
  for (uint32_t i = 0; i < num_passes; ++i) {
    report.passes.push_back(read_pass_stats(r));
  }
  r.expect_end();
  return result;
}

std::vector<uint8_t> encode_cancel_ok(bool had_effect) {
  Writer w;
  w.u8(had_effect ? 1 : 0);
  return w.take();
}

bool decode_cancel_ok(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  const bool had_effect = r.u8() != 0;
  r.expect_end();
  return had_effect;
}

std::vector<uint8_t> encode_stats_ok(const api::ServiceStats& stats) {
  Writer w;
  w.u64(stats.submitted);
  w.u64(stats.completed);
  w.u64(stats.failed);
  w.u64(stats.cancelled);
  w.u64(stats.queued);
  w.u64(stats.running);
  w.u64(stats.oracle_queries);
  w.u64(stats.oracle_cache5_hits);
  w.u64(stats.oracle_synthesized);
  w.u64(stats.cache_entries);
  w.u64(stats.cache_dirty);
  w.u32(stats.threads);
  w.u32(stats.job_workers);
  return w.take();
}

api::ServiceStats decode_stats_ok(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  api::ServiceStats stats;
  stats.submitted = r.u64();
  stats.completed = r.u64();
  stats.failed = r.u64();
  stats.cancelled = r.u64();
  stats.queued = r.u64();
  stats.running = r.u64();
  stats.oracle_queries = r.u64();
  stats.oracle_cache5_hits = r.u64();
  stats.oracle_synthesized = r.u64();
  stats.cache_entries = r.u64();
  stats.cache_dirty = r.u64();
  stats.threads = r.u32();
  stats.job_workers = r.u32();
  r.expect_end();
  return stats;
}

std::vector<uint8_t> encode_error(api::ErrorCode code, const std::string& message) {
  Writer w;
  w.u32(static_cast<uint32_t>(code));
  w.str(message);
  return w.take();
}

api::Error decode_error(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  const ErrorCode code = code_from_wire(r.u32());
  std::string message = r.str();
  r.expect_end();
  return {code, message};
}

}  // namespace mighty::serve
