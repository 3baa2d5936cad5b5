#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hpp"

/// \file protocol.hpp
/// \brief The mighty-serve wire protocol: framing and message codecs.
///
/// Transport-agnostic: this header knows bytes, not sockets (the fuzz_frame
/// harness drives the decoder straight from a byte buffer).  See
/// docs/protocol.md for the normative spec.
///
/// Every message is one frame:
///
///   +-----+-------------------+------------------------+
///   | tag |  payload length   |  payload               |
///   | u8  |  u32 little-endian|  `length` bytes        |
///   +-----+-------------------+------------------------+
///
/// Payload scalars are little-endian; strings are u32 length + raw bytes.
/// A declared length above kMaxPayloadBytes is rejected before any
/// allocation (oversized_frame); payload bytes that do not decode as the
/// tagged message are malformed_frame.
///
/// The conversation starts with HELLO carrying the client's protocol
/// version; the server accepts only an exact match of kProtocolVersion
/// (version_mismatch otherwise) — the version bumps on any change to these
/// layouts, and artifact identifiers (job ids) stay stable within a version
/// so later sharded-database work can reference them.

namespace mighty::serve {

inline constexpr uint32_t kProtocolVersion = 3;

/// Upper bound on a frame payload.  Generous for BLIF networks (16 MiB text)
/// while keeping a hostile 4 GiB declared length from ever allocating.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

/// Frame tags.  Requests have the high bit clear, replies set; ERROR is the
/// universal failure reply.  Values are wire format — append, never renumber.
enum class Tag : uint8_t {
  hello = 0x01,
  submit = 0x02,
  status = 0x03,
  result = 0x04,
  cancel = 0x05,
  stats = 0x06,
  shutdown = 0x07,

  hello_ok = 0x81,
  submit_ok = 0x82,
  status_ok = 0x83,
  result_ok = 0x84,
  cancel_ok = 0x85,
  stats_ok = 0x86,
  shutdown_ok = 0x87,

  error = 0xFF,
};

/// True when `raw` is one of the Tag enumerators above.  Consumers validate
/// the raw byte HERE, before casting and switching on Tag, so their switches
/// can list every enumerator with no default: label — then -Wswitch (and the
/// wire-enum-switch lint) flags any appended tag at compile time instead of
/// letting it fall into a default silently.
bool is_known_tag(uint8_t raw);

struct Frame {
  uint8_t tag = 0;
  std::vector<uint8_t> payload;
};

/// Serializes one frame (header + payload).
std::vector<uint8_t> encode_frame(Tag tag, const std::vector<uint8_t>& payload);

/// Incremental frame parser over an arbitrarily-chunked byte stream.  feed()
/// appends; next() yields complete frames in order, nullopt when more bytes
/// are needed, and throws api::Error(oversized_frame) the moment a header
/// declares more than kMaxPayloadBytes — before buffering the payload.
class FrameDecoder {
 public:
  void feed(const uint8_t* data, size_t size);
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  size_t pending() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
};

// --- payload primitives ------------------------------------------------------

/// Append-only payload builder (little-endian scalars, length-prefixed
/// strings).
class Writer {
 public:
  void u8(uint8_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void f64(double v);
  void str(const std::string& v);
  std::vector<uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked payload reader; any read past the end (or a string whose
/// declared length overruns the payload) throws api::Error(malformed_frame).
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& payload)
      : Reader(payload.data(), payload.size()) {}

  uint8_t u8();
  uint32_t u32();
  uint64_t u64();
  double f64();
  std::string str();
  bool at_end() const { return pos_ == size_; }
  /// Decoders call this last: trailing bytes are malformed_frame, so a
  /// message is exactly its layout, nothing more.
  void expect_end() const;

 private:
  void require(size_t n) const;
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- message codecs ----------------------------------------------------------
// encode_* returns the payload for the named tag; decode_* parses it,
// throwing api::Error(malformed_frame) on any violation.

std::vector<uint8_t> encode_hello(uint32_t version);
uint32_t decode_hello(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_submit(const api::JobRequest& request);
api::JobRequest decode_submit(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_job_id(api::JobId id);
api::JobId decode_job_id(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_status_ok(const api::JobStatus& status);
api::JobStatus decode_status_ok(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_result_ok(const api::JobResult& result);
api::JobResult decode_result_ok(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_cancel_ok(bool had_effect);
bool decode_cancel_ok(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_stats_ok(const api::ServiceStats& stats);
api::ServiceStats decode_stats_ok(const std::vector<uint8_t>& payload);

std::vector<uint8_t> encode_error(api::ErrorCode code, const std::string& message);
/// Returns the coded error; the caller decides whether to throw it.
api::Error decode_error(const std::vector<uint8_t>& payload);

}  // namespace mighty::serve
