#pragma once

/// \file wire.hpp
/// The wire framing under every hoval transport: length-prefixed,
/// checksummed frames over a byte stream.  Each frame carries one hovald
/// protocol message (service/protocol.hpp), whether the peer is a hovald
/// client or a hoval_dispatch backend.
///
/// Framing: every frame is a 4-byte little-endian payload length, a
/// 4-byte little-endian CRC-32 of the payload (runtime/crc32.hpp — the
/// same value-fault-to-benign-fault transform the paper's Sec. 5.2
/// discusses, applied to our own transport), then exactly `length`
/// payload bytes.  The decoder is incremental — feed it whatever read()
/// returned and pop complete frames — and defensive: a length prefix
/// above kMaxFramePayload throws WireError immediately (before any
/// allocation of that size), a checksum mismatch throws WireError (a
/// flipped bit becomes a detected link fault the peer-loss paths already
/// handle, never a silently altered result byte), and a stream that ends
/// mid-frame is detectable via pending_bytes(), so a killed peer's
/// half-written frame is a diagnosed truncation, never a silently
/// misparsed payload.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace hoval::dispatch {

/// Thrown on malformed frames: an oversized length prefix, a checksum
/// mismatch, or a stream that ends mid-frame.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard cap on one frame's payload.  Far above any real message (a
/// scenario spec is ~1 KB, a sweep result a few KB), so hitting it means the
/// length prefix is garbage — reject before trusting it with an
/// allocation.
constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Bytes before the payload: [u32-LE length][u32-LE crc32(payload)].
constexpr std::size_t kFrameHeaderBytes = 8;

/// [u32-LE length][u32-LE crc32(payload)][payload].  \throws WireError
/// when payload exceeds kMaxFramePayload.
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder over an arbitrary chunking of the stream.
class FrameDecoder {
 public:
  /// Appends raw stream bytes (any chunking, including byte-at-a-time).
  void feed(const void* data, std::size_t size);

  /// Pops the next complete frame's payload, or nullopt when the buffered
  /// bytes do not yet hold one.  \throws WireError on a length prefix
  /// above kMaxFramePayload or a payload whose CRC-32 does not match the
  /// header — the stream is unrecoverable after either.
  std::optional<std::string> next();

  /// Bytes buffered toward an incomplete frame.  Nonzero at end-of-stream
  /// means the peer died mid-frame (a truncated frame).
  std::size_t pending_bytes() const noexcept { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already handed out
};

/// Writes one frame to a blocking fd, looping over partial writes and
/// EINTR (dispatch/stream.hpp).  Returns false when the peer is gone
/// (EPIPE or any other write error) — the caller decides whether that is a
/// worker death or a host shutdown.  \throws WireError only for an
/// oversized payload.
bool write_frame(int fd, std::string_view payload);

/// Blocking companion to FrameDecoder for request/response peers (the
/// service client, tests): reads from `fd` until the decoder yields one
/// complete frame.  Returns nullopt on a clean end-of-stream or a read
/// error; \throws WireError when the stream ends mid-frame or a length
/// prefix is corrupt.
std::optional<std::string> read_frame(int fd, FrameDecoder& decoder);

}  // namespace hoval::dispatch
