#include "runtime/serialization.hpp"

#include <gtest/gtest.h>

#include "runtime/crc32.hpp"

namespace hoval {
namespace {

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(as_byte_span(check.data(), check.size())), 0xCBF43926u);

  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const auto bytes = as_byte_span(data.data(), data.size());
  Crc32 incremental;
  incremental.update(bytes.subspan(0, 10));
  incremental.update(bytes.subspan(10));
  EXPECT_EQ(incremental.value(), crc32(bytes));
}

/// Bitwise reference: one shift-and-xor per bit, no tables at all.
std::uint32_t reference_crc32(const std::byte* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= static_cast<std::uint32_t>(data[i]);
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::byte> buffer(257 + 8);
  for (std::size_t i = 0; i < buffer.size(); ++i)
    buffer[i] = std::byte(static_cast<unsigned char>(i * 131 + 17));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const std::byte* start = buffer.data() + offset;
      EXPECT_EQ(crc32(ByteSpan(start, length)), reference_crc32(start, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, IncrementalSplitAtAnyPointMatchesOneShot) {
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::byte(static_cast<unsigned char>(i * 29 + 3));
  const ByteSpan bytes(data);
  const std::uint32_t whole = crc32(bytes);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 incremental;
    incremental.update(bytes.subspan(0, split));
    incremental.update(bytes.subspan(split));
    EXPECT_EQ(incremental.value(), whole) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(32);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i * 7);
  const auto original = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto copy = data;
    copy[i] ^= std::byte{0x01};
    EXPECT_NE(crc32(copy), original) << "flip at byte " << i;
  }
}

TEST(Serialization, RoundTripAllShapes) {
  const std::vector<WirePacket> packets{
      {1, 0, make_estimate(42)},
      {7, 3, make_estimate(-1)},
      {2, 5, make_vote(9)},
      {100, 2, make_question_vote()},
      {1, 0, Msg{MsgKind::kEstimate, std::nullopt}},
  };
  for (bool with_crc : {false, true}) {
    for (const auto& packet : packets) {
      const auto bytes = encode_packet(packet, with_crc);
      EXPECT_EQ(bytes.size(), kFrameBodySize + (with_crc ? kFrameCrcSize : 0));
      const auto decoded = decode_packet(bytes, with_crc);
      ASSERT_EQ(decoded.status, DecodeStatus::kOk);
      EXPECT_EQ(*decoded.packet, packet);
    }
  }
}

TEST(Serialization, CrcMismatchDetected) {
  const WirePacket packet{3, 1, make_estimate(5)};
  auto bytes = encode_packet(packet, true);
  bytes[2] ^= std::byte{0x40};  // damage the payload
  const auto decoded = decode_packet(bytes, true);
  EXPECT_EQ(decoded.status, DecodeStatus::kCrcMismatch);
  EXPECT_FALSE(decoded.packet.has_value());
}

TEST(Serialization, WithoutCrcCorruptionGoesUndetected) {
  // The Sec. 5.2 story: without the checksum a payload flip *is* a value
  // fault — the frame decodes fine but carries the wrong value.
  const WirePacket packet{3, 1, make_estimate(5)};
  auto bytes = encode_packet(packet, false);
  bytes[2] ^= std::byte{0x40};
  const auto decoded = decode_packet(bytes, false);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_NE(decoded.packet->msg, packet.msg);
  EXPECT_EQ(decoded.packet->round, packet.round);
}

TEST(Serialization, WrongSizeIsMalformed) {
  const auto bytes = encode_packet({1, 0, make_estimate(1)}, false);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_EQ(decode_packet(truncated, false).status, DecodeStatus::kMalformed);
  auto extended = bytes;
  extended.push_back(std::byte{0});
  EXPECT_EQ(decode_packet(extended, false).status, DecodeStatus::kMalformed);
  EXPECT_EQ(decode_packet({}, false).status, DecodeStatus::kMalformed);
}

TEST(Serialization, GarbledHeaderFieldsAreMalformed) {
  auto bytes = encode_packet({1, 0, make_estimate(1)}, false);
  bytes[0] = std::byte{7};  // kind out of range
  EXPECT_EQ(decode_packet(bytes, false).status, DecodeStatus::kMalformed);

  bytes = encode_packet({1, 0, make_estimate(1)}, false);
  bytes[1] = std::byte{2};  // has_payload out of range
  EXPECT_EQ(decode_packet(bytes, false).status, DecodeStatus::kMalformed);
}

TEST(Serialization, NegativeRoundRejected) {
  auto bytes = encode_packet({1, 0, make_estimate(1)}, false);
  // Round field at offset 10..13; make it zero.
  for (std::size_t i = 10; i < 14; ++i) bytes[i] = std::byte{0};
  EXPECT_EQ(decode_packet(bytes, false).status, DecodeStatus::kMalformed);
}

TEST(Serialization, RoundTagFlipMigratesRounds) {
  // A bit flip in the round tag yields a *valid* frame for another round —
  // the communication-closure logic upstream will discard or buffer it.
  const WirePacket packet{2, 1, make_estimate(5)};
  auto bytes = encode_packet(packet, false);
  bytes[10] ^= std::byte{0x01};  // round 2 -> 3
  const auto decoded = decode_packet(bytes, false);
  ASSERT_EQ(decoded.status, DecodeStatus::kOk);
  EXPECT_EQ(decoded.packet->round, 3);
}

}  // namespace
}  // namespace hoval
