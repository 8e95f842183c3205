#include "rt/frame_assembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "rt/wire.hpp"

namespace iofwd::rt {
namespace {

// Encode a request frame (header + payload) into a flat byte vector, the way
// a client would put it on the wire.
std::vector<std::byte> frame_bytes(OpCode op, std::span<const std::byte> payload,
                                   std::uint64_t seq = 1) {
  FrameHeader h;
  h.type = MsgType::request;
  h.op = op;
  h.seq = seq;
  h.payload_len = payload.size();
  h.version = 1;
  if (!payload.empty()) h.stamp_payload_crc(payload);
  std::vector<std::byte> out(FrameHeader::kWireSize + payload.size());
  h.encode(std::span<std::byte, FrameHeader::kWireSize>(out.data(), FrameHeader::kWireSize));
  if (!payload.empty()) {
    std::memcpy(out.data() + FrameHeader::kWireSize, payload.data(), payload.size());
  }
  return out;
}

// Test double for the server's receive path: stages every payload on the
// heap and records each decoded header and each completed frame.
struct Collector {
  FrameAssembler fsm;
  std::vector<std::pair<FrameHeader, std::vector<std::byte>>> frames;
  std::vector<std::byte> staging;
  int headers = 0;

  Status feed(std::span<const std::byte> bytes) {
    return fsm.feed(
        bytes,
        [&](std::span<const std::byte, FrameHeader::kWireSize> hdr)
            -> Result<FrameAssembler::Sink> {
          auto h = FrameHeader::decode(hdr);
          if (!h.is_ok()) return h.status();
          pending = h.value();
          ++headers;
          staging.assign(pending.payload_len, std::byte{0});
          return FrameAssembler::Sink{pending.payload_len, staging.data()};
        },
        [&]() -> Status {
          frames.emplace_back(pending, staging);
          return Status::ok();
        });
  }

  FrameHeader pending;
};

TEST(FrameAssembler, WholeFrameInOneFeed) {
  std::vector<std::byte> payload(100, std::byte{0xab});
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.op, OpCode::write);
  EXPECT_EQ(c.frames[0].second, payload);
}

TEST(FrameAssembler, OneBytePerFeedReassemblesIdentically) {
  std::vector<std::byte> payload(257);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i);
  const auto wire = frame_bytes(OpCode::write, payload, 9);

  Collector c;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(c.feed({wire.data() + i, 1}).is_ok());
    // The frame must complete exactly at the last byte, not before.
    EXPECT_EQ(c.frames.size(), i + 1 == wire.size() ? 1u : 0u) << "at byte " << i;
  }
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.seq, 9u);
  EXPECT_EQ(c.frames[0].second, payload);
}

TEST(FrameAssembler, SplitAtEveryBoundary) {
  // Cut the wire bytes at every possible single split point; the assembler
  // must produce the identical frame regardless of where the cut lands
  // (mid-header, exactly at the header edge, mid-payload).
  std::vector<std::byte> payload(64, std::byte{0x5c});
  const auto wire = frame_bytes(OpCode::write, payload);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    Collector c;
    ASSERT_TRUE(c.feed({wire.data(), cut}).is_ok());
    ASSERT_TRUE(c.feed({wire.data() + cut, wire.size() - cut}).is_ok());
    ASSERT_EQ(c.frames.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(c.frames[0].second, payload) << "cut at " << cut;
  }
}

TEST(FrameAssembler, MultipleFramesInOneChunk) {
  std::vector<std::byte> wire;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    std::vector<std::byte> payload(16 * s, static_cast<std::byte>(s));
    auto f = frame_bytes(OpCode::write, payload, s);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 3u);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(c.frames[s - 1].first.seq, s);
    EXPECT_EQ(c.frames[s - 1].second.size(), 16 * s);
  }
}

TEST(FrameAssembler, ZeroPayloadFrameCompletesWithoutMoreBytes) {
  const auto wire = frame_bytes(OpCode::fsync, {});
  Collector c;
  ASSERT_TRUE(c.feed(wire).is_ok());
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].first.payload_len, 0u);
  // The assembler is back at a fresh header: the next frame's first byte is
  // read as header, not as payload of the empty frame.
  const auto next = frame_bytes(OpCode::fsync, {}, 2);
  ASSERT_TRUE(c.feed(next).is_ok());
  ASSERT_EQ(c.frames.size(), 2u);
  EXPECT_EQ(c.frames[1].first.seq, 2u);
}

TEST(FrameAssembler, SplitFeedsTrackHeaderThenPayload) {
  std::vector<std::byte> payload(10);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::byte>(i + 1);
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  // A partial header decodes nothing.
  ASSERT_TRUE(c.feed({wire.data(), 20}).is_ok());
  EXPECT_EQ(c.headers, 0);
  // The header's last byte decodes it and opens the payload sink.
  ASSERT_TRUE(c.feed({wire.data() + 20, FrameHeader::kWireSize - 20}).is_ok());
  EXPECT_EQ(c.headers, 1);
  EXPECT_TRUE(c.frames.empty());
  // Payload bytes land in the sink in order; the frame stays open.
  ASSERT_TRUE(c.feed({wire.data() + FrameHeader::kWireSize, 4}).is_ok());
  EXPECT_TRUE(c.frames.empty());
  EXPECT_TRUE(std::equal(payload.begin(), payload.begin() + 4, c.staging.begin()));
  EXPECT_EQ(c.staging[4], std::byte{0}) << "no byte past the fed ones was written";
  // The rest completes it without a second header decode.
  ASSERT_TRUE(c.feed({wire.data() + FrameHeader::kWireSize + 4, payload.size() - 4}).is_ok());
  EXPECT_EQ(c.headers, 1);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].second, payload);
}

TEST(FrameAssembler, NullSinkSwallowsPayload) {
  // dest == nullptr: consume the payload, store nothing (oversize bounce).
  std::vector<std::byte> payload(128, std::byte{0xee});
  const auto wire = frame_bytes(OpCode::write, payload);

  // A second frame right behind it: the swallow must stop exactly at the
  // first frame's end, or this header would fail to decode.
  const auto next = frame_bytes(OpCode::fsync, {}, 2);
  std::vector<std::byte> stream = wire;
  stream.insert(stream.end(), next.begin(), next.end());

  FrameAssembler fsm;
  std::vector<std::uint64_t> seqs;
  std::uint64_t seq = 0;
  auto st = fsm.feed(
      stream,
      [&](std::span<const std::byte, FrameHeader::kWireSize> hdr)
          -> Result<FrameAssembler::Sink> {
        auto h = FrameHeader::decode(hdr);
        if (!h.is_ok()) return h.status();
        seq = h.value().seq;
        return FrameAssembler::Sink{h.value().payload_len, nullptr};
      },
      [&]() -> Status {
        seqs.push_back(seq);
        return Status::ok();
      });
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FrameAssembler, HeaderErrorStopsFeedAndDropsRestOfChunk) {
  std::vector<std::byte> payload(8, std::byte{2});
  auto wire = frame_bytes(OpCode::write, payload);
  wire[5] ^= std::byte{0x01};  // flip a header bit -> header CRC mismatch

  Collector c;
  const Status st = c.feed(wire);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::checksum_error);
  EXPECT_TRUE(c.frames.empty());
}

TEST(FrameAssembler, OnFrameErrorPropagates) {
  const auto wire = frame_bytes(OpCode::fsync, {});
  FrameAssembler fsm;
  auto st = fsm.feed(
      wire,
      [&](std::span<const std::byte, FrameHeader::kWireSize>)
          -> Result<FrameAssembler::Sink> { return FrameAssembler::Sink{0, nullptr}; },
      [&]() -> Status { return Status(Errc::shutdown, "client requested shutdown"); });
  EXPECT_EQ(st.code(), Errc::shutdown);
}

TEST(FrameAssembler, ResetDropsPartialFrame) {
  std::vector<std::byte> payload(32, std::byte{3});
  const auto wire = frame_bytes(OpCode::write, payload);

  Collector c;
  ASSERT_TRUE(c.feed({wire.data(), FrameHeader::kWireSize + 5}).is_ok());
  EXPECT_EQ(c.headers, 1);
  EXPECT_TRUE(c.frames.empty()) << "the payload is still partial";
  c.fsm.reset();
  // A whole fresh frame reassembles cleanly after the reset: its first bytes
  // decode as a new header instead of finishing the dropped payload.
  ASSERT_TRUE(c.feed(wire).is_ok());
  EXPECT_EQ(c.headers, 2);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].second, payload);
}

}  // namespace
}  // namespace iofwd::rt
