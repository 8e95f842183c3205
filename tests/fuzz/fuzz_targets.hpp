// Shared entry points for the integrity fuzz targets (DESIGN.md §12).
//
// Each target lives in its own .cpp which defines the libFuzzer
// LLVMFuzzerTestOneInput symbol when built standalone (-fsanitize=fuzzer)
// and suppresses it under IOFWD_CORPUS_DRIVER so the deterministic ctest
// driver (corpus_driver.cpp) can link both targets into one binary and
// replay the checked-in corpus without libFuzzer.
//
// Contract: a target never crashes, never aborts, and never allocates based
// on unvalidated wire input — any violation is a finding and trips
// __builtin_trap() so both libFuzzer and the plain driver flag it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace iofwd::fuzz {

// FrameHeader::decode over an arbitrary byte span, plus encode/decode
// identity when the input is accepted.
int frame_decode_one(const std::uint8_t* data, std::size_t size);

// IonServer::feed_bytes: the lanes' on_bytes driven directly (frame
// assembly, header decode, frame validation, payload staging, op dispatch,
// reply encoding) over an arbitrary byte stream against a MemBackend server.
int server_bytes_one(const std::uint8_t* data, std::size_t size);

}  // namespace iofwd::fuzz
