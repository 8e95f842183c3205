// Fuzz target: the IonServer receiver path must be total over arbitrary
// byte streams.
//
// IonServer::feed_bytes hands the fuzz input straight to the receive
// lanes' own on_bytes — frame assembly, header CRC check, frame validation,
// payload staging, op dispatch — inline on this thread, against a
// MemBackend. The connection it drives has no stream and no peer, so every
// reply is fully encoded (payload CRC stamped) and then dropped; no lane
// thread is started. The server must neither crash nor hang nor allocate
// unboundedly: payload_len is CRC-protected and bounded by kMaxPayload at
// decode, and staging allocations come from the (deliberately tiny) BML
// pool, so a hostile length bounces with no_memory instead of sizing a heap
// allocation.
//
// thread_per_client keeps execution on the feeding thread: every op the
// input manages to express completes inline, so the target is deterministic
// and single-threaded end to end.
#include <memory>
#include <span>

#include "fuzz_targets.hpp"
#include "rt/backend.hpp"
#include "rt/server.hpp"

namespace iofwd::fuzz {

int server_bytes_one(const std::uint8_t* data, std::size_t size) {
  using namespace iofwd::rt;
  ServerConfig cfg;
  cfg.exec = ExecModel::thread_per_client;  // inline, single-threaded ops
  cfg.workers = 0;
  cfg.bml_bytes = 1 << 20;       // bounds any payload staging to 1 MiB
  cfg.bml_wait_ms = 1;           // an unservable lease bounces, not blocks
  cfg.flight_recorder_ops = 0;
  IonServer server(std::make_unique<MemBackend>(), cfg);
  server.feed_bytes(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(data), size));
  server.stop();
  return 0;
}

}  // namespace iofwd::fuzz

#ifndef IOFWD_CORPUS_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  return iofwd::fuzz::server_bytes_one(data, size);
}
#endif
