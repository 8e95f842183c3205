// RoutingClient: one ForwardingClient surface over N ION shards.
//
// Wraps one rt::Client per shard and routes every forwarded call by the
// ShardMap (descriptor id -> shard), so an application programs against the
// same open/write/read/fsync/close surface whether one ION or a fleet
// stands behind it. Everything resilience-related is reused per shard, not
// reinvented: each inner Client keeps its own redial factory, reconnect
// budget, watchdog, and replay log, so a dead shard connection
// reconnects-and-replays exactly that shard's in-flight ops while the other
// shards' traffic never notices (DESIGN.md §10, §14).
//
// Failover routing (DESIGN.md §16): every forwarded op passes through a
// per-shard ShardHealth breaker before touching the wire. A shard whose
// connection-shaped failures exceed the threshold is marked down; ops routed
// at it fail fast with not_connected instead of each burning a full
// reconnect-with-backoff budget. After probe_after_ms one caller is elected
// to ping the shard first — rt::Client::ping() re-dials and replays opens,
// so a successful probe readmits the shard in one step. Siblings' traffic is
// untouched throughout: health is tracked per shard.
//
// Metric attribution: every inner Client runs against its own private
// registry, so shard_client(k).metrics() shows only shard k's
// reconnects/replays/CRC detections — and its breaker's
// client.breaker.{opens,fast_fails,probes,closes} live there too; metrics()
// sums the fleet.
//
// Thread safety: same contract as rt::Client — calls are serialized per
// shard by the inner clients; calls routed to different shards proceed
// concurrently. For full concurrency, open one RoutingClient per
// application thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/health.hpp"
#include "cluster/shard_map.hpp"
#include "rt/client.hpp"
#include "rt/transport.hpp"

namespace iofwd::cluster {

class RoutingClient final : public rt::ForwardingClient {
 public:
  // One connected stream (and optional redial factory) per shard, in shard
  // order; the ShardMap covers links.size() shards at epoch 0.
  struct ShardLink {
    std::unique_ptr<rt::ByteStream> stream;
    rt::StreamFactory factory;  // null = this shard never reconnects
  };

  // `cfg` applies to every inner client, except `registry`, which is forced
  // to null so each shard keeps its own (see header comment). `health`
  // parameterizes the per-shard breakers; the breaker is always on — its
  // defaults only bite after an inner client has already exhausted a full
  // reconnect budget, so a healthy fleet never sees it.
  RoutingClient(std::vector<ShardLink> links, rt::ClientConfig cfg = {},
                HealthConfig health = {});

  Status open(int fd, const std::string& path) override;
  Status write(int fd, std::uint64_t offset, std::span<const std::byte> data) override;
  Result<std::vector<std::byte>> read(int fd, std::uint64_t offset,
                                      std::uint64_t len) override;
  Status fsync(int fd) override;
  Result<std::uint64_t> fstat_size(int fd) override;
  Status close(int fd) override;

  // Polite disconnect on every shard; returns the first failure (but always
  // visits every shard). Not breaker-gated: shutdown is a teardown courtesy,
  // and its failure on a dead shard must not poison the health view.
  Status shutdown() override;

  [[nodiscard]] bool last_write_was_staged() const override;

  // Fleet-wide sums of the per-shard counters (obs::merge_sum), breaker
  // counters included.
  [[nodiscard]] obs::Snapshot metrics() const override;

  [[nodiscard]] int shards() const { return static_cast<int>(clients_.size()); }
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  [[nodiscard]] int shard_of(int fd) const {
    return map_.shard_of(static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)));
  }
  [[nodiscard]] rt::Client& shard_client(int i) {
    return *clients_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const rt::Client& shard_client(int i) const {
    return *clients_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] ShardHealth& shard_health(int i) {
    return *health_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const ShardHealth& shard_health(int i) const {
    return *health_.at(static_cast<std::size_t>(i));
  }

 private:
  [[nodiscard]] rt::Client& route(int fd) { return shard_client(shard_of(fd)); }
  // Breaker gate for shard k: ok() to proceed (running the half-open ping
  // inline when elected), or the fast-fail status.
  Status admit(int shard);
  // Feed an op's outcome back into shard k's breaker. Only connection-shaped
  // errors count as failures; everything else (including honest backend
  // errors) proves the shard alive.
  void note(int shard, const Status& st);

  ShardMap map_;
  std::vector<std::unique_ptr<rt::Client>> clients_;
  std::vector<std::unique_ptr<ShardHealth>> health_;
  std::atomic<int> last_write_shard_{-1};
};

}  // namespace iofwd::cluster
