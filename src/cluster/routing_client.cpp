#include "cluster/routing_client.hpp"

#include <cassert>
#include <utility>

namespace iofwd::cluster {

RoutingClient::RoutingClient(std::vector<ShardLink> links, rt::ClientConfig cfg,
                             HealthConfig health)
    : map_(static_cast<int>(links.size())) {
  assert(!links.empty() && "RoutingClient needs at least one shard link");
  cfg.registry = nullptr;  // per-shard private registries (metric attribution)
  clients_.reserve(links.size());
  health_.reserve(links.size());
  for (auto& link : links) {
    clients_.push_back(
        std::make_unique<rt::Client>(std::move(link.stream), cfg, std::move(link.factory)));
    // The breaker's counters live in this shard client's private registry,
    // so per-shard metric snapshots attribute them correctly.
    health_.push_back(std::make_unique<ShardHealth>(health, clients_.back()->registry()));
  }
}

Status RoutingClient::admit(int shard) {
  switch (shard_health(shard).admit()) {
    case ShardHealth::Admit::yes:
      return Status::ok();
    case ShardHealth::Admit::fast_fail:
      return {Errc::not_connected,
              "shard " + std::to_string(shard) + " circuit open (failing fast)"};
    case ShardHealth::Admit::probe:
      break;
  }
  // Half-open: this caller was elected to probe. ping() runs through the
  // inner client's reconnect machinery, so success means the connection was
  // re-dialed and every tracked open was replayed — the shard is readmitted
  // in full, and the op that triggered the probe proceeds normally.
  Status st = shard_client(shard).ping();
  note(shard, st);
  if (!st.is_ok()) {
    return {Errc::not_connected,
            "shard " + std::to_string(shard) + " probe failed: " + st.message()};
  }
  return Status::ok();
}

void RoutingClient::note(int shard, const Status& st) {
  if (st.is_ok() || !ShardHealth::connection_shaped(st.code())) {
    shard_health(shard).on_success();
  } else {
    shard_health(shard).on_failure();
  }
}

Status RoutingClient::open(int fd, const std::string& path) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Status st = shard_client(shard).open(fd, path);
  note(shard, st);
  return st;
}

Status RoutingClient::write(int fd, std::uint64_t offset, std::span<const std::byte> data) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Status st = shard_client(shard).write(fd, offset, data);
  last_write_shard_.store(shard, std::memory_order_relaxed);
  note(shard, st);
  return st;
}

Result<std::vector<std::byte>> RoutingClient::read(int fd, std::uint64_t offset,
                                                   std::uint64_t len) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Result<std::vector<std::byte>> r = shard_client(shard).read(fd, offset, len);
  note(shard, r.is_ok() ? Status::ok() : r.status());
  return r;
}

Status RoutingClient::fsync(int fd) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Status st = shard_client(shard).fsync(fd);
  note(shard, st);
  return st;
}

Result<std::uint64_t> RoutingClient::fstat_size(int fd) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Result<std::uint64_t> r = shard_client(shard).fstat_size(fd);
  note(shard, r.is_ok() ? Status::ok() : r.status());
  return r;
}

Status RoutingClient::close(int fd) {
  const int shard = shard_of(fd);
  if (Status gate = admit(shard); !gate.is_ok()) return gate;
  Status st = shard_client(shard).close(fd);
  note(shard, st);
  return st;
}

Status RoutingClient::shutdown() {
  Status first = Status::ok();
  for (auto& c : clients_) {
    if (Status st = c->shutdown(); !st.is_ok() && first.is_ok()) first = st;
  }
  return first;
}

bool RoutingClient::last_write_was_staged() const {
  const int shard = last_write_shard_.load(std::memory_order_relaxed);
  return shard >= 0 && shard_client(shard).last_write_was_staged();
}

obs::Snapshot RoutingClient::metrics() const {
  obs::Snapshot sum;
  for (const auto& c : clients_) obs::merge_sum(sum, c->metrics());
  return sum;
}

}  // namespace iofwd::cluster
