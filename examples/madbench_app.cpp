// An out-of-core matrix application (MADbench2's I/O pattern, Sec. V-B)
// running on the REAL forwarding runtime: N application threads act as
// compute processes, forwarding successive large contiguous writes and
// reads of component matrices through an ION server to a file backend.
//
//   $ ./madbench_app [procs=8] [matrices=64] [mib_per_op=2]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "rt/client.hpp"
#include "rt/server.hpp"

using namespace iofwd;

namespace {

int arg(int argc, char** argv, const char* key, int dflt) {
  const std::size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, klen) == 0 && argv[i][klen] == '=') {
      return std::atoi(argv[i] + klen + 1);
    }
  }
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = arg(argc, argv, "procs", 8);
  const int matrices = arg(argc, argv, "matrices", 64);
  const auto op_bytes = static_cast<std::uint64_t>(arg(argc, argv, "mib_per_op", 2)) << 20;

  const auto root = std::filesystem::temp_directory_path() /
                    ("iofwd_madbench_" + std::to_string(::getpid()));

  rt::ServerConfig cfg;
  cfg.exec = rt::ExecModel::work_queue_async;
  cfg.workers = 4;
  cfg.bml_bytes = 256u << 20;
  rt::IonServer server(std::make_unique<rt::FileBackend>(root.string()), cfg);

  std::printf("MADbench-style run: %d procs x %d matrices x %.0f MiB/op -> %s\n", procs,
              matrices, static_cast<double>(op_bytes) / (1 << 20), root.c_str());

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::jthread> threads;
  std::atomic<int> failures{0};
  for (int rank = 0; rank < procs; ++rank) {
    threads.emplace_back([&, rank] {
      auto [server_end, client_end] = rt::InProcTransport::make_pair();
      server.serve(std::move(server_end));
      rt::Client client(std::move(client_end));

      const int fd = 100 + rank;
      if (!client.open(fd, "component_matrices_" + std::to_string(rank)).is_ok()) {
        ++failures;
        return;
      }
      std::vector<std::byte> block(op_bytes);
      for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = static_cast<std::byte>(i ^ static_cast<std::size_t>(rank));
      }

      // Phase S: write the first quarter of the matrices.
      // Phase W: alternate read/write over the middle half.
      // Phase C: read the last quarter back.
      const int s_end = matrices / 4;
      const int w_end = s_end + matrices / 2;
      for (int m = 0; m < matrices; ++m) {
        const auto off = static_cast<std::uint64_t>(m % std::max(1, w_end)) * op_bytes;
        const bool is_read = (m >= w_end) || (m >= s_end && (m - s_end) % 2 == 1);
        if (is_read) {
          auto r = client.read(fd, off, op_bytes);
          if (!r.is_ok()) ++failures;
        } else {
          if (!client.write(fd, off, block).is_ok()) ++failures;
        }
      }
      if (!client.fsync(fd).is_ok()) ++failures;
      if (!client.close(fd).is_ok()) ++failures;
    });
  }
  threads.clear();  // join
  const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const obs::Snapshot s = server.metrics();
  const double total_mib =
      static_cast<double>(s.counter("server.bytes_in") + s.counter("server.bytes_out")) /
      (1 << 20);
  std::printf("moved %.0f MiB in %.2f s -> %.1f MiB/s aggregate (%llu ops, %lld batches)\n",
              total_mib, dt, total_mib / dt,
              static_cast<unsigned long long>(s.counter("server.ops")),
              static_cast<long long>(s.gauge("server.queue_batches")));
  if (failures > 0) {
    std::printf("FAILURES: %d\n", failures.load());
    return 1;
  }
  server.stop();
  std::filesystem::remove_all(root);
  return 0;
}
