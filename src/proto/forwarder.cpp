#include "proto/forwarder.hpp"

#include "proto/queue_forwarder.hpp"
#include "proto/thread_forwarder.hpp"

namespace iofwd::proto {

std::string to_string(Mechanism m) {
  switch (m) {
    case Mechanism::ciod: return "CIOD";
    case Mechanism::zoid: return "ZOID";
    case Mechanism::zoid_sched: return "ZOID+sched";
    case Mechanism::zoid_sched_async: return "ZOID+sched+async";
  }
  return "?";
}

Forwarder::Forwarder(bgp::Machine& machine, bgp::Pset& pset, RunMetrics& metrics,
                     ForwarderConfig cfg)
    : machine_(machine),
      pset_(pset),
      metrics_(metrics),
      cfg_(std::move(cfg)),
      owned_registry_(cfg_.registry != nullptr ? nullptr
                                               : std::make_unique<obs::MetricRegistry>()),
      reg_(cfg_.registry != nullptr ? cfg_.registry : owned_registry_.get()),
      c_ops_enqueued_(reg_->counter("fwd.ops_enqueued")),
      c_worker_batches_(reg_->counter("fwd.worker_batches")),
      c_worker_tasks_(reg_->counter("fwd.worker_tasks")),
      c_memory_blocked_(reg_->counter("fwd.memory_blocked")),
      c_bml_blocked_(reg_->counter("fwd.bml_blocked")),
      g_max_queue_depth_(reg_->gauge("fwd.max_queue_depth")),
      eng_(machine.engine()),
      mc_(machine.config()) {
  if (cfg_.trace_ops) tracer_ = std::make_unique<sim::ChromeTracer>(eng_);
}

obs::Snapshot merged_metrics(const std::vector<std::unique_ptr<Forwarder>>& fwds) {
  obs::Snapshot total;
  for (const auto& f : fwds) obs::merge_sum(total, f->registry().snapshot());
  return total;
}

sim::Proc<Status> Forwarder::open(int cn_id, int fd) {
  (void)cn_id;
  // Metadata operations are always synchronous (Sec. IV): a plain control
  // round trip plus the syscall on the ION.
  co_await control_exchange(mc_.ion_wake_thread_ns);
  co_await pset_.ion().cpu().consume(static_cast<double>(mc_.ion_syscall_ns));
  co_await tree_ack();
  if (!db_.open_descriptor(fd)) {
    co_return Status(Errc::invalid_argument, "descriptor already open");
  }
  co_return Status::ok();
}

sim::Proc<Status> Forwarder::close(int cn_id, int fd) {
  (void)cn_id;
  co_await control_exchange(mc_.ion_wake_thread_ns);
  co_await pset_.ion().cpu().consume(static_cast<double>(mc_.ion_syscall_ns));
  co_await tree_ack();
  co_return db_.close_descriptor(fd);
}

sim::Proc<Status> Forwarder::fstat(int cn_id, int fd) {
  (void)cn_id;
  if (!db_.is_open(fd)) co_return Status(Errc::bad_descriptor, "fd not open");
  co_await control_exchange(mc_.ion_wake_thread_ns);
  co_await pset_.ion().cpu().consume(static_cast<double>(mc_.ion_syscall_ns));
  co_await tree_ack();
  co_return db_.consume_pending_error(fd);
}

sim::Proc<void> Forwarder::drain() { co_return; }

sim::Proc<void> Forwarder::control_exchange(sim::SimTime wake_cost_ns) {
  // Step 1: function parameters travel CN -> ION.
  co_await pset_.tree().transfer(mc_.control_msg_bytes);
  // The ION dispatches the handler for this CN (thread or proxy process).
  co_await pset_.ion().cpu().consume(static_cast<double>(wake_cost_ns));
  // Step 2 (two-step protocol, Sec. V-A2): the ION signals ready and the CN
  // starts the payload — one more tree round for the go-ahead.
  if (mc_.control_steps > 1) {
    co_await sim::Delay{eng_, mc_.tree_latency_ns};
  }
}

sim::Proc<void> Forwarder::tree_data_in(std::uint64_t bytes) {
  // Three legs progress concurrently: the CN's injection (its own dedicated
  // core, hence a plain delay), the shared tree wire, and the ION-side
  // reception/copy.
  std::vector<sim::Proc<void>> legs;
  legs.push_back(cn_inject(bytes));
  legs.push_back(pset_.tree().transfer(bytes));
  legs.push_back(consume_cpu(static_cast<double>(bytes) * tree_recv_cost_ns_b()));
  co_await sim::when_all(eng_, std::move(legs));
}

double Forwarder::tree_recv_cost_ns_b() const {
  // Reception congestion (see MachineConfig::tree_recv_congestion_per_flow):
  // the more CNs stream concurrently, the dearer each received byte gets.
  const int excess = pset_.tree().active() - mc_.tree_recv_congestion_free;
  double cost = mc_.ion_tree_recv_cost_ns_b;
  if (excess > 0) cost *= 1.0 + mc_.tree_recv_congestion_per_flow * excess;
  return cost;
}

sim::Proc<void> Forwarder::cn_inject(std::uint64_t bytes) {
  const auto ns = static_cast<sim::SimTime>(static_cast<double>(bytes) * mc_.cn_inject_cost_ns_b);
  co_await sim::Delay{eng_, ns};
}

sim::Proc<void> Forwarder::tree_data_out(std::uint64_t bytes) {
  co_await sim::when_all(
      eng_, pset_.tree().transfer(bytes),
      consume_cpu(static_cast<double>(bytes) * mc_.ion_tree_recv_cost_ns_b));
}

sim::Proc<void> Forwarder::tree_ack() { co_await sim::Delay{eng_, mc_.tree_latency_ns}; }

sim::Proc<void> Forwarder::consume_cpu(double cpu_ns) {
  if (cpu_ns > 0) co_await pset_.ion().cpu().consume(cpu_ns);
}

double Forwarder::sink_cpu_cost_ns(const SinkTarget& sink, std::uint64_t bytes) const {
  switch (sink.kind) {
    case SinkTarget::Kind::dev_null:
      return 0.0;  // write(2) to /dev/null copies nothing further
    case SinkTarget::Kind::da_memory:
      return static_cast<double>(bytes) * mc_.ion_tcp_send_cost_ns_b;
    case SinkTarget::Kind::storage:
      // The GPFS client path exercises the same TCP/IP machinery.
      return static_cast<double>(bytes) * mc_.ion_tcp_send_cost_ns_b;
  }
  return 0.0;
}

sim::Proc<void> Forwarder::sink_wire(SinkTarget sink, std::uint64_t bytes) {
  switch (sink.kind) {
    case SinkTarget::Kind::dev_null:
      co_return;
    case SinkTarget::Kind::da_memory: {
      auto& da = machine_.da(sink.da_id);
      // ION NIC, the DA's NIC, and the DA-side protocol processing all
      // progress concurrently with each other.
      std::vector<sim::Proc<void>> legs;
      legs.push_back(pset_.ion().nic().transfer(bytes));
      legs.push_back(da.nic().transfer(bytes));
      legs.push_back(da_cpu(da, static_cast<double>(bytes) * mc_.da_tcp_cost_ns_b));
      co_await sim::when_all(eng_, std::move(legs));
      co_return;
    }
    case SinkTarget::Kind::storage: {
      auto& st = machine_.storage();
      std::vector<sim::Proc<void>> legs;
      legs.push_back(pset_.ion().nic().transfer(bytes));
      legs.push_back(st.serve(st.fsn_for(sink.block), bytes));
      co_await sim::when_all(eng_, std::move(legs));
      co_return;
    }
  }
}

sim::Proc<void> Forwarder::da_cpu(bgp::DaNode& da, double cpu_ns) {
  if (cpu_ns > 0) co_await da.cpu().consume(cpu_ns);
}

Status Forwarder::deliver(int cn_id, std::uint64_t bytes) {
  metrics_.record(bytes, eng_.now());
  if (cfg_.fault_hook) return cfg_.fault_hook(cn_id, bytes);
  return Status::ok();
}

std::unique_ptr<Forwarder> make_forwarder(Mechanism m, bgp::Machine& machine, bgp::Pset& pset,
                                          RunMetrics& metrics, ForwarderConfig cfg) {
  switch (m) {
    case Mechanism::ciod:
      return std::make_unique<ThreadPerClientForwarder>(machine, pset, metrics, std::move(cfg),
                                                        ThreadFlavor::process_per_client);
    case Mechanism::zoid:
      return std::make_unique<ThreadPerClientForwarder>(machine, pset, metrics, std::move(cfg),
                                                        ThreadFlavor::thread_per_client);
    case Mechanism::zoid_sched:
      return std::make_unique<QueueForwarder>(machine, pset, metrics, std::move(cfg),
                                              /*async_staging=*/false);
    case Mechanism::zoid_sched_async:
      return std::make_unique<QueueForwarder>(machine, pset, metrics, std::move(cfg),
                                              /*async_staging=*/true);
  }
  return nullptr;
}

}  // namespace iofwd::proto
