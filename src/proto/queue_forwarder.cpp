#include "proto/queue_forwarder.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace iofwd::proto {

QueueForwarder::QueueForwarder(bgp::Machine& machine, bgp::Pset& pset, RunMetrics& metrics,
                               ForwarderConfig cfg, bool async_staging)
    : Forwarder(machine, pset, metrics, std::move(cfg)),
      async_staging_(async_staging),
      bml_(machine.engine(), cfg_.bml_bytes, cfg_.bml_min_class),
      queue_(machine.engine(), cfg_.policy) {
  assert(cfg_.workers >= 1);
  assert(cfg_.multiplex_depth >= 1);
  // "These worker threads are launched at job startup" (Sec. IV).
  for (int w = 0; w < cfg_.workers; ++w) {
    eng_.spawn(worker_loop(w));
  }
}

QueueForwarder::~QueueForwarder() { shutdown(); }

void QueueForwarder::shutdown() {
  if (!queue_.closed()) queue_.close();
}

void QueueForwarder::enqueue(QTask t) {
  ++outstanding_;
  c_ops_enqueued_.inc();
  queue_.push(std::move(t));
  g_max_queue_depth_.update_max(static_cast<std::int64_t>(queue_.size()));
  if (tracer_) tracer_->counter("queue_depth", static_cast<double>(queue_.size()));
}

int QueueForwarder::batch_target() const {
  if (!cfg_.balanced_batches) return cfg_.multiplex_depth;
  // Load-balancing heuristic: split the backlog evenly over the pool so one
  // worker does not vacuum the queue while the others idle.
  const auto backlog = static_cast<int>(queue_.size()) + 1;
  const int share = (backlog + cfg_.workers - 1) / cfg_.workers;
  return std::clamp(share, 1, cfg_.multiplex_depth);
}

sim::Proc<Status> QueueForwarder::write(int cn_id, int fd, std::uint64_t bytes, SinkTarget sink) {
  if (fd >= 0 && !db_.is_open(fd)) co_return Status(Errc::bad_descriptor, "fd not open");
  auto span = trace_span("write", cn_id);

  // Reception is unchanged ZOID: a per-CN thread handles the control
  // exchange and pulls the payload off the tree.
  co_await control_exchange(mc_.ion_wake_thread_ns);

  if (async_staging_ && fd >= 0) {
    // Deferred-error semantics: surface the oldest unreported failure of an
    // earlier async op on this descriptor *before* accepting new work.
    if (Status pending = db_.consume_pending_error(fd); !pending.is_ok()) {
      co_return pending;
    }
  }

  if (async_staging_) {
    // Stage chunk-by-chunk into BML buffers (the BML hands out power-of-two
    // buffers, so a large request is staged through a sequence of them);
    // each staged chunk is enqueued immediately, letting workers deliver the
    // head of the payload while the tail is still crossing the tree. The
    // application is unblocked as soon as the *copy* finishes — "blocks the
    // computation only for the duration of copying data from CN to ION".
    const std::uint64_t chunk = std::max<std::uint64_t>(mc_.forward_chunk_bytes, 1);
    for (std::uint64_t off = 0; off < bytes; off += chunk) {
      const std::uint64_t n = std::min(chunk, bytes - off);
      QTask t;
      t.cn_id = cn_id;
      t.fd = fd;
      t.type = OpType::write;
      t.bytes = n;
      t.sink = sink;
      // Blocks if the pool is exhausted until queued operations complete.
      t.bml_class = co_await bml_.acquire(n);
      c_bml_blocked_.add(bml_.blocked_acquires() - bml_blocked_counted_);
      bml_blocked_counted_ = bml_.blocked_acquires();
      co_await tree_data_in(n);
      if (fd >= 0) {
        auto seq = db_.begin_op(fd);
        assert(seq.has_value());
        t.seq = *seq;
      }
      co_await consume_cpu(static_cast<double>(mc_.ion_enqueue_ns));
      enqueue(std::move(t));
    }
    co_await tree_ack();  // the application is unblocked here
    co_return Status::ok();
  }

  // Synchronous staging (Fig. 7): the ZOID thread receives the payload into
  // ION buffers — streamed chunk-wise like the baselines — and enqueues each
  // buffered chunk as an I/O task; the CN stays blocked until workers have
  // delivered the whole operation and the status came back.
  auto& mem = pset_.ion().memory();
  if (mem.available() < static_cast<std::int64_t>(bytes) || mem.waiting() > 0) {
    c_memory_blocked_.inc();
  }
  co_await mem.acquire(static_cast<std::int64_t>(bytes));

  const std::uint64_t chunk = std::max<std::uint64_t>(mc_.forward_chunk_bytes, 1);
  const auto nchunks = static_cast<std::size_t>((bytes + chunk - 1) / chunk);
  std::vector<std::unique_ptr<sim::SimEvent>> done;
  std::vector<Status> st(nchunks, Status::ok());
  done.reserve(nchunks);
  std::size_t i = 0;
  for (std::uint64_t off = 0; off < bytes; off += chunk, ++i) {
    const std::uint64_t n = std::min(chunk, bytes - off);
    co_await tree_data_in(n);
    done.push_back(std::make_unique<sim::SimEvent>(eng_));
    QTask t;
    t.cn_id = cn_id;
    t.fd = fd;
    t.type = OpType::write;
    t.bytes = n;
    t.sink = sink;
    t.completion = done.back().get();
    t.out_status = &st[i];
    co_await consume_cpu(static_cast<double>(mc_.ion_enqueue_ns));
    enqueue(std::move(t));
  }
  for (auto& ev : done) co_await ev->wait();
  mem.release(static_cast<std::int64_t>(bytes));
  co_await tree_ack();
  for (const auto& s : st) {
    if (!s.is_ok()) co_return s;
  }
  co_return Status::ok();
}

sim::Proc<Status> QueueForwarder::read(int cn_id, int fd, std::uint64_t bytes, SinkTarget source) {
  if (fd >= 0 && !db_.is_open(fd)) co_return Status(Errc::bad_descriptor, "fd not open");
  auto span = trace_span("read", cn_id);

  co_await control_exchange(mc_.ion_wake_thread_ns);
  if (async_staging_ && fd >= 0) {
    if (Status pending = db_.consume_pending_error(fd); !pending.is_ok()) {
      co_return pending;
    }
  }

  // Reads always complete synchronously from the application's perspective
  // (the data must be present before the app can use it), but they still
  // benefit from the scheduled execution: the read is split into chunk
  // tasks, and each fetched chunk streams down the tree while workers fetch
  // the rest.
  auto& mem = pset_.ion().memory();
  if (mem.available() < static_cast<std::int64_t>(bytes) || mem.waiting() > 0) {
    c_memory_blocked_.inc();
  }
  co_await mem.acquire(static_cast<std::int64_t>(bytes));

  const std::uint64_t chunk = std::max<std::uint64_t>(mc_.forward_chunk_bytes, 1);
  const auto nchunks = static_cast<std::size_t>((bytes + chunk - 1) / chunk);
  std::vector<std::unique_ptr<sim::SimEvent>> done;
  std::vector<Status> st(nchunks, Status::ok());
  done.reserve(nchunks);
  std::size_t i = 0;
  for (std::uint64_t off = 0; off < bytes; off += chunk, ++i) {
    const std::uint64_t n = std::min(chunk, bytes - off);
    done.push_back(std::make_unique<sim::SimEvent>(eng_));
    QTask t;
    t.cn_id = cn_id;
    t.fd = fd;
    t.type = OpType::read;
    t.bytes = n;
    t.sink = source;
    t.completion = done[i].get();
    t.out_status = &st[i];
    co_await consume_cpu(static_cast<double>(mc_.ion_enqueue_ns));
    enqueue(std::move(t));
  }
  // Relay each chunk down the tree as soon as its fetch completed.
  i = 0;
  for (std::uint64_t off = 0; off < bytes; off += chunk, ++i) {
    const std::uint64_t n = std::min(chunk, bytes - off);
    co_await done[i]->wait();
    co_await tree_data_out(n);
  }
  mem.release(static_cast<std::int64_t>(bytes));
  for (const auto& s : st) {
    if (!s.is_ok()) co_return s;
  }
  co_return Status::ok();
}

sim::Proc<Status> QueueForwarder::fstat(int cn_id, int fd) {
  // Attribute queries drain in-flight async operations first so the answer
  // reflects everything the application already issued.
  while (db_.in_flight(fd) > 0) {
    auto tick = std::make_shared<sim::SimEvent>(eng_);
    completion_ticks_.push_back(tick);
    co_await tick->wait();
  }
  co_return co_await Forwarder::fstat(cn_id, fd);
}

sim::Proc<Status> QueueForwarder::close(int cn_id, int fd) {
  // Close drains the descriptor first: all in-flight async operations must
  // complete so the final status (including deferred errors) is accurate.
  while (db_.in_flight(fd) > 0) {
    auto tick = std::make_shared<sim::SimEvent>(eng_);
    completion_ticks_.push_back(tick);
    co_await tick->wait();
  }
  co_return co_await Forwarder::close(cn_id, fd);
}

sim::Proc<void> QueueForwarder::worker_loop(int worker_id) {
  while (true) {
    auto first = co_await queue_.pop();
    if (!first) break;  // shutdown

    std::vector<QTask> batch;
    batch.push_back(std::move(*first));
    const int target = batch_target();
    while (static_cast<int>(batch.size()) < target) {
      auto more = queue_.try_pop();
      if (!more) break;
      batch.push_back(std::move(*more));
    }
    c_worker_batches_.inc();
    c_worker_tasks_.add(batch.size());
    auto batch_span = trace_span("batch", 1000 + worker_id);

    // One poll()-based event-loop pass multiplexes the whole batch.
    co_await consume_cpu(static_cast<double>(mc_.ion_poll_pass_ns));

    for (auto& t : batch) {
      // The worker's CPU work (syscall issue + protocol processing) is
      // serialized on this worker thread; the wire time is not — the event
      // loop moves on while the NIC drains.
      co_await consume_cpu(static_cast<double>(mc_.ion_syscall_ns));
      if (t.type == OpType::write) {
        co_await consume_cpu(sink_cpu_cost_ns(t.sink, t.bytes));
      }
      eng_.spawn(finish_task(std::move(t)));
    }
  }
}

sim::Proc<void> QueueForwarder::finish_task(QTask t) {
  co_await sink_wire(t.sink, t.bytes);
  if (t.type == OpType::read) {
    // Protocol processing for the fetched data (charged here — reads are
    // completion-driven rather than worker-serialized; see DESIGN.md).
    co_await consume_cpu(sink_cpu_cost_ns(t.sink, t.bytes));
  }
  Status st = deliver(t.cn_id, t.bytes);

  if (t.bml_class > 0) bml_.release(t.bml_class);
  if (async_staging_ && t.fd >= 0 && t.type == OpType::write) {
    db_.complete_op(t.fd, t.seq, st);
  }
  if (t.out_status != nullptr) *t.out_status = st;
  if (t.completion != nullptr) t.completion->set();

  assert(outstanding_ > 0);
  --outstanding_;
  notify_op_completed();
}

void QueueForwarder::notify_op_completed() {
  auto ticks = std::move(completion_ticks_);
  completion_ticks_.clear();
  for (auto& ev : ticks) ev->set();
}

sim::Proc<void> QueueForwarder::drain() {
  while (outstanding_ > 0) {
    auto tick = std::make_shared<sim::SimEvent>(eng_);
    completion_ticks_.push_back(tick);
    co_await tick->wait();
  }
}

}  // namespace iofwd::proto
