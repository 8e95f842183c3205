#include "proto/descriptor_db.hpp"

#include <cassert>

namespace iofwd::proto {

bool DescriptorDb::open_descriptor(int fd) {
  return table_.try_emplace(fd).second;
}

std::optional<std::uint64_t> DescriptorDb::begin_op(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return std::nullopt;
  auto& e = it->second;
  const std::uint64_t seq = e.next_seq();
  e.done.push_back(false);
  return seq;
}

bool DescriptorDb::complete_op(int fd, std::uint64_t seq, Status status) {
  auto it = table_.find(fd);
  if (it == table_.end()) return false;
  auto& e = it->second;
  if (seq < e.low || seq >= e.next_seq()) return false;  // already retired, or never issued
  auto flag = e.done.begin() + static_cast<std::ptrdiff_t>(seq - e.low);
  if (*flag) return false;  // duplicate completion
  *flag = true;
  ++e.completed;
  if (!status.is_ok()) e.pending_errors.push_back(std::move(status));
  while (!e.done.empty() && e.done.front()) {
    e.done.pop_front();
    ++e.low;
  }
  return true;
}

Status DescriptorDb::consume_pending_error(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return Status(Errc::bad_descriptor, "unknown descriptor");
  auto& errs = it->second.pending_errors;
  if (errs.empty()) return Status::ok();
  Status first = std::move(errs.front());
  errs.pop_front();
  return first;
}

bool DescriptorDb::has_pending_error(int fd) const {
  auto it = table_.find(fd);
  return it != table_.end() && !it->second.pending_errors.empty();
}

Status DescriptorDb::close_descriptor(int fd) {
  auto it = table_.find(fd);
  if (it == table_.end()) return Status(Errc::bad_descriptor, "unknown descriptor");
  assert(in_flight(fd) == 0 && "close with operations still in flight; drain first");
  Status result = it->second.pending_errors.empty() ? Status::ok()
                                                    : std::move(it->second.pending_errors.front());
  table_.erase(it);
  return result;
}

std::size_t DescriptorDb::in_flight(int fd) const {
  auto it = table_.find(fd);
  return it == table_.end() ? 0 : it->second.next_seq() - it->second.completed;
}

std::size_t DescriptorDb::completed_count(int fd) const {
  auto it = table_.find(fd);
  return it == table_.end() ? 0 : it->second.completed;
}

}  // namespace iofwd::proto
