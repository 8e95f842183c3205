#include "bb/extent_index.hpp"

#include <algorithm>
#include <cstring>

namespace iofwd::bb {

ExtentIndex::Map::iterator ExtentIndex::first_touching(std::uint64_t offset, std::uint64_t len) {
  // Candidate predecessors end at or after `offset` (adjacency counts, so a
  // predecessor ending exactly at `offset` touches); successors start at or
  // before the end of the new range.
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end() >= offset) return prev;
  }
  if (it != extents_.end() && it->first <= offset + len) return it;
  return extents_.end();
}

void ExtentIndex::account_remove(const Extent& e) {
  data_bytes_ -= e.len;
  if (e.dirty) dirty_bytes_ -= e.len;
}

Result<ExtentIndex::Insert> ExtentIndex::insert(std::uint64_t offset,
                                                std::span<const std::byte> data,
                                                rt::BufferPool& pool) {
  const std::uint64_t len = data.size();
  if (len == 0) return Insert::in_place;

  auto touch = first_touching(offset, len);

  if (touch == extents_.end()) {
    // Disjoint from everything cached: a fresh extent.
    auto b = pool.try_acquire(len);
    if (!b.is_ok()) return b.status();
    Extent e;
    e.start = offset;
    e.len = len;
    e.buf = std::make_shared<rt::Buffer>(std::move(b).value());
    e.dirty = true;
    std::memcpy(e.buf->data(), data.data(), len);
    data_bytes_ += len;
    dirty_bytes_ += len;
    extents_.emplace(offset, std::move(e));
    return Insert::fresh;
  }

  // In-place fast path: the write lands entirely inside one extent's leased
  // capacity, at or after its start, and touches no other extent. Sequential
  // appends hit this until the size class is full. A pinned buffer
  // (use_count > 1: an in-flight send still reads it) is immutable — fall
  // through to the merge path, which re-leases and leaves the pinned bytes
  // to the pin holder. Pins are only created under the descriptor mutex the
  // caller already holds, so use_count == 1 here cannot race upward; a
  // concurrent release can only make the copy conservative, never unsafe.
  Extent& first = touch->second;
  const bool single = (std::next(touch) == extents_.end() ||
                       std::next(touch)->first > offset + len);
  if (single && first.buf.use_count() == 1 && offset >= first.start &&
      offset + len <= first.start + first.capacity()) {
    std::memcpy(first.buf->data() + (offset - first.start), data.data(), len);
    const std::uint64_t new_len = std::max(first.len, (offset + len) - first.start);
    data_bytes_ += new_len - first.len;
    if (first.dirty) {
      dirty_bytes_ += new_len - first.len;
    } else {
      first.dirty = true;
      dirty_bytes_ += new_len;
    }
    first.len = new_len;
    return Insert::in_place;
  }

  // General case: merge the union of the new range and every touching extent
  // into one freshly leased buffer. Old leases are released only after the
  // new one is secured, so a failed acquire leaves the index unchanged.
  auto last = touch;
  std::uint64_t merged_start = std::min(offset, touch->second.start);
  std::uint64_t merged_end = offset + len;
  for (auto it = touch; it != extents_.end() && it->first <= offset + len; ++it) {
    merged_end = std::max(merged_end, it->second.end());
    last = it;
  }
  const std::uint64_t merged_len = merged_end - merged_start;
  if (merged_len > pool.capacity()) {
    return Status(Errc::message_too_large, "merged extent exceeds burst-buffer pool");
  }
  auto b = pool.try_acquire(merged_len);
  if (!b.is_ok()) return b.status();

  Extent merged;
  merged.start = merged_start;
  merged.len = merged_len;
  merged.buf = std::make_shared<rt::Buffer>(std::move(b).value());
  merged.dirty = true;
  // Gaps between old extents inside the union are zero-filled (they read as
  // file holes until something lands there).
  std::memset(merged.buf->data(), 0, merged_len);
  for (auto it = touch; it != std::next(last); ++it) {
    const Extent& e = it->second;
    std::memcpy(merged.buf->data() + (e.start - merged_start), e.buf->data(), e.len);
    account_remove(e);
  }
  extents_.erase(touch, std::next(last));
  std::memcpy(merged.buf->data() + (offset - merged_start), data.data(), len);
  data_bytes_ += merged_len;
  dirty_bytes_ += merged_len;
  extents_.emplace(merged_start, std::move(merged));
  return Insert::merged;
}

std::vector<ExtentIndex::Segment> ExtentIndex::segments(std::uint64_t offset,
                                                        std::uint64_t len) const {
  std::vector<Segment> out;
  if (len == 0) return out;
  const std::uint64_t range_end = offset + len;
  std::uint64_t pos = offset;

  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin() && std::prev(it)->second.end() > offset) --it;
  for (; it != extents_.end() && it->second.start < range_end && pos < range_end; ++it) {
    const Extent& e = it->second;
    if (e.end() <= pos) continue;
    if (e.start > pos) {
      out.push_back({pos, e.start - pos, nullptr});
      pos = e.start;
    }
    const std::uint64_t seg_end = std::min(e.end(), range_end);
    out.push_back({pos, seg_end - pos, &e});
    pos = seg_end;
  }
  if (pos < range_end) out.push_back({pos, range_end - pos, nullptr});
  return out;
}

Extent* ExtentIndex::largest_dirty() {
  Extent* best = nullptr;
  for (auto& [_, e] : extents_) {
    if (e.dirty && (best == nullptr || e.len > best->len)) best = &e;
  }
  return best;
}

Extent* ExtentIndex::largest_clean() {
  Extent* best = nullptr;
  for (auto& [_, e] : extents_) {
    if (!e.dirty && (best == nullptr || e.len > best->len)) best = &e;
  }
  return best;
}

Extent* ExtentIndex::next_dirty(std::uint64_t from) {
  for (auto it = extents_.lower_bound(from); it != extents_.end(); ++it) {
    if (it->second.dirty) return &it->second;
  }
  return nullptr;
}

void ExtentIndex::mark_clean(Extent& e) {
  if (!e.dirty) return;
  e.dirty = false;
  dirty_bytes_ -= e.len;
}

void ExtentIndex::evict(std::uint64_t start) {
  auto it = extents_.find(start);
  if (it == extents_.end()) return;
  account_remove(it->second);
  extents_.erase(it);
}

std::vector<Extent> ExtentIndex::take_overlapping(std::uint64_t offset, std::uint64_t len) {
  std::vector<Extent> out;
  if (len == 0) return out;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin() && std::prev(it)->second.end() > offset) --it;
  while (it != extents_.end() && it->second.start < offset + len) {
    account_remove(it->second);
    out.push_back(std::move(it->second));
    it = extents_.erase(it);
  }
  return out;
}

void ExtentIndex::clear() {
  extents_.clear();  // Buffer destructors return the leases
  dirty_bytes_ = 0;
  data_bytes_ = 0;
}

std::uint64_t ExtentIndex::max_end() const {
  return extents_.empty() ? 0 : extents_.rbegin()->second.end();
}

}  // namespace iofwd::bb
