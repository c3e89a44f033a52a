#include "kernel/kernel_cache.hpp"

namespace svmkernel {

std::span<const float> KernelRowCache::lookup(std::size_t index) {
  pinned_ = kNoPin;  // a new lookup releases the previous pin
  const auto it = map_.find(index);
  if (it == map_.end()) {
    ++misses_;
    return {};
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
  pinned_ = index;
  return it->second->row;
}

void KernelRowCache::insert(std::size_t index, std::span<const float> row) {
  const auto existing = map_.find(index);
  if (existing != map_.end()) {
    bytes_used_ -= entry_bytes(*existing->second);
    if (pinned_ == index) pinned_ = kNoPin;  // caller overwrote its own pinned row
    lru_.erase(existing->second);
    map_.erase(existing);
  }
  const std::size_t row_bytes = row.size() * sizeof(float);
  // Evict from the LRU tail, skipping the pinned entry: the span returned by
  // the last lookup() must stay valid until the next lookup().
  auto victim = lru_.end();
  while (victim != lru_.begin() && bytes_used_ + row_bytes > budget_bytes_) {
    --victim;
    if (victim->index == pinned_) continue;
    bytes_used_ -= entry_bytes(*victim);
    map_.erase(victim->index);
    victim = lru_.erase(victim);
  }
  lru_.push_front(Entry{index, std::vector<float>(row.begin(), row.end())});
  map_[index] = lru_.begin();
  bytes_used_ += row_bytes;
}

void KernelRowCache::clear() {
  lru_.clear();
  map_.clear();
  bytes_used_ = 0;
  pinned_ = kNoPin;
}

}  // namespace svmkernel
