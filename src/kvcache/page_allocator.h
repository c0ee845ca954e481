// Fixed-size page allocator for the paged KV cache.
//
// Serving engines avoid per-sequence contiguous KV allocations (internal
// fragmentation, no sharing) by carving the cache into fixed-size pages
// and mapping sequences onto them through page tables — the vLLM design.
// This allocator owns the free list; PagePool (kvcache/page_pool.h) keeps
// the references and the prefix index on top of it for the paged cache
// and the serving engine.
//
// An optional FaultInjector makes individual allocations fail
// deterministically even while pages remain free, so schedulers built on
// top (serving/engine.h) can be driven through their eviction/preemption
// paths under test.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fault.h"

namespace turbo {

using PageId = std::uint32_t;
inline constexpr PageId kInvalidPage = 0xffffffffu;

class PageAllocator {
 public:
  explicit PageAllocator(std::size_t page_count);

  std::size_t capacity() const { return capacity_; }
  std::size_t free_pages() const { return free_list_.size(); }
  std::size_t used_pages() const { return capacity_ - free_pages(); }

  // Allocate one page; returns kInvalidPage when exhausted (or when the
  // fault injector fails this attempt).
  PageId allocate();

  // Return a page to the pool. Double-free is a checked error.
  void release(PageId page);

  bool is_allocated(PageId page) const;

  // Wire a fault injector (not owned; may be null to disable). Each
  // allocate() first asks it whether to fail this attempt.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Allocations that failed because the injector fired (not exhaustion).
  std::size_t injected_failures() const { return injected_failures_; }

 private:
  std::size_t capacity_;
  std::vector<PageId> free_list_;
  std::vector<bool> allocated_;
  FaultInjector* injector_ = nullptr;
  std::size_t injected_failures_ = 0;
};

}  // namespace turbo
