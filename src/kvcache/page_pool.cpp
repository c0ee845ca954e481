#include "kvcache/page_pool.h"

namespace turbo {

PagePool::PagePool(std::size_t page_count, std::size_t page_tokens,
                   std::size_t holders)
    : holders_(holders),
      allocator_(page_count),
      radix_(page_tokens),
      refs_(page_count, 0),
      holder_refs_(page_count * holders, 0),
      charged_(holders, 0) {
  TURBO_CHECK(holders > 0);
}

bool PagePool::alloc_n(std::size_t n, std::vector<PageId>& out,
                       std::size_t h) {
  for (std::size_t i = 0; i < n; ++i) {
    const PageId p = alloc(h);
    if (p == kInvalidPage) {
      while (!out.empty()) {
        unref(out.back(), h);
        out.pop_back();
      }
      return false;
    }
    out.push_back(p);
  }
  return true;
}

void PagePool::reclaim(PageId page) {
  for (const PageId q : radix_.erase_page(page)) {
    const auto it = retained_.find(q);
    if (it == retained_.end()) continue;
    retained_.erase(it);
    allocator_.release(q);
    ++reclaimed_;
  }
}

void PagePool::flush_retained() {
  while (!retained_.empty()) {
    reclaim(retained_.begin()->first);
  }
}

PageId PagePool::least_recently_retained() const {
  auto lru = retained_.begin();
  for (auto it = retained_.begin(); it != retained_.end(); ++it) {
    if (it->second < lru->second) lru = it;
  }
  return lru->first;
}

void PagePool::check_books() const {
  const std::size_t used = allocator_.used_pages();
  std::size_t booked = shared_ + retained_.size();
  bool in_range = shared_ <= used;
  for (const std::size_t n : charged_) {
    booked += n;
    in_range = in_range && n <= used;
  }
  TURBO_CHECK_MSG(in_range && booked == used,
                  "page books out of balance or wrapped below zero: "
                      << booked << " charged, shared or retained vs "
                      << used << " allocated");
}

bool PagePool::books_empty() const {
  for (const std::size_t n : charged_) {
    if (n != 0) return false;
  }
  return shared_ == 0;
}

}  // namespace turbo
