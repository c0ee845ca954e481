// Page accounting shared by the paged KV cache and the serving engine.
//
// A PagePool owns the page allocator and the prefix index
// (kvcache/radix_index.h) and keeps every page's references, in total and
// per holder. A holder is whatever its owner bills pages to: the engine
// has one per service class, PagedKvCache has one. From the references
// the pool keeps the charge books at every reference change: a page with
// one reference is charged to its holder, and a page with two or more is
// shared and charged to nobody (evicting any single holder would not
// free it). Only the 0<->1 and 1<->2 transitions move a charge.
//
// A registered (indexed) page whose last reference dies is not freed: it
// parks in the retained pool, still attachable through the index. An
// allocation that finds the free list empty reclaims retained pages
// least-recently-retained first; each reclaim cascades the radix subtree
// below the page. An owner that shares pages among live sequences only
// reclaims at once.
//
// The books always balance: sum(charged(h)) + shared() + retained() ==
// used(). check_books() verifies that in O(1).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "kvcache/page_allocator.h"
#include "kvcache/radix_index.h"

namespace turbo {

class PagePool {
 public:
  PagePool(std::size_t page_count, std::size_t page_tokens,
           std::size_t holders);

  std::size_t used() const { return allocator_.used_pages(); }
  std::size_t free() const { return allocator_.free_pages(); }
  // Indexed pages nobody references, parked for re-attachment.
  std::size_t retained() const { return retained_.size(); }
  // Pages with two or more references.
  std::size_t shared() const { return shared_; }
  // Pages whose single reference holder `h` holds.
  std::size_t charged(std::size_t h) const { return charged_[h]; }
  std::uint32_t refs(PageId page) const { return refs_[page]; }
  // Retained pages freed so far (by exhaustion, reclaim or flush).
  std::size_t reclaimed() const { return reclaimed_; }

  // Wire a fault injector (not owned; may be null) into every allocation.
  void set_fault_injector(FaultInjector* injector) {
    allocator_.set_fault_injector(injector);
  }
  // Allocations that failed because the injector fired.
  std::size_t injected_failures() const {
    return allocator_.injected_failures();
  }

  // --- Prefix index -------------------------------------------------------
  const RadixIndex& radix() const { return radix_; }
  bool indexed(PageId page) const { return radix_.has_page(page); }
  // RadixIndex::insert: index referenced pages under their token chunks.
  std::size_t index(std::span<const std::int32_t> tokens,
                    std::span<const PageId> pages) {
    return radix_.insert(tokens, pages);
  }

  // --- References ---------------------------------------------------------
  // Allocate one page referenced by `h`. On genuine exhaustion the
  // retained pool is reclaimed least-recently-retained first and the
  // allocation retried; an injected failure is returned unchanged (the
  // fault hit this attempt, retained pages notwithstanding). With an
  // empty pool this is exactly one allocator call.
  PageId alloc(std::size_t h) {
    while (true) {
      const std::size_t injected_before = allocator_.injected_failures();
      const PageId p = allocator_.allocate();
      if (p != kInvalidPage) {
        ref(p, h);
        return p;
      }
      if (allocator_.injected_failures() > injected_before) {
        return kInvalidPage;
      }
      if (retained_.empty()) return kInvalidPage;
      reclaim(least_recently_retained());
    }
  }
  // Allocate `n` pages for `h` onto the empty `out`, or none (a failed
  // attempt unrefs what it took, newest first).
  bool alloc_n(std::size_t n, std::vector<PageId>& out, std::size_t h);

  // Add a reference to a referenced page.
  void ref(PageId page, std::size_t h) {
    if (refs_[page] == 0) {
      ++charged_[h];
    } else if (refs_[page] == 1) {
      --charged_[holder_of(page)];
      ++shared_;
    }
    ++refs_[page];
    ++holder_refs_[page * holders_ + h];
  }
  // Drop one of `h`'s references and return the references left. The
  // last reference parks an indexed page in the retained pool and frees
  // any other.
  std::uint32_t unref(PageId page, std::size_t h) {
    const std::uint32_t left = drop(page, h);
    if (left > 0) return left;
    if (radix_.has_page(page)) {
      retained_.emplace(page, retained_touch_++);
    } else {
      allocator_.release(page);
    }
    return 0;
  }

  // Attach matched prefix pages by reference: retained pages leave the
  // pool, referenced pages gain a reference. Admission holds them before
  // allocating the novel suffix, so alloc's exhaustion path cannot
  // reclaim a page that is about to be attached.
  void hold(const std::vector<PageId>& pages, std::size_t h) {
    held_stamps_.clear();
    for (const PageId page : pages) {
      std::size_t stamp = kNotRetained;
      if (refs_[page] == 0) {
        const auto it = retained_.find(page);
        TURBO_DCHECK(it != retained_.end());
        stamp = it->second;
        retained_.erase(it);
      }
      held_stamps_.push_back(stamp);
      ref(page, h);
    }
  }
  // Undo the last hold() after a failed allocation: every page returns to
  // the state it had, retained ones under their original LRU stamps.
  void unhold(const std::vector<PageId>& pages, std::size_t h) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      if (drop(pages[i], h) == 0) {
        retained_.emplace(pages[i], held_stamps_[i]);
      }
    }
  }

  // Evict one retained page from the index and free it, cascading its
  // now-unreachable radix subtree. Descendants still referenced stay
  // allocated (they merely become unindexed); descendants that were
  // themselves retained free with it.
  void reclaim(PageId page);
  void flush_retained();

  // Every allocated page is charged to one holder, shared, or retained;
  // the range test catches a count that wrapped below zero, which the sum
  // alone would hide. TURBO_CHECKs, in O(1).
  void check_books() const;
  // No page is referenced: every charge and share has been released.
  bool books_empty() const;

 private:
  static constexpr std::size_t kNotRetained = ~std::size_t{0};

  // Drop one of `h`'s references, moving the charge at 1->0 and 2->1;
  // returns the references left.
  std::uint32_t drop(PageId page, std::size_t h) {
    TURBO_DCHECK(holder_refs_[page * holders_ + h] > 0);
    --holder_refs_[page * holders_ + h];
    const std::uint32_t left = --refs_[page];
    if (left == 0) {
      --charged_[h];
    } else if (left == 1) {
      --shared_;
      ++charged_[holder_of(page)];
    }
    return left;
  }
  // The holder of a singly referenced page's reference.
  std::size_t holder_of(PageId page) const {
    const std::uint32_t* by_holder = &holder_refs_[page * holders_];
    std::size_t h = 0;
    while (by_holder[h] == 0) {
      ++h;
      TURBO_DCHECK(h < holders_);
    }
    return h;
  }
  PageId least_recently_retained() const;

  std::size_t holders_;
  PageAllocator allocator_;
  RadixIndex radix_;
  // References per page, and per (page, holder) at page * holders_ + h.
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> holder_refs_;
  std::vector<std::size_t> charged_;
  std::size_t shared_ = 0;
  // Retained page -> retention order (the LRU clock). Ordered, so the
  // reclaim scan is deterministic (lint rule 8).
  std::map<PageId, std::size_t> retained_;
  std::size_t retained_touch_ = 0;
  std::size_t reclaimed_ = 0;
  // hold() scratch: the stamps unhold() restores (kNotRetained for pages
  // that were referenced).
  std::vector<std::size_t> held_stamps_;
};

}  // namespace turbo
