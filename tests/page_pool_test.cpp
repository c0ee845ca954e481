// Page accounting (kvcache/page_pool.h), ctest -L prefix.
//
// PagePool is the one implementation of page references, per-holder
// charges, the retained pool and the books check that the serving engine
// and PagedKvCache both run. The model check below replays 100k random
// alloc / ref / unref / hold / unhold / index-insert / reclaim calls over
// a small pool with three holders against a naive model: per-page
// reference counts, a LIFO free list, a retained map scanned for the
// oldest stamp, and every book recounted from the references after each
// call. The model keeps its own RadixIndex (checked against a one-page
// trie in radix_index_test.cpp) only for index membership and the
// reclaim cascade. The named tests pin the two rules an engine schedule
// leans on: an injected allocation fault reclaims nothing, and unhold
// gives retained pages back their original LRU stamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "kvcache/page_pool.h"

namespace turbo {
namespace {

constexpr std::size_t kPages = 12;
constexpr std::size_t kPageTokens = 2;
constexpr std::size_t kHolders = 3;

struct Model {
  explicit Model(const FaultPlan& plan) : radix(kPageTokens), fault(plan) {
    for (std::size_t i = kPages; i > 0; --i) {
      free_list.push_back(static_cast<PageId>(i - 1));
    }
  }

  std::vector<PageId> free_list;  // LIFO; low ids first
  std::array<std::uint32_t, kPages> refs{};
  std::array<std::array<std::uint32_t, kHolders>, kPages> by_holder{};
  std::map<PageId, std::size_t> retained;  // page -> retention stamp
  std::size_t touch = 0;
  std::size_t reclaimed = 0;
  RadixIndex radix;
  FaultInjector fault;  // same plan as the pool's: the same draws
  std::vector<std::size_t> held_stamps;

  std::size_t used() const { return kPages - free_list.size(); }
  std::size_t shared() const {
    std::size_t n = 0;
    for (const std::uint32_t r : refs) n += r >= 2 ? 1 : 0;
    return n;
  }
  std::size_t charged(std::size_t h) const {
    std::size_t n = 0;
    for (std::size_t p = 0; p < kPages; ++p) {
      n += refs[p] == 1 && by_holder[p][h] == 1 ? 1 : 0;
    }
    return n;
  }

  void ref(PageId p, std::size_t h) {
    ++refs[p];
    ++by_holder[p][h];
  }
  void unref(PageId p, std::size_t h) {
    --refs[p];
    --by_holder[p][h];
    if (refs[p] > 0) return;
    if (radix.has_page(p)) {
      retained[p] = touch++;
    } else {
      free_list.push_back(p);
    }
  }
  void reclaim(PageId p) {
    for (const PageId q : radix.erase_page(p)) {
      const auto it = retained.find(q);
      if (it == retained.end()) continue;
      retained.erase(it);
      free_list.push_back(q);
      ++reclaimed;
    }
  }
  PageId alloc(std::size_t h) {
    while (true) {
      if (fault.fail_page_alloc()) return kInvalidPage;
      if (!free_list.empty()) {
        const PageId p = free_list.back();
        free_list.pop_back();
        ref(p, h);
        return p;
      }
      if (retained.empty()) return kInvalidPage;
      auto lru = retained.begin();
      for (auto it = retained.begin(); it != retained.end(); ++it) {
        if (it->second < lru->second) lru = it;
      }
      reclaim(lru->first);
    }
  }
  bool alloc_n(std::size_t n, std::vector<PageId>& out, std::size_t h) {
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
  void hold(const std::vector<PageId>& pages, std::size_t h) {
    held_stamps.clear();
    for (const PageId p : pages) {
      std::size_t stamp = 0;
      if (refs[p] == 0) {
        stamp = retained.at(p);
        retained.erase(p);
      }
      held_stamps.push_back(stamp);
      ref(p, h);
    }
  }
  void unhold(const std::vector<PageId>& pages, std::size_t h) {
    for (std::size_t i = 0; i < pages.size(); ++i) {
      --refs[pages[i]];
      --by_holder[pages[i]][h];
      if (refs[pages[i]] == 0) retained[pages[i]] = held_stamps[i];
    }
  }
};

// The first way `pool` and `m` disagree, or "" when every book matches.
std::string mismatch(const PagePool& pool, const Model& m) {
  std::ostringstream out;
  if (pool.used() != m.used()) out << "used " << pool.used() << " ";
  if (pool.free() != m.free_list.size()) out << "free " << pool.free() << " ";
  if (pool.retained() != m.retained.size()) {
    out << "retained " << pool.retained() << " ";
  }
  if (pool.shared() != m.shared()) out << "shared " << pool.shared() << " ";
  if (pool.reclaimed() != m.reclaimed) {
    out << "reclaimed " << pool.reclaimed() << " ";
  }
  for (std::size_t h = 0; h < kHolders; ++h) {
    if (pool.charged(h) != m.charged(h)) {
      out << "charged(" << h << ") " << pool.charged(h) << " vs "
          << m.charged(h) << " ";
    }
  }
  for (PageId p = 0; p < kPages; ++p) {
    if (pool.refs(p) != m.refs[p]) out << "refs(" << p << ") ";
    if (pool.indexed(p) != m.radix.has_page(p)) out << "indexed(" << p << ") ";
  }
  return out.str();
}

// A prompt of 1-4 whole pages over a two-token alphabet, so prompts share
// prefixes and the index splits and cascades.
std::vector<std::int32_t> random_prompt(Rng& rng) {
  const std::size_t pages = 1 + rng.uniform_index(4);
  std::vector<std::int32_t> ids(pages * kPageTokens);
  for (std::int32_t& id : ids) {
    id = static_cast<std::int32_t>(rng.uniform_index(2));
  }
  return ids;
}

template <typename Pred>
std::vector<PageId> pages_where(Pred pred) {
  std::vector<PageId> out;
  for (PageId p = 0; p < kPages; ++p) {
    if (pred(p)) out.push_back(p);
  }
  return out;
}

TEST(PagePoolModelTest, RandomOperationsMatchTheNaiveModel) {
  FaultPlan plan;
  plan.seed = 17;
  plan.page_alloc_failure_prob = 0.05;
  FaultInjector pool_fault(plan);
  PagePool pool(kPages, kPageTokens, kHolders);
  pool.set_fault_injector(&pool_fault);
  Model m(plan);
  Rng rng(2026);
  std::array<std::size_t, 10> seen{};
  for (std::size_t step = 0; step < 100000; ++step) {
    const std::size_t h = rng.uniform_index(kHolders);
    const std::size_t op = rng.uniform_index(10);
    ++seen[op];
    const auto live = pages_where([&](PageId p) { return m.refs[p] > 0; });
    switch (op) {
      case 0:
      case 1: {  // alloc: the page returned is part of the contract
        const PageId want = m.alloc(h);
        ASSERT_EQ(pool.alloc(h), want) << "step " << step;
        break;
      }
      case 2: {  // ref a referenced page
        if (live.empty()) break;
        const PageId p = live[rng.uniform_index(live.size())];
        pool.ref(p, h);
        m.ref(p, h);
        break;
      }
      case 3:
      case 4:
      case 5:
      case 6: {  // unref one of some holder's references
        if (live.empty()) break;
        const PageId p = live[rng.uniform_index(live.size())];
        std::size_t holder = rng.uniform_index(kHolders);
        while (m.by_holder[p][holder] == 0) holder = (holder + 1) % kHolders;
        const std::uint32_t left = m.refs[p] - 1;
        ASSERT_EQ(pool.unref(p, holder), left) << "step " << step;
        m.unref(p, holder);
        break;
      }
      case 7: {  // admission: hold the matched prefix, allocate the rest
        const std::vector<std::int32_t> prompt = random_prompt(rng);
        const std::vector<PageId> matched = m.radix.match(prompt);
        ASSERT_EQ(pool.radix().match(prompt), matched) << "step " << step;
        const std::size_t n = rng.uniform_index(3);
        pool.hold(matched, h);
        m.hold(matched, h);
        ASSERT_EQ(mismatch(pool, m), "") << "step " << step << " (hold)";
        std::vector<PageId> got;
        std::vector<PageId> want;
        const bool ok = m.alloc_n(n, want, h);
        ASSERT_EQ(pool.alloc_n(n, got, h), ok) << "step " << step;
        ASSERT_EQ(got, want) << "step " << step;
        if (!ok) {
          pool.unhold(matched, h);
          m.unhold(matched, h);
        }
        break;
      }
      case 8: {  // index referenced, unindexed pages under a prompt
        const auto fresh = pages_where([&](PageId p) {
          return m.refs[p] > 0 && !m.radix.has_page(p);
        });
        if (fresh.empty()) break;
        std::vector<std::int32_t> prompt = random_prompt(rng);
        const std::size_t n = std::min(prompt.size() / kPageTokens,
                                       fresh.size());
        prompt.resize(n * kPageTokens);
        const std::span<const PageId> pages(fresh.data(), n);
        ASSERT_EQ(pool.index(prompt, pages), m.radix.insert(prompt, pages))
            << "step " << step;
        break;
      }
      case 9: {  // reclaim a retained page; now and then flush them all
        if (m.retained.empty()) break;
        if (rng.uniform_index(16) == 0) {
          pool.flush_retained();
          while (!m.retained.empty()) m.reclaim(m.retained.begin()->first);
          break;
        }
        auto it = m.retained.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform_index(m.retained.size())));
        const PageId p = it->first;
        pool.reclaim(p);
        m.reclaim(p);
        break;
      }
      default:
        break;
    }
    ASSERT_EQ(mismatch(pool, m), "") << "step " << step << " op " << op;
    pool.check_books();
  }
  // Every kind of call ran, faults fired, and the retained pool was used.
  for (const std::size_t n : seen) EXPECT_GT(n, 5000u);
  EXPECT_GT(pool.injected_failures(), 0u);
  EXPECT_GT(pool.reclaimed(), 0u);
}

TEST(PagePoolTest, InjectedFaultReturnsInvalidWithoutReclaiming) {
  PagePool pool(4, kPageTokens, kHolders);
  std::vector<PageId> pages;
  ASSERT_TRUE(pool.alloc_n(4, pages, 0));
  const std::vector<std::int32_t> prompt = {0, 1, 2, 3};
  ASSERT_EQ(pool.index(prompt, std::span<const PageId>(pages.data(), 2)),
            2u);
  pool.unref(pages[0], 0);
  pool.unref(pages[1], 0);
  ASSERT_EQ(pool.retained(), 2u);
  ASSERT_EQ(pool.free(), 0u);

  FaultPlan plan;
  plan.seed = 1;
  plan.page_alloc_failure_prob = 1.0;
  FaultInjector always(plan);
  pool.set_fault_injector(&always);
  EXPECT_EQ(pool.alloc(1), kInvalidPage);
  EXPECT_EQ(pool.injected_failures(), 1u);
  EXPECT_EQ(pool.retained(), 2u);  // nothing reclaimed for a fault
  EXPECT_EQ(pool.reclaimed(), 0u);
  EXPECT_TRUE(pool.indexed(pages[0]));

  // Genuine exhaustion does reclaim: the oldest retained page, with the
  // page indexed below it.
  pool.set_fault_injector(nullptr);
  EXPECT_EQ(pool.alloc(1), pages[1]);
  EXPECT_EQ(pool.reclaimed(), 2u);
  EXPECT_EQ(pool.retained(), 0u);
  EXPECT_EQ(pool.charged(1), 1u);
  pool.check_books();
}

TEST(PagePoolTest, UnholdRestoresTheRetentionStamps) {
  // Pages a, b, c are indexed side by side and retained in the order
  // b, a, c. An admission that holds b and then fails must leave b the
  // least recently retained, so the next reclaim picks b, as it would
  // have without the hold.
  for (const bool with_hold : {false, true}) {
    PagePool pool(3, kPageTokens, kHolders);
    const PageId a = pool.alloc(0);
    const PageId b = pool.alloc(1);
    const PageId c = pool.alloc(2);
    const std::vector<std::int32_t> ids = {0, 0, 1, 1, 2, 2};
    const std::span<const std::int32_t> span(ids);
    pool.index(span.subspan(0, 2), std::span<const PageId>(&a, 1));
    pool.index(span.subspan(2, 2), std::span<const PageId>(&b, 1));
    pool.index(span.subspan(4, 2), std::span<const PageId>(&c, 1));
    pool.unref(b, 1);
    pool.unref(a, 0);
    pool.unref(c, 2);
    ASSERT_EQ(pool.retained(), 3u);
    if (with_hold) {
      const std::vector<PageId> matched = {b};
      pool.hold(matched, 2);
      EXPECT_EQ(pool.retained(), 2u);
      EXPECT_EQ(pool.charged(2), 1u);
      FaultPlan plan;
      plan.page_alloc_failure_prob = 1.0;
      FaultInjector always(plan);
      pool.set_fault_injector(&always);
      std::vector<PageId> suffix;
      EXPECT_FALSE(pool.alloc_n(1, suffix, 2));
      pool.set_fault_injector(nullptr);
      pool.unhold(matched, 2);
      EXPECT_EQ(pool.charged(2), 0u);
    }
    ASSERT_EQ(pool.retained(), 3u);
    EXPECT_EQ(pool.alloc(0), b) << "with_hold " << with_hold;
    EXPECT_FALSE(pool.indexed(b));
    EXPECT_TRUE(pool.indexed(a));
    pool.check_books();
  }
}

}  // namespace
}  // namespace turbo
