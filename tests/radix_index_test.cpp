// Radix prefix index (kvcache/radix_index.h), ctest -L prefix.
//
// The index is a path-compressed radix tree with the semantics of a trie
// holding one page per node: whole pages only, the first writer of a
// chunk keeps it, and erase_page returns the page and then its subtree in
// the trie's depth-first order. PageTrie below is that trie, kept here as
// the oracle: random insert/match/erase sequences over a three-token
// alphabet (so prompts collide and edges split) must agree with it call
// for call. The named tests pin the tree's own cases: a split mid-edge, a
// leaf growing in place, an erase mid-edge and first-writer-wins across a
// split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "kvcache/radix_index.h"

namespace turbo {
namespace {

std::vector<std::int32_t> iota_ids(std::int32_t first, std::size_t count) {
  std::vector<std::int32_t> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

std::vector<std::int32_t> concat(std::vector<std::int32_t> a,
                                 const std::vector<std::int32_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// --- The oracle: one page per trie node -------------------------------------

class PageTrie {
 public:
  explicit PageTrie(std::size_t page_tokens) : page_tokens_(page_tokens) {}

  std::size_t size() const { return by_page_.size(); }
  bool has_page(PageId page) const { return by_page_.count(page) > 0; }

  std::vector<PageId> match(std::span<const std::int32_t> tokens) const {
    std::vector<PageId> out;
    const Node* node = &root_;
    std::size_t pos = 0;
    while (pos + page_tokens_ <= tokens.size()) {
      const auto it = node->children.find(chunk(tokens, pos));
      if (it == node->children.end()) break;
      node = it->second.get();
      out.push_back(node->page);
      pos += page_tokens_;
    }
    return out;
  }

  std::size_t insert(std::span<const std::int32_t> tokens,
                     std::span<const PageId> pages) {
    TURBO_CHECK(pages.size() * page_tokens_ <= tokens.size());
    Node* node = &root_;
    std::size_t added = 0;
    for (std::size_t i = 0; i < pages.size(); ++i) {
      std::vector<std::int32_t> key = chunk(tokens, i * page_tokens_);
      const auto it = node->children.find(key);
      if (it != node->children.end()) {
        node = it->second.get();
        continue;
      }
      auto child = std::make_unique<Node>();
      child->parent = node;
      child->key = key;
      child->page = pages[i];
      Node* raw = child.get();
      TURBO_CHECK_MSG(by_page_.emplace(pages[i], raw).second,
                      "page " << pages[i] << " already indexed");
      node->children.emplace(std::move(key), std::move(child));
      node = raw;
      ++added;
    }
    return added;
  }

  std::vector<PageId> erase_page(PageId page) {
    const auto it = by_page_.find(page);
    TURBO_CHECK(it != by_page_.end());
    Node* node = it->second;
    std::vector<PageId> removed;
    collect(*node, removed);
    for (const PageId p : removed) by_page_.erase(p);
    node->parent->children.erase(node->key);
    return removed;
  }

 private:
  struct Node {
    std::map<std::vector<std::int32_t>, std::unique_ptr<Node>> children;
    Node* parent = nullptr;
    std::vector<std::int32_t> key;
    PageId page = kInvalidPage;
  };

  std::vector<std::int32_t> chunk(std::span<const std::int32_t> tokens,
                                  std::size_t pos) const {
    return {tokens.begin() + static_cast<std::ptrdiff_t>(pos),
            tokens.begin() + static_cast<std::ptrdiff_t>(pos + page_tokens_)};
  }

  void collect(const Node& node, std::vector<PageId>& out) const {
    out.push_back(node.page);
    for (const auto& [key, child] : node.children) collect(*child, out);
  }

  std::size_t page_tokens_;
  Node root_;
  std::unordered_map<PageId, Node*> by_page_;
};

// --- Named cases ------------------------------------------------------------

TEST(RadixIndexTest, MatchesWholePagePrefixesOnly) {
  RadixIndex idx(4);
  EXPECT_TRUE(idx.match(iota_ids(0, 8)).empty());

  const auto ids = iota_ids(0, 8);
  const std::vector<PageId> pages = {10, 11};
  EXPECT_EQ(idx.insert(ids, pages), 2u);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_TRUE(idx.has_page(10));
  EXPECT_TRUE(idx.has_page(11));

  const auto full = idx.match(ids);
  ASSERT_EQ(full.size(), 2u);
  EXPECT_EQ(full[0], 10u);
  EXPECT_EQ(full[1], 11u);

  // A partial tail chunk never matches: 7 tokens hit only the first page,
  // 3 tokens hit nothing.
  EXPECT_EQ(idx.match(std::span(ids.data(), 7)).size(), 1u);
  EXPECT_TRUE(idx.match(std::span(ids.data(), 3)).empty());

  // Divergence stops the walk at the last agreeing whole page.
  auto div = ids;
  div[5] = 99;
  EXPECT_EQ(idx.match(div).size(), 1u);
  div = ids;
  div[0] = 99;
  EXPECT_TRUE(idx.match(div).empty());
}

TEST(RadixIndexTest, FirstWriterWinsOnReinsert) {
  RadixIndex idx(4);
  const auto ids = iota_ids(0, 4);
  const std::vector<PageId> first = {5};
  const std::vector<PageId> second = {7};
  EXPECT_EQ(idx.insert(ids, first), 1u);
  // Re-indexing the same chunk keeps the original page: two sequences
  // that prefilled the same prefix privately must not fight over it.
  EXPECT_EQ(idx.insert(ids, second), 0u);
  const auto m = idx.match(ids);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], 5u);
  EXPECT_TRUE(idx.has_page(5));
  EXPECT_FALSE(idx.has_page(7));
}

TEST(RadixIndexTest, ErasePageCascadesThroughSubtree) {
  RadixIndex idx(4);
  const auto trunk = iota_ids(0, 12);  // chunks [0..3][4..7][8..11]
  const std::vector<PageId> trunk_pages = {1, 2, 3};
  EXPECT_EQ(idx.insert(trunk, trunk_pages), 3u);
  // A branch sharing only the first chunk.
  std::vector<std::int32_t> branch = iota_ids(0, 4);
  const auto tail = iota_ids(90, 4);
  branch.insert(branch.end(), tail.begin(), tail.end());
  const std::vector<PageId> branch_pages = {1, 7};
  EXPECT_EQ(idx.insert(branch, branch_pages), 1u);
  EXPECT_EQ(idx.size(), 4u);

  // Erasing a mid-trunk page takes its descendants with it (they would
  // be unreachable), the erased page first.
  const auto dead = idx.erase_page(2);
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(dead[0], 2u);
  EXPECT_EQ(dead[1], 3u);
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.match(trunk).size(), 1u);  // only the root chunk remains
  EXPECT_EQ(idx.match(branch).size(), 2u);

  // Erasing the root chunk's page empties the whole tree.
  const auto rest = idx.erase_page(1);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0], 1u);
  EXPECT_EQ(rest[1], 7u);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.match(trunk).empty());
}

// Two prompts that share two pages and then diverge split the first
// one's edge at the page boundary; both stay matchable in full, and the
// erase cascade from the shared head visits the two tails in chunk order.
TEST(RadixIndexTest, DivergenceSplitsAnEdgeMidRun) {
  RadixIndex idx(2);
  const auto a = iota_ids(0, 8);                         // pages 1 2 3 4
  const auto b = concat(iota_ids(0, 4), {-5, 9, 7, 7});  // pages 1 2 5 6
  const std::vector<PageId> a_pages = {1, 2, 3, 4};
  const std::vector<PageId> b_pages = {11, 12, 5, 6};
  EXPECT_EQ(idx.insert(a, a_pages), 4u);
  EXPECT_EQ(idx.insert(b, b_pages), 2u);
  EXPECT_EQ(idx.size(), 6u);
  EXPECT_EQ(idx.match(a), (std::vector<PageId>{1, 2, 3, 4}));
  EXPECT_EQ(idx.match(b), (std::vector<PageId>{1, 2, 5, 6}));
  EXPECT_EQ(idx.match_pages(b), 4u);
  // A third prompt diverging inside the shared head splits it again.
  const auto c = concat(iota_ids(0, 2), {3, 3});
  EXPECT_EQ(idx.insert(c, std::vector<PageId>{1, 8}), 1u);
  EXPECT_EQ(idx.match(c), (std::vector<PageId>{1, 8}));
  EXPECT_EQ(idx.match(a), (std::vector<PageId>{1, 2, 3, 4}));
  // {-5, 9} sorts before {4, 5}, and {2, 3} before {3, 3}.
  EXPECT_EQ(idx.erase_page(1), (std::vector<PageId>{1, 2, 5, 6, 3, 4, 8}));
  EXPECT_EQ(idx.size(), 0u);
}

// The next turn of a session re-submits its history: the childless leaf
// holding the last turn grows in place, and the grown run matches whole.
TEST(RadixIndexTest, GrowingPromptExtendsItsLeafInPlace) {
  RadixIndex idx(3);
  const auto turn1 = iota_ids(0, 7);  // two whole pages and a partial one
  EXPECT_EQ(idx.insert(turn1, std::vector<PageId>{1, 2}), 2u);
  const auto turn2 = iota_ids(0, 15);
  EXPECT_EQ(idx.insert(turn2, std::vector<PageId>{8, 9, 3, 4, 5}), 3u);
  EXPECT_FALSE(idx.has_page(8));
  EXPECT_EQ(idx.match(turn2), (std::vector<PageId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(idx.match(turn1), (std::vector<PageId>{1, 2}));
  EXPECT_EQ(idx.erase_page(2), (std::vector<PageId>{2, 3, 4, 5}));
  EXPECT_EQ(idx.match(turn2), (std::vector<PageId>{1}));
}

// Erasing a page in the middle of a run keeps the run's head, drops the
// page and everything below it, and the shortened leaf can grow again
// under new pages.
TEST(RadixIndexTest, EraseMidRunTruncatesTheEdge) {
  RadixIndex idx(2);
  const auto trunk = iota_ids(0, 10);  // pages 1..5
  EXPECT_EQ(idx.insert(trunk, std::vector<PageId>{1, 2, 3, 4, 5}), 5u);
  const auto branch = concat(iota_ids(0, 8), {0, 0});
  EXPECT_EQ(idx.insert(branch, std::vector<PageId>{1, 2, 3, 4, 6}), 1u);
  EXPECT_EQ(idx.erase_page(3), (std::vector<PageId>{3, 4, 6, 5}));
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_FALSE(idx.has_page(4));
  EXPECT_EQ(idx.match(trunk), (std::vector<PageId>{1, 2}));
  EXPECT_EQ(idx.insert(trunk, std::vector<PageId>{1, 2, 13, 14, 15}), 3u);
  EXPECT_EQ(idx.match(trunk), (std::vector<PageId>{1, 2, 13, 14, 15}));
  EXPECT_EQ(idx.match(branch), (std::vector<PageId>{1, 2, 13, 14}));
}

// A chunk's first writer keeps it even when a later insert splits the
// run that holds it: the later prompt's pages for the shared chunks are
// ignored, and only its novel chunks are indexed.
TEST(RadixIndexTest, FirstWriterWinsAcrossASplit) {
  RadixIndex idx(2);
  const auto a = iota_ids(0, 6);  // pages 1 2 3
  EXPECT_EQ(idx.insert(a, std::vector<PageId>{1, 2, 3}), 3u);
  const auto b = concat(iota_ids(0, 4), {9, 9, 9, 9});
  EXPECT_EQ(idx.insert(b, std::vector<PageId>{4, 5, 6, 7}), 2u);
  EXPECT_FALSE(idx.has_page(4));
  EXPECT_FALSE(idx.has_page(5));
  EXPECT_EQ(idx.match(b), (std::vector<PageId>{1, 2, 6, 7}));
  // Past the split the first writer still wins, and the old leaf grows.
  const auto a2 = iota_ids(0, 8);
  EXPECT_EQ(idx.insert(a2, std::vector<PageId>{7, 6, 5, 4}), 1u);
  EXPECT_EQ(idx.match(a2), (std::vector<PageId>{1, 2, 3, 4}));
  // A page indexed elsewhere cannot be indexed twice.
  EXPECT_THROW(idx.insert(concat(iota_ids(0, 2), {8, 8}),
                          std::vector<PageId>{1, 6}),
               CheckError);
  EXPECT_EQ(idx.size(), 6u);
}

// --- Property test against the oracle ---------------------------------------

// Names the failing call; gtest streams it only when an assertion fails.
struct Where {
  std::uint64_t seed;
  std::size_t page_tokens;
  std::size_t op;
};
std::ostream& operator<<(std::ostream& os, const Where& w) {
  return os << "seed " << w.seed << " page_tokens " << w.page_tokens
            << " op " << w.op;
}

// One random operation sequence: prompts are drawn from a few stems over
// a three-token alphabet so that they share prefixes, diverge mid-run and
// re-submit grown histories; page ids come from a small pool so erased
// ids are reused. Every call must agree with the oracle, and so must
// size() after every insert or erase and has_page() over the whole pool
// every few operations.
void check_against_oracle(std::size_t page_tokens, std::uint64_t seed,
                          std::size_t ops) {
  constexpr PageId kPool = 48;
  Rng rng(seed);
  RadixIndex tree(page_tokens);
  PageTrie oracle(page_tokens);
  auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  std::vector<std::vector<std::int32_t>> stems;
  for (int s = 0; s < 4; ++s) {
    std::vector<std::int32_t> stem(8 * page_tokens);
    for (auto& t : stem) t = static_cast<std::int32_t>(draw(3));
    stems.push_back(std::move(stem));
  }
  auto prompt = [&] {
    // A stem's prefix, then a random continuation (sometimes nothing).
    const auto& stem = stems[draw(stems.size())];
    std::vector<std::int32_t> p(
        stem.begin(),
        stem.begin() + static_cast<std::ptrdiff_t>(draw(stem.size() + 1)));
    const std::size_t extra = draw(4 * page_tokens + 1);
    for (std::size_t i = 0; i < extra; ++i) {
      p.push_back(static_cast<std::int32_t>(draw(3)));
    }
    return p;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const Where where{seed, page_tokens, op};
    const std::size_t kind = draw(10);
    if (kind < 4) {
      const auto tokens = prompt();
      std::vector<PageId> pages;
      const std::size_t n = draw(tokens.size() / page_tokens + 1);
      auto taken = [&](PageId p) {
        return oracle.has_page(p) ||
               std::find(pages.begin(), pages.end(), p) != pages.end();
      };
      for (std::size_t i = 0; i < n; ++i) {
        // Mostly a page no trie holds; now and then one it does, which
        // both must refuse at the same point with the same state left.
        PageId p = static_cast<PageId>(draw(kPool));
        if (draw(20) != 0) {
          for (PageId k = 0; k < kPool && taken(p); ++k) p = (p + 1) % kPool;
        }
        pages.push_back(p);
      }
      std::size_t want = 0;
      std::size_t got = 0;
      bool want_throw = false;
      bool got_throw = false;
      try {
        want = oracle.insert(tokens, pages);
      } catch (const CheckError&) {
        want_throw = true;
      }
      try {
        got = tree.insert(tokens, pages);
      } catch (const CheckError&) {
        got_throw = true;
      }
      ASSERT_EQ(got_throw, want_throw) << where;
      ASSERT_EQ(got, want) << where;
    } else if (kind < 8) {
      const auto tokens = prompt();
      const std::vector<PageId> want = oracle.match(tokens);
      ASSERT_EQ(tree.match(tokens), want) << where;
      ASSERT_EQ(tree.match_pages(tokens), want.size()) << where;
      continue;  // a walk changes nothing
    } else if (oracle.size() > 0) {
      PageId p = static_cast<PageId>(draw(kPool));
      while (!oracle.has_page(p)) p = (p + 1) % kPool;
      ASSERT_EQ(tree.erase_page(p), oracle.erase_page(p)) << where;
    }
    ASSERT_EQ(tree.size(), oracle.size()) << where;
    if (op % 8 != 0) continue;
    for (PageId p = 0; p < kPool; ++p) {
      ASSERT_EQ(tree.has_page(p), oracle.has_page(p)) << where << " page "
                                                      << p;
    }
  }
}

TEST(RadixOracleTest, RandomOperationsMatchThePageTrie) {
  for (std::size_t page_tokens = 1; page_tokens <= 4; ++page_tokens) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      check_against_oracle(page_tokens, seed, 5000);
    }
  }
}

}  // namespace
}  // namespace turbo
