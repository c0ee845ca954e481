// Radix tree index over token prefixes at page granularity.
//
// SGLang-style RadixAttention bookkeeping (Zheng et al. 2024) for the
// paged cache: admission matches an incoming prompt against the tree to
// find the longest resident full-page prefix; the matched pages are then
// attached by refcount bump (the fork_sequence CoW path generalized to
// partial prefixes) and only the novel suffix is charged pages and
// chunk-prefilled. The index stores no KV data and owns no references —
// refcounts live with the PagePool (kvcache/page_pool.h) that owns it,
// which erases pages here when they die.
//
// The tree is path-compressed: a node holds a run of pages and the
// tokens they cover, so a long shared system prompt is one node, not one
// per page. An edge splits at the page boundary where two prompts
// diverge, and a childless leaf grows in place when its prompt grows (the
// next session turn). Walks compare whole pages with memcmp and allocate
// nothing. The semantics are those of a trie with one page per node:
// whole pages only, the first writer of a chunk keeps it, and erase_page
// returns the page and then its subtree in that trie's depth-first order
// (docs/PREFIX_SHARING.md).
//
// Children are kept in a std::map keyed by their first page of tokens, so
// every walk and cascade is deterministic (lint rule 8: no unordered
// iteration).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "kvcache/page_allocator.h"

namespace turbo {

class RadixIndex {
 public:
  explicit RadixIndex(std::size_t page_tokens);

  std::size_t page_tokens() const { return page_tokens_; }
  // Number of pages currently indexed.
  std::size_t size() const { return by_page_.size(); }

  // Longest indexed prefix of `tokens`, as the pages holding it in order.
  // Only whole page_tokens-sized chunks match; a partial tail never does.
  std::vector<PageId> match(std::span<const std::int32_t> tokens) const;
  // match(tokens).size(), without building the page list.
  std::size_t match_pages(std::span<const std::int32_t> tokens) const;

  // Index pages[i] under the i-th page-sized chunk of `tokens`
  // (tokens.size() must cover pages.size() whole chunks). Chunks already
  // indexed keep their original page — the first writer wins, so two
  // sequences that prefilled the same prefix privately do not fight over
  // the index. Returns how many pages were newly indexed.
  std::size_t insert(std::span<const std::int32_t> tokens,
                     std::span<const PageId> pages);

  bool has_page(PageId page) const { return by_page_.count(page) > 0; }

  // Remove `page` together with everything indexed below it (the
  // descendants would be unreachable without their ancestor) and return
  // every removed page, `page` first. The caller decides what removal
  // means for each returned page (free it, keep it — the index holds no
  // references).
  std::vector<PageId> erase_page(PageId page);

 private:
  // Orders equal-length page chunks lexicographically, as the one-page
  // trie's std::vector keys did; transparent, so a lookup by span
  // allocates nothing.
  struct ChunkLess {
    using is_transparent = void;
    bool operator()(std::span<const std::int32_t> a,
                    std::span<const std::int32_t> b) const;
  };

  struct Node {
    Node* parent = nullptr;
    std::vector<PageId> pages;          // the run, in prompt order
    std::vector<std::int32_t> tokens;   // pages.size() whole chunks
    // Keyed by the child's first chunk (a copy: the child's own tokens
    // grow in place).
    std::map<std::vector<std::int32_t>, std::unique_ptr<Node>, ChunkLess>
        children;
  };

  // Where an indexed page lives: its node and its position in the run.
  struct Slot {
    Node* node = nullptr;
    std::size_t offset = 0;
  };

  // Walk `tokens` from the root and return how many whole pages match,
  // appending them to `out` when it is not null.
  std::size_t walk(std::span<const std::int32_t> tokens,
                   std::vector<PageId>* out) const;
  std::span<const std::int32_t> chunk(const Node& node,
                                      std::size_t offset) const;
  // Index `page` as the next page of `node`'s run.
  void append(Node& node, PageId page, std::span<const std::int32_t> chunk);
  // Split `node`'s run before `offset`: the tail and the children move to
  // a new single child.
  void split(Node& node, std::size_t offset);
  void collect_pages(const Node& node, std::size_t offset,
                     std::vector<PageId>& out) const;

  std::size_t page_tokens_;
  Node root_;  // holds no pages
  // Reverse lookup only — never iterated (determinism is preserved).
  std::unordered_map<PageId, Slot> by_page_;
};

}  // namespace turbo
