#include "kvcache/radix_index.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace turbo {

bool RadixIndex::ChunkLess::operator()(std::span<const std::int32_t> a,
                                       std::span<const std::int32_t> b) const {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

RadixIndex::RadixIndex(std::size_t page_tokens) : page_tokens_(page_tokens) {
  TURBO_CHECK(page_tokens_ > 0);
}

std::span<const std::int32_t> RadixIndex::chunk(const Node& node,
                                                std::size_t offset) const {
  return std::span<const std::int32_t>(node.tokens)
      .subspan(offset * page_tokens_, page_tokens_);
}

std::size_t RadixIndex::walk(std::span<const std::int32_t> tokens,
                             std::vector<PageId>* out) const {
  const std::size_t chunk_bytes = page_tokens_ * sizeof(std::int32_t);
  const std::size_t whole = tokens.size() / page_tokens_;
  const Node* node = &root_;
  std::size_t n = 0;  // pages matched so far
  while (n < whole) {
    const auto it = node->children.find(tokens.subspan(n * page_tokens_,
                                                       page_tokens_));
    if (it == node->children.end()) break;
    node = it->second.get();
    // The key matched the run's first page; the rest must match page by
    // page.
    const std::size_t run = node->pages.size();
    std::size_t k = 1;
    while (k < run && n + k < whole &&
           std::memcmp(node->tokens.data() + k * page_tokens_,
                       tokens.data() + (n + k) * page_tokens_,
                       chunk_bytes) == 0) {
      ++k;
    }
    if (out != nullptr) {
      out->insert(out->end(), node->pages.begin(),
                  node->pages.begin() + static_cast<std::ptrdiff_t>(k));
    }
    n += k;
    if (k < run) break;  // diverged or ran out inside the run
  }
  return n;
}

std::vector<PageId> RadixIndex::match(
    std::span<const std::int32_t> tokens) const {
  std::vector<PageId> out;
  walk(tokens, &out);
  return out;
}

std::size_t RadixIndex::match_pages(
    std::span<const std::int32_t> tokens) const {
  return walk(tokens, nullptr);
}

void RadixIndex::append(Node& node, PageId page,
                        std::span<const std::int32_t> chunk) {
  TURBO_CHECK_MSG(by_page_.emplace(page, Slot{&node, node.pages.size()})
                      .second,
                  "page " << page << " already indexed");
  node.pages.push_back(page);
  node.tokens.insert(node.tokens.end(), chunk.begin(), chunk.end());
}

void RadixIndex::split(Node& node, std::size_t offset) {
  auto tail = std::make_unique<Node>();
  tail->parent = &node;
  tail->pages.assign(node.pages.begin() + static_cast<std::ptrdiff_t>(offset),
                     node.pages.end());
  tail->tokens.assign(
      node.tokens.begin() + static_cast<std::ptrdiff_t>(offset * page_tokens_),
      node.tokens.end());
  tail->children = std::move(node.children);
  for (auto& [key, child] : tail->children) child->parent = tail.get();
  for (std::size_t i = 0; i < tail->pages.size(); ++i) {
    by_page_[tail->pages[i]] = Slot{tail.get(), i};
  }
  node.pages.resize(offset);
  node.tokens.resize(offset * page_tokens_);
  node.children.clear();
  const std::span<const std::int32_t> key = chunk(*tail, 0);
  node.children.emplace(std::vector<std::int32_t>(key.begin(), key.end()),
                        std::move(tail));
}

std::size_t RadixIndex::insert(std::span<const std::int32_t> tokens,
                               std::span<const PageId> pages) {
  TURBO_CHECK_MSG(pages.size() * page_tokens_ <= tokens.size(),
                  "radix insert: fewer token chunks than pages");
  Node* node = &root_;
  std::size_t pos = 0;  // next page of node's run to compare; root_ has none
  std::size_t added = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    TURBO_CHECK(pages[i] != kInvalidPage);
    const std::span<const std::int32_t> c =
        tokens.subspan(i * page_tokens_, page_tokens_);
    if (pos < node->pages.size()) {
      if (std::ranges::equal(chunk(*node, pos), c)) {
        ++pos;  // first writer wins; keep the original page
        continue;
      }
      split(*node, pos);  // diverged mid-run
    } else {
      const auto it = node->children.find(c);
      if (it != node->children.end()) {
        node = it->second.get();
        pos = 1;  // the key was the run's first page
        continue;
      }
    }
    if (node != &root_ && node->children.empty()) {
      append(*node, pages[i], c);  // a leaf grows in place
    } else {
      auto child = std::make_unique<Node>();
      child->parent = node;
      Node* raw = child.get();
      append(*raw, pages[i], c);
      node->children.emplace(std::vector<std::int32_t>(c.begin(), c.end()),
                             std::move(child));
      node = raw;
    }
    pos = node->pages.size();
    ++added;
  }
  return added;
}

void RadixIndex::collect_pages(const Node& node, std::size_t offset,
                               std::vector<PageId>& out) const {
  out.insert(out.end(),
             node.pages.begin() + static_cast<std::ptrdiff_t>(offset),
             node.pages.end());
  for (const auto& [key, child] : node.children) {
    collect_pages(*child, 0, out);
  }
}

std::vector<PageId> RadixIndex::erase_page(PageId page) {
  const auto it = by_page_.find(page);
  TURBO_CHECK_MSG(it != by_page_.end(), "page " << page << " not indexed");
  Node* node = it->second.node;
  const std::size_t offset = it->second.offset;
  std::vector<PageId> removed;
  collect_pages(*node, offset, removed);
  for (const PageId p : removed) {
    by_page_.erase(p);
  }
  if (offset > 0) {
    // Mid-run: the run keeps its head and loses everything below.
    node->pages.resize(offset);
    node->tokens.resize(offset * page_tokens_);
    node->children.clear();
    return removed;
  }
  Node* parent = node->parent;
  TURBO_CHECK(parent != nullptr);
  parent->children.erase(parent->children.find(chunk(*node, 0)));
  return removed;
}

}  // namespace turbo
