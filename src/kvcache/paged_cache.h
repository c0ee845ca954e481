// Paged, multi-sequence KV cache with copy-on-write prefix sharing.
//
// The serving-side memory manager: sequences map onto fixed-size pages
// (one page = one FlashAttention block of tokens, compressed through the
// FlashQ second stage) via per-sequence page tables. Because the cache is
// append-only, forked sequences (beam search, shared system prompts) can
// share full pages by reference counting with no copy ever needed; only
// the partial INT8 tail buffer is duplicated. This is the vLLM PagedAttention
// design specialized to TurboAttention's compressed page payloads.
//
// References, charges and the prefix index live in a PagePool
// (kvcache/page_pool.h) with a single holder, the same accounting the
// serving engine runs; this class adds the page payloads and the
// per-sequence page tables and tail buffers.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kvcache/decode_buffer.h"
#include "kvcache/page_pool.h"
#include "kvcache/quantized_kv_cache.h"

namespace turbo {

class PagedKvCache {
 public:
  using SeqId = std::uint64_t;

  // `page_tokens` is the tokens-per-page (use the attention Bc);
  // `page_count` bounds total memory.
  PagedKvCache(std::size_t head_dim, BitWidth bits, std::size_t page_tokens,
               std::size_t page_count);

  std::size_t head_dim() const { return head_dim_; }
  std::size_t page_tokens() const { return page_tokens_; }
  BitWidth bits() const { return bits_; }

  // --- Sequence lifecycle -------------------------------------------------
  SeqId create_sequence();

  // Copy-on-write fork: full pages are shared (refcounted); only the
  // partial tail buffer is copied. Contract: forking NEVER fails and
  // NEVER consumes a page — it only increments refcounts — so the return
  // is an unconditional SeqId, not an optional. Page pressure surfaces
  // later, on the first append that needs a private page.
  SeqId fork_sequence(SeqId seq);

  void release_sequence(SeqId seq);
  bool has_sequence(SeqId seq) const { return sequences_.count(seq) > 0; }

  // --- Prefix sharing (kvcache/radix_index.h) -------------------------
  // Index `seq`'s full pages under its token ids so later prompts can
  // attach to them. Only whole pages are indexed (the tail buffer is
  // private by construction); chunks already indexed keep their original
  // page. Indexed pages stay shareable until their refcount drops to
  // zero — the index holds no reference of its own, so sharing is among
  // live sequences only.
  void register_prefix(SeqId seq, std::span<const std::int32_t> tokens);

  struct PrefixAttach {
    SeqId seq = 0;
    std::size_t matched_tokens = 0;  // whole-page prefix attached
  };
  // Create a sequence attached to the longest indexed prefix of `tokens`:
  // matched full pages join the new sequence by refcount bump — the
  // fork_sequence CoW path generalized to partial prefixes. Never fails
  // and never consumes a page; the caller prefills only the suffix past
  // `matched_tokens`.
  PrefixAttach create_with_prefix(std::span<const std::int32_t> tokens);

  // --- Data path ----------------------------------------------------------
  // Append one token's K/V to a sequence. Returns false when the cache is
  // out of pages (the token is NOT appended; caller may evict and retry).
  [[nodiscard]] bool append_token(SeqId seq, std::span<const float> k,
                                  std::span<const float> v);

  // Prefill fast path: absorb an INT8 tile pair (exactly page_tokens rows
  // except possibly the last tile, which lands in the tail buffer).
  // Returns false on page exhaustion.
  [[nodiscard]] bool append_prefill_block(SeqId seq, const Int8Tile& k_tile,
                                          const Int8Tile& v_tile);

  // --- Swap-in (kvcache/serialization.h) ------------------------------
  // Adopt a fully-materialized sequence: one page is allocated per block
  // and the tail buffers are restored bit-exactly. All-or-nothing: on
  // page exhaustion every page allocated so far is released and nullopt
  // is returned — the cache is left exactly as before the call. Blocks
  // must match this cache's head_dim / bits / page_tokens.
  std::optional<SeqId> adopt_sequence(std::vector<KvBlock> blocks,
                                      float k_scale, const MatrixI8& k_rows,
                                      float v_scale, const MatrixI8& v_rows);

  // --- Decode view ----------------------------------------------------
  std::size_t token_count(SeqId seq) const;
  std::vector<const KvBlock*> blocks(SeqId seq) const;
  const DecodeBuffer& key_buffer(SeqId seq) const;
  const DecodeBuffer& value_buffer(SeqId seq) const;

  // --- Introspection --------------------------------------------------
  std::size_t used_pages() const { return pages_.used(); }
  std::size_t free_pages() const { return pages_.free(); }
  std::size_t sequence_count() const { return sequences_.size(); }
  // Pages referenced by more than one sequence.
  std::size_t shared_pages() const { return pages_.shared(); }
  // Pages this sequence is charged for: only privately-referenced pages
  // (refcount == 1) count. Shared pages are charged to nobody — across
  // all sequences, sum(charged_pages) + shared_pages() == used_pages().
  // Schedulers enforcing per-class page shares must bill with this, not
  // the page-table length, or residents of a shared prefix are
  // overcharged for pages evicting them would not free.
  std::size_t charged_pages(SeqId seq) const;
  // Total compressed bytes held (pages + buffers).
  std::size_t memory_bytes() const;
  const RadixIndex& radix() const { return pages_.radix(); }

 private:
  struct Sequence {
    std::vector<PageId> pages;
    DecodeBuffer k_buffer;
    DecodeBuffer v_buffer;
  };

  Sequence& seq_ref(SeqId seq);
  const Sequence& seq_ref(SeqId seq) const;
  bool flush_buffer(Sequence& s);

  std::size_t head_dim_;
  BitWidth bits_;
  std::size_t page_tokens_;
  PagePool pages_;
  std::vector<KvBlock> page_data_;  // indexed by PageId
  std::unordered_map<SeqId, Sequence> sequences_;
  SeqId next_seq_ = 1;
};

}  // namespace turbo
