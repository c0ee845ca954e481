#include "kvcache/paged_cache.h"

#include "common/check.h"

namespace turbo {

PagedKvCache::PagedKvCache(std::size_t head_dim, BitWidth bits,
                           std::size_t page_tokens, std::size_t page_count)
    : head_dim_(head_dim),
      bits_(bits),
      page_tokens_(page_tokens),
      pages_(page_count, page_tokens, 1),
      page_data_(page_count) {
  TURBO_CHECK(head_dim_ > 0);
  TURBO_CHECK(page_tokens_ > 0);
}

PagedKvCache::SeqId PagedKvCache::create_sequence() {
  const SeqId id = next_seq_++;
  sequences_.emplace(
      id, Sequence{{},
                   DecodeBuffer(page_tokens_, head_dim_),
                   DecodeBuffer(page_tokens_, head_dim_)});
  return id;
}

PagedKvCache::SeqId PagedKvCache::fork_sequence(SeqId seq) {
  const Sequence& src = seq_ref(seq);
  const SeqId id = next_seq_++;
  Sequence copy = src;  // page table + buffers copied
  for (PageId p : copy.pages) {
    pages_.ref(p, 0);
  }
  sequences_.emplace(id, std::move(copy));
  return id;
}

void PagedKvCache::release_sequence(SeqId seq) {
  Sequence& s = seq_ref(seq);
  for (PageId p : s.pages) {
    if (pages_.unref(p, 0) == 0) {
      page_data_[p] = KvBlock{};
      // Sharing is among live sequences only: an indexed page is
      // reclaimed as it dies instead of staying retained. Its descendants
      // cascade out of the index (unreachable without their ancestor) but
      // stay allocated while referenced.
      if (pages_.indexed(p)) pages_.reclaim(p);
    }
  }
  sequences_.erase(seq);
  pages_.check_books();
}

void PagedKvCache::register_prefix(SeqId seq,
                                   std::span<const std::int32_t> tokens) {
  const Sequence& s = seq_ref(seq);
  std::size_t n = tokens.size() / page_tokens_;
  if (n > s.pages.size()) n = s.pages.size();
  pages_.index(tokens.first(n * page_tokens_),
               std::span<const PageId>(s.pages.data(), n));
}

PagedKvCache::PrefixAttach PagedKvCache::create_with_prefix(
    std::span<const std::int32_t> tokens) {
  const std::vector<PageId> matched = pages_.radix().match(tokens);
  const SeqId id = create_sequence();
  Sequence& s = seq_ref(id);
  for (const PageId p : matched) {
    TURBO_DCHECK(pages_.refs(p) > 0);  // index never outlives its pages
    pages_.ref(p, 0);
    s.pages.push_back(p);
  }
  return PrefixAttach{id, matched.size() * page_tokens_};
}

bool PagedKvCache::append_token(SeqId seq, std::span<const float> k,
                                std::span<const float> v) {
  Sequence& s = seq_ref(seq);
  // Lazy flush: a full buffer is drained only when the next token needs
  // the space, so page exhaustion surfaces exactly on the append it
  // blocks (and the blocked token is not lost).
  if (s.k_buffer.full()) {
    if (!flush_buffer(s)) return false;
  }
  s.k_buffer.push(k);
  s.v_buffer.push(v);
  return true;
}

bool PagedKvCache::append_prefill_block(SeqId seq, const Int8Tile& k_tile,
                                        const Int8Tile& v_tile) {
  Sequence& s = seq_ref(seq);
  TURBO_CHECK(k_tile.q.cols() == head_dim_);
  TURBO_CHECK(k_tile.q.rows() == v_tile.q.rows());
  // Same lazy flush-before-push contract as append_token: a full buffer
  // is drained only when the incoming tile needs the space, so page
  // exhaustion surfaces *before* any row is absorbed and a failed call
  // leaves the sequence untouched — an evict-and-retry caller replays
  // the tile with no token lost and none duplicated. (The old shape
  // pushed the ragged rows first and flushed after, so a failed flush
  // stranded them in the buffer for the retry to double-append.)
  if (s.k_buffer.full()) {
    if (!flush_buffer(s)) return false;
  }
  s.k_buffer.seed_scale(k_tile.scale * kSymmetricHeadroom);
  s.v_buffer.seed_scale(v_tile.scale * kSymmetricHeadroom);

  if (k_tile.q.rows() == page_tokens_) {
    TURBO_CHECK_MSG(s.k_buffer.empty(),
                    "page-sized prefill tile must not straddle buffered rows");
    const PageId page = pages_.alloc(0);
    if (page == kInvalidPage) return false;
    page_data_[page].k =
        progressive_compress(k_tile.q, k_tile.scale, bits_);
    page_data_[page].v =
        progressive_compress(v_tile.q, v_tile.scale, bits_);
    s.pages.push_back(page);
    return true;
  }
  // Ragged tile: route through the buffer (stays INT8 until enough tokens
  // arrive to fill a page). Ragged tiles may continue a partially-filled
  // buffer — suffix prefill after a prefix attach lands here — as long as
  // the rows fit; the next append drains a full buffer lazily.
  TURBO_CHECK(k_tile.q.rows() < page_tokens_);
  TURBO_CHECK_MSG(s.k_buffer.size() + k_tile.q.rows() <= page_tokens_,
                  "ragged prefill tile overflows the tail buffer");
  for (std::size_t r = 0; r < k_tile.q.rows(); ++r) {
    std::vector<float> kt(head_dim_);
    std::vector<float> vt(head_dim_);
    dequantize_symmetric_int8(k_tile.q.row(r), k_tile.scale, kt);
    dequantize_symmetric_int8(v_tile.q.row(r), v_tile.scale, vt);
    s.k_buffer.push(kt);
    s.v_buffer.push(vt);
  }
  return true;
}

bool PagedKvCache::flush_buffer(Sequence& s) {
  TURBO_CHECK(s.k_buffer.full());
  const PageId page = pages_.alloc(0);
  if (page == kInvalidPage) return false;
  const float k_scale = s.k_buffer.scale();
  const float v_scale = s.v_buffer.scale();
  const MatrixI8 k_q1 = s.k_buffer.take();
  const MatrixI8 v_q1 = s.v_buffer.take();
  page_data_[page].k = progressive_compress(k_q1, k_scale, bits_);
  page_data_[page].v = progressive_compress(v_q1, v_scale, bits_);
  s.pages.push_back(page);
  return true;
}

std::optional<PagedKvCache::SeqId> PagedKvCache::adopt_sequence(
    std::vector<KvBlock> blocks, float k_scale, const MatrixI8& k_rows,
    float v_scale, const MatrixI8& v_rows) {
  for (const KvBlock& b : blocks) {
    TURBO_CHECK_MSG(b.k.rows == page_tokens_ && b.v.rows == page_tokens_,
                    "adopted block is not page-sized");
    TURBO_CHECK_MSG(b.k.cols == head_dim_ && b.v.cols == head_dim_,
                    "adopted block head_dim mismatch");
    TURBO_CHECK_MSG(b.k.bits == bits_ && b.v.bits == bits_,
                    "adopted block bit-width mismatch");
  }
  TURBO_CHECK_MSG(k_rows.rows() == v_rows.rows(),
                  "adopted K/V tail buffers disagree on length");
  // Flushing is lazy, so a serialized sequence may carry an exactly-full
  // tail buffer (it is cut into a page only when the next token arrives).
  TURBO_CHECK_MSG(k_rows.rows() <= page_tokens_,
                  "adopted tail buffer larger than a page");
  TURBO_CHECK(k_rows.rows() == 0 || k_rows.cols() == head_dim_);
  TURBO_CHECK(v_rows.rows() == 0 || v_rows.cols() == head_dim_);
  TURBO_CHECK_MSG(k_rows.rows() == 0 || (k_scale > 0.0f && v_scale > 0.0f),
                  "adopted tail buffer has tokens but no universal scale");

  std::vector<PageId> pages;
  pages.reserve(blocks.size());
  if (!pages_.alloc_n(blocks.size(), pages, 0)) return std::nullopt;
  Sequence s{{},
             DecodeBuffer(page_tokens_, head_dim_),
             DecodeBuffer(page_tokens_, head_dim_)};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    page_data_[pages[i]] = std::move(blocks[i]);
  }
  s.pages = std::move(pages);
  if (k_scale > 0.0f) s.k_buffer.restore_scale(k_scale);
  if (v_scale > 0.0f) s.v_buffer.restore_scale(v_scale);
  for (std::size_t t = 0; t < k_rows.rows(); ++t) {
    s.k_buffer.push_quantized(k_rows.row(t));
    s.v_buffer.push_quantized(v_rows.row(t));
  }
  const SeqId id = next_seq_++;
  sequences_.emplace(id, std::move(s));
  pages_.check_books();
  return id;
}

std::size_t PagedKvCache::token_count(SeqId seq) const {
  const Sequence& s = seq_ref(seq);
  return s.pages.size() * page_tokens_ + s.k_buffer.size();
}

std::vector<const KvBlock*> PagedKvCache::blocks(SeqId seq) const {
  const Sequence& s = seq_ref(seq);
  std::vector<const KvBlock*> out;
  out.reserve(s.pages.size());
  for (PageId p : s.pages) {
    out.push_back(&page_data_[p]);
  }
  return out;
}

const DecodeBuffer& PagedKvCache::key_buffer(SeqId seq) const {
  return seq_ref(seq).k_buffer;
}
const DecodeBuffer& PagedKvCache::value_buffer(SeqId seq) const {
  return seq_ref(seq).v_buffer;
}

std::size_t PagedKvCache::charged_pages(SeqId seq) const {
  const Sequence& s = seq_ref(seq);
  std::size_t n = 0;
  for (const PageId p : s.pages) {
    if (pages_.refs(p) == 1) ++n;
  }
  return n;
}

std::size_t PagedKvCache::memory_bytes() const {
  std::size_t bytes = 0;
  for (PageId p = 0; p < page_data_.size(); ++p) {
    if (pages_.refs(p) > 0) bytes += page_data_[p].memory_bytes();
  }
  for (const auto& [id, s] : sequences_) {
    bytes += s.k_buffer.memory_bytes() + s.v_buffer.memory_bytes();
  }
  return bytes;
}

PagedKvCache::Sequence& PagedKvCache::seq_ref(SeqId seq) {
  auto it = sequences_.find(seq);
  TURBO_CHECK_MSG(it != sequences_.end(), "unknown sequence " << seq);
  return it->second;
}
const PagedKvCache::Sequence& PagedKvCache::seq_ref(SeqId seq) const {
  auto it = sequences_.find(seq);
  TURBO_CHECK_MSG(it != sequences_.end(), "unknown sequence " << seq);
  return it->second;
}

}  // namespace turbo
