// Negative fixture for cow-unguarded-page-write: every page_data_ write
// is either inside a fresh-page allocation site, guarded by a comparison
// of the page pool's reference read, reads only, or carries the
// suppression marker.
#include <cstddef>

struct KvBlock {
  int k = 0;
  int v = 0;
};

struct Pool {
  unsigned alloc(std::size_t h);
  unsigned unref(std::size_t p, std::size_t h);
  unsigned refs(std::size_t p) const;
};

struct Cache {
  KvBlock page_data_[8];
  Pool pages_;

  bool append_prefill_block(int k) {
    const unsigned p = pages_.alloc(0);
    page_data_[p].k = k;  // fresh page: just allocated by this function
    return true;
  }
  bool flush_buffer() {
    const unsigned p = pages_.alloc(0);
    page_data_[p] = KvBlock{};  // fresh page again
    return true;
  }
  void release(std::size_t p) {
    if (pages_.unref(p, 0) == 0) {
      page_data_[p] = KvBlock{};  // guarded: provably last reference
    }
  }
  void private_write(std::size_t p, int k) {
    if (pages_.refs(p) == 1) {
      page_data_[p].k = k;  // guarded: provably private
    }
  }
  int read_only(std::size_t p) const {
    return page_data_[p].k == 0 ? 1 : 0;  // comparison, not a write
  }
  void deliberate(std::size_t p) {
    page_data_[p].v = 1;  // turbo-lint: allow-cow-write
  }
};
