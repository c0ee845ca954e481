// Positive fixture for cow-unguarded-page-write: mutating a page payload
// outside the fresh-page allocation sites, with no reference guard in
// sight — a shared page would be corrupted under every other referent.
// A reference read that is not compared with == proves nothing.
#include <cstddef>

struct KvBlock {
  int k = 0;
  int v = 0;
};

struct Pool {
  unsigned refs(std::size_t p) const;
};

struct Cache {
  KvBlock page_data_[8];
  Pool pages_;

  void rewrite_in_place(std::size_t p) {
    page_data_[p] = KvBlock{};  // unguarded whole-block overwrite
  }
  void patch_member(std::size_t p, int k) {
    if (pages_.refs(p) > 0) {
      page_data_[p].k = k;  // a live page may still be shared
    }
  }
};
