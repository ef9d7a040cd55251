#include "partition/bipartition_memo.hpp"

#include <array>
#include <bit>

#include "check/check.hpp"
#include "util/fnv.hpp"

namespace gts::partition {

namespace {

/// Streams the distance bit patterns as one code byte per pair: a GPU set
/// holds a handful of distinct distances (one per topology level), and
/// hashing a byte per pair instead of eight cuts the key's cost, paid on
/// every lookup, by about 8x. The encoding is injective:
/// code c < table size names a value seen before; c == table size adds
/// the 8 value bytes that follow to the table; 0xff (once the table is
/// full) carries its 8 value bytes inline.
class DistanceStream {
 public:
  explicit DistanceStream(util::Fnv128& fnv) : fnv_(fnv) {}

  void add(double distance) {
    const auto bits = std::bit_cast<std::uint64_t>(distance);
    for (std::uint8_t c = 0; c < size_; ++c) {
      if (table_[c] == bits) {
        code(c);
        return;
      }
    }
    if (size_ < kEscape) {
      table_[size_] = bits;
      code(size_++);
    } else {
      code(kEscape);
    }
    fnv_.bytes(&bits, sizeof(bits));
  }

 private:
  static constexpr std::uint8_t kEscape = 0xff;

  void code(std::uint8_t c) { fnv_.bytes(&c, 1); }

  util::Fnv128& fnv_;
  std::array<std::uint64_t, kEscape> table_{};
  std::uint8_t size_ = 0;
};

}  // namespace

BipartitionMemoKey bipartition_memo_key(const std::vector<double>& distances,
                                        const std::vector<int>& initial) {
  util::Fnv128 fnv;
  const int n = static_cast<int>(initial.size());
  fnv.add_int(n);
  DistanceStream stream(fnv);
  for (const double distance : distances) stream.add(distance);
  int side0 = 0;
  for (const int side : initial) {
    fnv.add_int(side);
    side0 += side == 0 ? 1 : 0;
  }
  BipartitionMemoKey key;
  key.h1 = fnv.h1();
  key.h2 = fnv.h2();
  key.vertex_count = n;
  key.initial_side0 = side0;
  return key;
}

BipartitionMemo::BipartitionMemo(std::size_t capacity) : capacity_(capacity) {
  GTS_CHECK_GT(capacity_, 0u);
}

const BipartitionMemo::Entry* BipartitionMemo::find(
    const BipartitionMemoKey& key) {
  ++stats_.lookups;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++stats_.hits;
  return &it->second;
}

void BipartitionMemo::insert(const BipartitionMemoKey& key, Entry entry) {
  if (order_.size() < capacity_) {
    order_.push_back(key);
  } else {
    entries_.erase(order_[next_evict_]);
    order_[next_evict_] = key;
    next_evict_ = (next_evict_ + 1) % capacity_;
    ++stats_.evictions;
  }
  entries_.insert_or_assign(key, std::move(entry));
}

}  // namespace gts::partition
