// Exact memo of the FM refinement inside physical_bipartition().
//
// physical_bipartition reads no cluster state: its FM input is a pure
// function of the GPU set's pairwise distances and of the hierarchical
// initial split. Those inputs recur constantly — the same GPU set within
// a scheduling pass, and equally shaped sets on other machines across
// decisions (FM sees positions, not GPU ids). The memo keys exactly what
// FM reads: the vertex count, the i<j distance bit patterns and the
// initial sides, streamed through the same two-accumulator FNV-1a as the
// placement-cache key (DESIGN.md §12). A hit therefore returns the sides
// FM would compute. FmOptions are not keyed: physical_bipartition always
// runs FM at its defaults.
//
// Unlike the placement cache, nothing here is tied to an allocation
// epoch, so the memo is never flushed. It is bounded instead: at capacity
// the oldest entry is evicted (first in, first out; eviction order is
// insertion order, never bucket order). A memo belongs to one owner and
// is not thread-safe; concurrent DRB evaluations must not share one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gts::partition {

struct BipartitionMemoKey {
  std::uint64_t h1 = 0;  // FNV-1a, standard offset basis
  std::uint64_t h2 = 0;  // FNV-1a, independent offset basis
  // Equality payload compared verbatim on lookup.
  std::int32_t vertex_count = 0;
  std::int32_t initial_side0 = 0;  // vertices starting on side 0

  bool operator==(const BipartitionMemoKey& other) const = default;
};

struct BipartitionMemoKeyHash {
  std::size_t operator()(const BipartitionMemoKey& key) const noexcept {
    return static_cast<std::size_t>(key.h1);
  }
};

/// Key of one FM input: `distances` as filled by
/// TopologyGraph::distances_among (i<j, row-major) and the initial side
/// (0/1) per vertex.
BipartitionMemoKey bipartition_memo_key(const std::vector<double>& distances,
                                        const std::vector<int>& initial);

struct BipartitionMemoStats {
  long long lookups = 0;
  long long hits = 0;
  long long evictions = 0;

  double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class BipartitionMemo {
 public:
  /// Entries kept by a default-constructed memo.
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The FM outcome of one input: the refined sides plus what the
  /// bipartition reports as its logical work (pass count, cut).
  struct Entry {
    std::vector<std::uint8_t> side;
    int fm_passes = 0;
    double cut_weight = 0.0;
  };

  /// `capacity` must be positive.
  explicit BipartitionMemo(std::size_t capacity = kDefaultCapacity);

  /// Counts one lookup (and a hit when found); nullptr on a miss. The
  /// entry stays valid until the next insert.
  const Entry* find(const BipartitionMemoKey& key);
  /// Stores `entry` under a key find() just missed, evicting the oldest
  /// entry when the memo is full.
  void insert(const BipartitionMemoKey& key, Entry entry);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  const BipartitionMemoStats& stats() const noexcept { return stats_; }

 private:
  std::size_t capacity_;
  std::unordered_map<BipartitionMemoKey, Entry, BipartitionMemoKeyHash>
      entries_;
  std::vector<BipartitionMemoKey> order_;  // insertion ring for eviction
  std::size_t next_evict_ = 0;
  BipartitionMemoStats stats_;
};

}  // namespace gts::partition
