#include "attack/key_store.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace lispoison {
namespace {

/// Build-time keys per block: ceil(sqrt(n)), floored at 16 so tiny
/// keysets stay one block. The double sqrt is exact enough for the
/// envelope (n <= 10^8); the loops repair any off-by-one.
std::int64_t BlockTarget(std::int64_t n) {
  if (n < 1) n = 1;
  std::int64_t target =
      static_cast<std::int64_t>(std::sqrt(static_cast<double>(n)));
  if (target < 1) target = 1;
  while (target * target < n) ++target;
  while (target > 1 && (target - 1) * (target - 1) >= n) --target;
  return std::max<std::int64_t>(target, 16);
}

/// The last key of the gap after key j of the m keys \p k, the one
/// after the last ending at \p last_hi.
inline Key GapEnd(const Key* k, std::size_t m, Key last_hi, std::size_t j) {
  return j + 1 < m ? k[j + 1] - 1 : last_hi;
}

/// KeyStore::FirstGap and LastGap over the m keys \p k.
std::size_t FirstGapOf(const Key* k, std::size_t m, Key last_hi,
                       std::size_t begin, std::size_t end) {
  if (GapEnd(k, m, last_hi, begin) > k[begin]) return begin;
  std::size_t lo = begin;
  std::size_t hi = end - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (GapEnd(k, m, last_hi, mid) - k[begin] ==
        static_cast<Key>(mid - begin)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}
std::size_t LastGapOf(const Key* k, std::size_t m, Key last_hi,
                      std::size_t begin, std::size_t end) {
  const Key end_hi = GapEnd(k, m, last_hi, end - 1);
  if (end_hi > k[end - 1]) return end - 1;
  std::size_t lo = begin;
  std::size_t hi = end - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (end_hi - k[mid] == static_cast<Key>(end - 1 - mid)) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  return lo;
}

}  // namespace

KeyStore::Totals KeyStore::Build(const std::vector<Key>& keys, Key shift,
                                 Key domain_hi, bool with_sa,
                                 ThreadPool* pool) {
  shift_ = shift;
  domain_hi_ = domain_hi;
  with_sa_ = with_sa;
  const auto n = static_cast<std::int64_t>(keys.size());
  const std::int64_t target = BlockTarget(n);
  cap_ = 2 * target;
  const std::int64_t num_blocks = (n + target - 1) / target;
  blocks_.assign(static_cast<std::size_t>(num_blocks), Block{});
  std::vector<Totals> part(static_cast<std::size_t>(num_blocks));
  // One block: copy its keys, count its gaps, fill its local suffix
  // sums and add up its exact partial aggregates (rank = index + 1).
  auto build = [&](std::int64_t bi) {
    const auto b = static_cast<std::size_t>(bi);
    const std::int64_t first = bi * target;
    const std::int64_t last = std::min(n, first + target);
    Block& blk = blocks_[b];
    blk.keys.assign(keys.begin() + first, keys.begin() + last);
    blk.count_before = first;
    const Key* k = blk.keys.data();
    const auto m = static_cast<std::size_t>(last - first);
    const Key hi_after = last < n
                             ? keys[static_cast<std::size_t>(last)] - 1
                             : domain_hi;
    std::int64_t gaps = k[m - 1] < hi_after ? 1 : 0;
    for (std::size_t j = 0; j + 1 < m; ++j) gaps += k[j] < k[j + 1] - 1;
    blk.gaps = gaps;
    if (gaps > 0) {
      blk.first_gap = FirstGapOf(k, m, hi_after, 0, m);
      blk.last_gap = LastGapOf(k, m, hi_after, 0, m);
    }
    Totals& t = part[b];
    if (with_sa) {
      // Shifted keys fit int64 inside the magnitude guard, so each
      // product is one 64x64 -> 128-bit multiply.
      t.sum = FillSuffixSums(&blk);
      for (std::size_t j = 0; j < m; ++j) {
        const std::int64_t x = k[j] - shift;
        t.sum2 += static_cast<Int128>(x) * x;
        t.sumr += static_cast<Int128>(x) *
                  (first + static_cast<std::int64_t>(j) + 1);
      }
    } else {
      for (std::size_t j = 0; j < m; ++j) {
        const Int128 x = static_cast<Int128>(k[j]) - shift;
        t.sum += x;
        t.sum2 += x * x;
        t.sumr += x * (first + static_cast<std::int64_t>(j) + 1);
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(num_blocks, build);
  } else {
    for (std::int64_t b = 0; b < num_blocks; ++b) build(b);
  }
  // Serial fold of the block partials: exact, and in a fixed order.
  Totals total;
  Int128 after = 0;
  for (std::size_t b = blocks_.size(); b > 0; --b) {
    blocks_[b - 1].sum_after = after;
    after += part[b - 1].sum;
  }
  for (const Totals& t : part) {
    total.sum += t.sum;
    total.sum2 += t.sum2;
    total.sumr += t.sumr;
  }
  return total;
}

std::int64_t KeyStore::FillSuffixSums(Block* blk) const {
  // Exact int64 under the magnitude guard: each value is bounded by
  // the whole suffix sum, which stays below 2^63.
  blk->sa_local.resize(blk->keys.size());
  std::int64_t acc = 0;
  for (std::size_t j = blk->keys.size(); j > 0; --j) {
    blk->sa_local[j - 1] = acc;
    acc += blk->keys[j - 1] - shift_;
  }
  return acc;
}

void KeyStore::SetSuffixSums(bool on) {
  if (on == with_sa_) return;
  with_sa_ = on;
  for (Block& b : blocks_) {
    if (on) {
      FillSuffixSums(&b);
    } else {
      std::vector<std::int64_t>().swap(b.sa_local);
    }
  }
}

KeyStore::Pos KeyStore::Locate(Key k) const {
  std::size_t lo = 0;
  std::size_t hi = blocks_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (blocks_[mid].keys.front() <= k) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  Pos p;
  p.block = lo == 0 ? 0 : lo - 1;
  const std::vector<Key>& keys = blocks_[p.block].keys;
  p.index = static_cast<std::size_t>(
      std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
  return p;
}

std::int64_t KeyStore::CountGaps(std::size_t b, std::size_t begin,
                                 std::size_t end) const {
  const std::vector<Key>& keys = blocks_[b].keys;
  std::int64_t gaps = 0;
  const std::size_t inner = std::min(end, keys.size() - 1);
  for (std::size_t i = begin; i < inner; ++i) {
    gaps += keys[i] < keys[i + 1] - 1;
  }
  if (begin < end && end == keys.size()) {
    gaps += keys.back() < GapHi(b, keys.size() - 1) ? 1 : 0;
  }
  return gaps;
}

std::size_t KeyStore::FirstGap(std::size_t b, std::size_t begin,
                               std::size_t end) const {
  const std::vector<Key>& keys = blocks_[b].keys;
  return FirstGapOf(keys.data(), keys.size(), GapHi(b, keys.size() - 1),
                    begin, end);
}

std::size_t KeyStore::LastGap(std::size_t b, std::size_t begin,
                              std::size_t end) const {
  const std::vector<Key>& keys = blocks_[b].keys;
  return LastGapOf(keys.data(), keys.size(), GapHi(b, keys.size() - 1),
                   begin, end);
}

void KeyStore::FindGapEnds(std::size_t b) {
  Block& blk = blocks_[b];
  if (blk.gaps == 0) return;
  blk.first_gap = FirstGap(b, 0, blk.keys.size());
  blk.last_gap = LastGap(b, 0, blk.keys.size());
}

std::int64_t KeyStore::gap_count() const {
  std::int64_t gaps = 0;
  for (const Block& b : blocks_) gaps += b.gaps;
  return gaps;
}

void KeyStore::Insert(Key k) {
  ++commits_;
  const Pos p = Locate(k);
  const std::size_t bi = p.block;
  const std::size_t pos = p.index;
  Block& b = blocks_[bi];
  const std::size_t m = b.keys.size();
  const Int128 x = static_cast<Int128>(k) - shift_;
  // k splits the gap after its predecessor, keys[pos - 1] (only a key
  // below the smallest one has none): the predecessor's gap empties when
  // k is adjacent, and k's own gap runs up to the old gap's end.
  const Key hi = pos < m ? b.keys[pos] - 1 : GapHi(bi, m - 1);
  b.gaps += (k < hi ? 1 : 0) - (pos > 0 && b.keys[pos - 1] == k - 1 ? 1 : 0);
  if (with_sa_) {
    // The new key's local suffix is the shifted sum of the block
    // entries after it, readable in O(1) from the neighbour's record.
    const auto xs = static_cast<std::int64_t>(x);
    const std::int64_t new_sal =
        pos < m ? b.sa_local[pos] + (b.keys[pos] - shift_) : 0;
    std::int64_t* sal = b.sa_local.data();
    for (std::size_t j = 0; j < pos; ++j) sal[j] += xs;
    b.sa_local.insert(b.sa_local.begin() + static_cast<std::ptrdiff_t>(pos),
                      new_sal);
  }
  b.keys.insert(b.keys.begin() + static_cast<std::ptrdiff_t>(pos), k);
  // Directory: earlier blocks gain k in their suffix sum, later blocks
  // gain one key below them. O(block_count) entries.
  for (std::size_t j = 0; j < bi; ++j) blocks_[j].sum_after += x;
  for (std::size_t j = bi + 1; j < blocks_.size(); ++j) {
    blocks_[j].count_before += 1;
  }
  touched_slots_ += static_cast<std::int64_t>(m + 1) +
                    static_cast<std::int64_t>(blocks_.size());
  FindGapEnds(bi);
  SplitIfNeeded(bi);
}

void KeyStore::Remove(Key k) {
  ++commits_;
  const Pos p = Locate(k);
  const std::size_t bi = p.block;
  const std::size_t pos = p.index;
  Block& b = blocks_[bi];
  const std::size_t m = b.keys.size();
  const Int128 x = static_cast<Int128>(k) - shift_;
  // k's own gap leaves with it; its predecessor's gap (keys[pos - 1],
  // or the previous block's last key) absorbs k's slot and gap, so it
  // is non-empty afterwards.
  b.gaps -= k < GapHi(bi, pos) ? 1 : 0;
  if (pos > 0) {
    b.gaps += b.keys[pos - 1] == k - 1 ? 1 : 0;
  } else if (bi > 0) {
    blocks_[bi - 1].gaps += blocks_[bi - 1].keys.back() == k - 1 ? 1 : 0;
  }
  if (with_sa_) {
    const auto xs = static_cast<std::int64_t>(x);
    std::int64_t* sal = b.sa_local.data();
    for (std::size_t j = 0; j < pos; ++j) sal[j] -= xs;
    b.sa_local.erase(b.sa_local.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  b.keys.erase(b.keys.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t j = 0; j < bi; ++j) blocks_[j].sum_after -= x;
  for (std::size_t j = bi + 1; j < blocks_.size(); ++j) {
    blocks_[j].count_before -= 1;
  }
  touched_slots_ += static_cast<std::int64_t>(m) +
                    static_cast<std::int64_t>(blocks_.size());
  if (b.keys.empty()) {
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(bi));
    touched_slots_ += static_cast<std::int64_t>(blocks_.size());
    if (bi > 0) FindGapEnds(bi - 1);
    return;
  }
  // The predecessor's gap grew: in this block, or the previous one's
  // last when k was this block's first key.
  FindGapEnds(bi);
  if (pos == 0 && bi > 0) FindGapEnds(bi - 1);
  MergeIfUnderflow(bi);
}

void KeyStore::SplitIfNeeded(std::size_t bi) {
  const std::size_t m = blocks_[bi].keys.size();
  if (static_cast<std::int64_t>(m) <= cap_) return;
  const std::size_t half = m / 2;
  Block right;
  {
    Block& b = blocks_[bi];
    // Every key keeps its successor, so the gap counts just divide.
    right.gaps = CountGaps(bi, half, m);
    b.gaps -= right.gaps;
    right.keys.assign(b.keys.begin() + static_cast<std::ptrdiff_t>(half),
                      b.keys.end());
    right.count_before = b.count_before + static_cast<std::int64_t>(half);
    right.sum_after = b.sum_after;
    // The departing right half's shifted sum: the left half's local
    // suffixes shed it, the left block's directory suffix gains it.
    Int128 right_sum = 0;
    if (with_sa_) {
      right.sa_local.assign(
          b.sa_local.begin() + static_cast<std::ptrdiff_t>(half),
          b.sa_local.end());
      const std::int64_t rs = b.sa_local[half - 1];
      b.sa_local.resize(half);
      for (std::int64_t& v : b.sa_local) v -= rs;
      right_sum = rs;
    } else {
      for (const Key k : right.keys) {
        right_sum += static_cast<Int128>(k) - shift_;
      }
    }
    b.sum_after += right_sum;
    b.keys.resize(half);
  }
  touched_slots_ += static_cast<std::int64_t>(m) +
                    static_cast<std::int64_t>(blocks_.size());
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                 std::move(right));
  FindGapEnds(bi);
  FindGapEnds(bi + 1);
}

void KeyStore::MergeIfUnderflow(std::size_t bi) {
  if (blocks_.size() <= 1) return;
  if (static_cast<std::int64_t>(blocks_[bi].keys.size()) * 4 >= cap_) return;
  // Merge with the right neighbour (left when bi is the last block);
  // a merge that overshoots the cap immediately re-splits balanced.
  std::size_t a = bi;
  std::size_t c = bi + 1;
  if (c == blocks_.size()) {
    a = bi - 1;
    c = bi;
  }
  Block& left = blocks_[a];
  Block& right = blocks_[c];
  const std::int64_t moved =
      static_cast<std::int64_t>(left.keys.size() + right.keys.size());
  if (with_sa_) {
    const std::int64_t right_sum =
        right.sa_local.front() + (right.keys.front() - shift_);
    for (std::int64_t& v : left.sa_local) v += right_sum;
    left.sa_local.insert(left.sa_local.end(), right.sa_local.begin(),
                         right.sa_local.end());
  }
  left.sum_after = right.sum_after;
  left.gaps += right.gaps;
  left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
  touched_slots_ += moved + static_cast<std::int64_t>(blocks_.size());
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(c));
  FindGapEnds(a);
  SplitIfNeeded(a);
}

}  // namespace lispoison
