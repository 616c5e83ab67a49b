#include "attack/removal_soa.h"

#include <algorithm>
#include <cmath>

namespace lispoison {

void RemovalSoa::Clear() {
  // Maintenance counters survive a Clear on purpose: the magnitude
  // guard can drop and rebuild the SoA mid-attack, and the sublinearity
  // gate wants the whole attack's commit cost, not the last epoch's.
  blocks_.clear();
  total_ = 0;
  built_ = false;
  with_sa_ = false;
}

void RemovalSoa::StartBuild(std::int64_t expected_n, bool with_sa,
                            Key shift) {
  Clear();
  with_sa_ = with_sa;
  shift_ = shift;
  const std::int64_t n = expected_n > 0 ? expected_n : 1;
  // ceil(sqrt(n)), floored at 16 so tiny keysets stay one block. The
  // double sqrt is exact enough for the envelope (n <= 10^8); the loop
  // repairs any off-by-one.
  std::int64_t target =
      static_cast<std::int64_t>(std::sqrt(static_cast<double>(n)));
  if (target < 1) target = 1;
  while (target * target < n) ++target;
  while (target > 1 && (target - 1) * (target - 1) >= n) --target;
  if (target < 16) target = 16;
  target_ = target;
  cap_ = 2 * target;
}

void RemovalSoa::AppendSorted(Key k) {
  if (blocks_.empty() ||
      static_cast<std::int64_t>(blocks_.back().keys.size()) >= target_) {
    blocks_.emplace_back();
    blocks_.back().keys.reserve(static_cast<std::size_t>(target_));
  }
  blocks_.back().keys.push_back(k);
  ++total_;
}

void RemovalSoa::FinishBuild() {
  std::int64_t cb = 0;
  for (Block& b : blocks_) {
    b.count_before = cb;
    cb += static_cast<std::int64_t>(b.keys.size());
  }
  if (with_sa_) {
    // Backward pass: block-local suffix sums plus the running shifted
    // sum of everything to the right. Exact int64 under the magnitude
    // guard (each value is bounded by the full suffix sum < 2^63).
    std::int64_t after = 0;
    for (std::size_t bi = blocks_.size(); bi > 0; --bi) {
      Block& b = blocks_[bi - 1];
      b.sum_after = after;
      b.sa_local.resize(b.keys.size());
      std::int64_t acc = 0;
      for (std::size_t j = b.keys.size(); j > 0; --j) {
        b.sa_local[j - 1] = acc;
        acc += b.keys[j - 1] - shift_;
      }
      after += acc;
    }
  }
  built_ = true;
}

std::size_t RemovalSoa::FindBlock(Key k) const {
  // Last block whose first key is <= k (clamped to the first block):
  // keys below every block front still belong to block 0.
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
  return lo == 0 ? 0 : lo - 1;
}

void RemovalSoa::Insert(Key k, std::int64_t x) {
  ++commits_;
  if (blocks_.empty()) {
    blocks_.emplace_back();
    blocks_.back().keys.push_back(k);
    if (with_sa_) blocks_.back().sa_local.push_back(0);
    total_ = 1;
    touched_slots_ += 1;
    return;
  }
  const std::size_t bi = FindBlock(k);
  Block& b = blocks_[bi];
  const std::size_t m = b.keys.size();
  const auto pos_it = std::lower_bound(b.keys.begin(), b.keys.end(), k);
  const std::size_t pos = static_cast<std::size_t>(pos_it - b.keys.begin());
  if (with_sa_) {
    // The new key's local suffix is the shifted sum of the block
    // entries after it — readable in O(1) from the neighbour's record.
    const std::int64_t new_sal =
        pos < m ? b.sa_local[pos] + (b.keys[pos] - shift_) : 0;
    std::int64_t* sal = b.sa_local.data();
    for (std::size_t j = 0; j < pos; ++j) sal[j] += x;
    b.sa_local.insert(b.sa_local.begin() + static_cast<std::ptrdiff_t>(pos),
                      new_sal);
  }
  b.keys.insert(pos_it, k);
  total_ += 1;
  // Tier-relative directory: earlier blocks gain k in their suffix sum,
  // later blocks gain one key below them. O(block_count) scalars.
  if (with_sa_) {
    for (std::size_t j = 0; j < bi; ++j) blocks_[j].sum_after += x;
  }
  for (std::size_t j = bi + 1; j < blocks_.size(); ++j) {
    blocks_[j].count_before += 1;
  }
  touched_slots_ += static_cast<std::int64_t>(m + 1) +
                    static_cast<std::int64_t>(blocks_.size());
  SplitIfNeeded(bi);
}

void RemovalSoa::Remove(Key k, std::int64_t x) {
  ++commits_;
  const std::size_t bi = FindBlock(k);
  Block& b = blocks_[bi];
  const std::size_t m = b.keys.size();
  const auto pos_it = std::lower_bound(b.keys.begin(), b.keys.end(), k);
  const std::size_t pos = static_cast<std::size_t>(pos_it - b.keys.begin());
  if (with_sa_) {
    std::int64_t* sal = b.sa_local.data();
    for (std::size_t j = 0; j < pos; ++j) sal[j] -= x;
    b.sa_local.erase(b.sa_local.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  b.keys.erase(pos_it);
  total_ -= 1;
  if (with_sa_) {
    for (std::size_t j = 0; j < bi; ++j) blocks_[j].sum_after -= x;
  }
  for (std::size_t j = bi + 1; j < blocks_.size(); ++j) {
    blocks_[j].count_before -= 1;
  }
  touched_slots_ += static_cast<std::int64_t>(m) +
                    static_cast<std::int64_t>(blocks_.size());
  if (b.keys.empty()) {
    blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(bi));
    touched_slots_ += static_cast<std::int64_t>(blocks_.size());
    return;
  }
  MergeIfUnderflow(bi);
}

void RemovalSoa::SplitIfNeeded(std::size_t bi) {
  const std::int64_t m = static_cast<std::int64_t>(blocks_[bi].keys.size());
  if (m <= cap_) return;
  const std::size_t half = blocks_[bi].keys.size() / 2;
  Block right;
  {
    Block& b = blocks_[bi];
    right.keys.assign(b.keys.begin() + static_cast<std::ptrdiff_t>(half),
                      b.keys.end());
    right.count_before = b.count_before + static_cast<std::int64_t>(half);
    if (with_sa_) {
      right.sa_local.assign(
          b.sa_local.begin() + static_cast<std::ptrdiff_t>(half),
          b.sa_local.end());
      // Shifted sum of the departing right half: the left half's local
      // suffixes shed it, the left block's tier suffix gains it.
      const std::int64_t right_sum = b.sa_local[half - 1];
      b.sa_local.resize(half);
      for (std::int64_t& v : b.sa_local) v -= right_sum;
      right.sum_after = b.sum_after;
      b.sum_after += right_sum;
    }
    b.keys.resize(half);
  }
  touched_slots_ += m + static_cast<std::int64_t>(blocks_.size());
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                 std::move(right));
}

void RemovalSoa::MergeIfUnderflow(std::size_t bi) {
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
    left.sum_after = right.sum_after;
  }
  left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
  touched_slots_ += moved + static_cast<std::int64_t>(blocks_.size());
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(c));
  SplitIfNeeded(a);
}

void RemovalSoa::FlattenTo(std::vector<Key>* keys,
                           std::vector<std::int64_t>* sa) const {
  if (keys != nullptr) {
    keys->clear();
    keys->reserve(static_cast<std::size_t>(total_));
    for (const Block& b : blocks_) {
      keys->insert(keys->end(), b.keys.begin(), b.keys.end());
    }
  }
  if (sa != nullptr && with_sa_) {
    sa->clear();
    sa->reserve(static_cast<std::size_t>(total_));
    for (const Block& b : blocks_) {
      for (std::size_t j = 0; j < b.sa_local.size(); ++j) {
        sa->push_back(b.sa_local[j] + b.sum_after);
      }
    }
  }
}

}  // namespace lispoison
