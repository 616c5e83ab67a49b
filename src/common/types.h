// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// Fundamental scalar types shared across the library.

#ifndef LISPOISON_COMMON_TYPES_H_
#define LISPOISON_COMMON_TYPES_H_

#include <cstdint>

namespace lispoison {

/// \brief An index key. The paper assumes keys are non-negative integers so
/// a total order is always available; we use a signed 64-bit carrier so key
/// arithmetic (gaps, midpoints) never wraps for the domains studied.
using Key = std::int64_t;

/// \brief A rank, i.e. the 1-based position of a key in the sorted keyset.
/// The regression target: the (non-normalized) CDF maps key -> rank.
using Rank = std::int64_t;

/// \brief Exact wide integer used for key aggregates (sum of k, k^2, k*r).
///
/// Scale envelope (pinned by tests/overflow_envelope_test.cc): with
/// n <= 10^8 keys shifted into a span S = hi - lo, the aggregates reach
/// sum(k) <= n*S, sum(k*r) <= n^2*S and sum(k^2) <= n*S^2 — e.g.
/// ~10^26 for n = 10^8 over a 10^9 domain, far past int64 (~9.2*10^18)
/// but comfortably inside 128 bits (~1.7*10^38). Narrower carriers must
/// never reappear on these paths. The one deliberately 64-bit structure,
/// the key store's block-local suffix sums, is guarded by
/// LossLandscape::PruneDomainOk (n < 2^31, n*S < 2^63, S < 2^126/n^3)
/// and falls back to exact Int128 scans outside that envelope.
using Int128 = __int128;

/// \brief Converts an exact 128-bit aggregate to long double for the final
/// floating-point loss computation.
inline long double ToLongDouble(Int128 v) { return static_cast<long double>(v); }

}  // namespace lispoison

#endif  // LISPOISON_COMMON_TYPES_H_
