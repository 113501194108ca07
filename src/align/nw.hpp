// Needleman–Wunsch global alignment: the low-level computational kernel
// (the "multilingual approach" of Section 2.1 — computationally intensive
// components in low-level code).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "runtime/machine.hpp"

namespace motif::align {

struct NWParams {
  std::int32_t match = 2;
  std::int32_t mismatch = -1;
  std::int32_t gap = -2;
};

struct NWResult {
  std::int32_t score = 0;
  std::string aligned_a;  // with '-' gap characters
  std::string aligned_b;
};

/// Global pairwise alignment with linear gap penalty.
NWResult needleman_wunsch(const std::string& a, const std::string& b,
                          const NWParams& params = {});

/// Score only (no traceback; O(min) memory).
std::int32_t nw_score(const std::string& a, const std::string& b,
                      const NWParams& params = {});

/// Parallel NW score via the wavefront motif: the caller runs the DP's
/// tiles and idle processors of `m` help with them. Identical result to
/// nw_score; this is the case-study kernel as a grid-problem motif client.
std::int32_t nw_score_wavefront(rt::Machine& m, const std::string& a,
                                const std::string& b,
                                const NWParams& params = {});

/// Distance in [0,1] from a 3-mer frequency profile comparison — the
/// cheap guide-tree distance (the full NW distance is quadratic and only
/// needed for small inputs).
double kmer_distance(const std::string& a, const std::string& b);

}  // namespace motif::align
