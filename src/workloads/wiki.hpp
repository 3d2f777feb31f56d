// Synthetic Wikipedia atomic-edit workload.
//
// The paper's server-side experiments (Table 1, upper-case IDs) process the
// WikiAtomicEdits corpus: tuples ⟨τ, orig, change, updated⟩ analysed with
// word-frequency functions. The corpus is not redistributable here, so this
// module generates statistically similar edits — Zipf-distributed words,
// tunable word-length distribution — so that per-tuple CPU cost and the
// Table 1 selectivities are reproduced (validated by
// bench_table1_selectivity). See DESIGN.md § 5 for the substitution note.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hashing.hpp"

namespace aggspes::wiki {

/// One atomic edit: the original sentence, the inserted text, and the
/// resulting sentence.
struct WikiEdit {
  std::string orig;
  std::string change;
  std::string updated;

  friend bool operator==(const WikiEdit&, const WikiEdit&) = default;
};

/// Deterministic, seeded generator of WikiEdit tuples.
class WikiGenerator {
 public:
  explicit WikiGenerator(std::uint64_t seed);

  /// Edit for generation index i (stateless in i: reproducible streams).
  WikiEdit make(std::uint64_t i) const;

 private:
  std::vector<std::string> vocabulary_;
  std::uint64_t seed_;
};

// Words are the maximal runs of non-space characters of a text (split on
// ' ', empty tokens skipped). Both word-frequency functions below share one
// counter: a single pass over the text's characters into a per-thread
// open-addressing table of string_views — no allocation per word, O(n) on
// any text length. Per edit, over a 20k-edit stream (-O2 -g, g++ 12.2,
// 4-vCPU x86-64): f_FM of AHF (three most_frequent_word calls) costs
// 1.8 us, down from 13.4 us with the former tokenize + unordered_map +
// stable_sort counter; ALF 0.6 < AHF 1.8 and HLF 1.0 < HHF 2.4 us keep
// Table 1's cost classes in order (DESIGN.md § 5).

/// The most frequent word in `text` (ties: first seen). Empty text -> "".
/// The k = 1 case of top_k_words.
std::string most_frequent_word(const std::string& text);

/// The k most frequent words, most frequent first (ties: first seen).
std::vector<std::string> top_k_words(const std::string& text, int k);

/// Number of words in `text`.
int word_count(const std::string& text);

/// Case-insensitive string equality.
bool equals_ignore_case(const std::string& a, const std::string& b);

}  // namespace aggspes::wiki

namespace std {
template <>
struct hash<aggspes::wiki::WikiEdit> {
  size_t operator()(const aggspes::wiki::WikiEdit& e) const {
    return aggspes::hash_values(e.orig, e.change, e.updated);
  }
};
}  // namespace std
