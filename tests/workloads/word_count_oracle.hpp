// Reference word counter for the wiki workload's word-frequency functions.
//
// This is the straightforward implementation the workload shipped with:
// tokenize into owned strings, count in an unordered_map, stable_sort the
// first-seen order by count. It allocates per word and sorts with two hash
// lookups per comparison, so the library replaced it with a single-pass
// string_view counter (src/workloads/wiki.cpp); it lives on here only as
// the oracle that counter is checked against.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace aggspes::wiki::oracle {

/// Splits on single spaces, skipping empty tokens.
inline std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> words;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find(' ', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) words.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return words;
}

/// The k most frequent words, most frequent first (ties: first seen).
inline std::vector<std::string> top_k_words(const std::string& text, int k) {
  const auto words = tokenize(text);
  std::unordered_map<std::string, int> counts;
  std::vector<const std::string*> order;  // first-seen order for tie-breaks
  counts.reserve(words.size() * 2);
  for (const auto& w : words) {
    if (++counts[w] == 1) order.push_back(&w);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const std::string* a, const std::string* b) {
                     return counts[*a] > counts[*b];
                   });
  std::vector<std::string> top;
  const auto n = std::min<std::size_t>(static_cast<std::size_t>(k),
                                       order.size());
  top.reserve(n);
  for (std::size_t i = 0; i < n; ++i) top.push_back(*order[i]);
  return top;
}

/// The most frequent word (ties: first seen). Empty text -> "".
inline std::string most_frequent_word(const std::string& text) {
  auto top = top_k_words(text, 1);
  return top.empty() ? std::string{} : top.front();
}

}  // namespace aggspes::wiki::oracle
