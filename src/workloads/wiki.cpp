#include "workloads/wiki.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <span>
#include <string_view>

namespace aggspes::wiki {
namespace {

// SplitMix64: tiny, high-quality mixer for stateless per-index randomness.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Cheap per-tuple RNG.
class Rand {
 public:
  explicit Rand(std::uint64_t s) : s_(s) {}
  std::uint64_t next() { return s_ = splitmix64(s_); }
  std::uint64_t uniform(std::uint64_t n) { return next() % n; }
  double real() {
    return static_cast<double>(next() >> 11) / 9007199254740992.0;
  }

 private:
  std::uint64_t s_;
};

constexpr std::size_t kVocabulary = 1500;
// Ranks below this are "frequent" words and kept short, so the most
// frequent word of a sentence is rarely longer than 10 characters — the
// lever behind LLF/LHF's low selectivities (Table 1).
constexpr std::size_t kFrequentRanks = 120;

std::string make_word(std::size_t rank) {
  Rand r(splitmix64(rank * 2654435761ULL + 17));
  const std::size_t len = rank < kFrequentRanks
                              ? 3 + r.uniform(5)    // 3-7 chars
                              : 4 + r.uniform(9);   // 4-12 chars
  std::string w;
  w.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    w.push_back(static_cast<char>('a' + r.uniform(26)));
  }
  return w;
}

}  // namespace

WikiGenerator::WikiGenerator(std::uint64_t seed) : seed_(seed) {
  vocabulary_.reserve(kVocabulary);
  for (std::size_t rank = 0; rank < kVocabulary; ++rank) {
    vocabulary_.push_back(make_word(rank));
  }
}

WikiEdit WikiGenerator::make(std::uint64_t i) const {
  Rand r(splitmix64(seed_ ^ (i * 0x9e3779b97f4a7c15ULL)));
  // Zipf-like rank sampling: log-uniform over [0, V) gives P(rank) ~ 1/rank.
  auto zipf = [&]() -> std::size_t {
    const double u = r.real();
    auto rank = static_cast<std::size_t>(
        std::exp(u * std::log(static_cast<double>(kVocabulary))) - 1.0);
    return std::min(rank, kVocabulary - 1);
  };
  auto sentence = [&](std::size_t words) {
    std::string s;
    s.reserve(words * 7);
    for (std::size_t w = 0; w < words; ++w) {
      if (w) s.push_back(' ');
      s += vocabulary_[zipf()];
    }
    return s;
  };
  WikiEdit e;
  e.orig = sentence(5 + r.uniform(30));  // 5-34 words (~30-215 chars)
  e.change = sentence(1 + r.uniform(6));  // 1-6 words
  e.updated = e.orig + " " + e.change;
  return e;
}

namespace {

/// Counts the space-separated words of one text in a single pass over its
/// characters. Words are string_views into the text; the table and the
/// distinct-word list are per-thread scratch that only ever grows, so a
/// call allocates nothing once the thread has seen a text that long.
/// Open addressing with linear probing keeps every probe O(1) expected, so
/// the pass stays O(n) however long the text is.
class WordCounter {
 public:
  struct Word {
    std::string_view text;
    std::uint32_t count;
    std::uint32_t first;  ///< first-seen rank: the tie-break
    std::uint32_t slot;   ///< its table slot, emptied by the next count()
  };

  /// Distinct words of `text` in first-seen order, with their counts.
  /// Valid until the next count().
  std::vector<Word>& count(std::string_view text) {
    clear();
    // A text of n characters holds at most n / 2 + 1 words; twice that
    // many slots keeps the load factor at or below one half.
    const std::size_t need = text.size() + 2;
    if (slots_.size() < need) {
      std::size_t cap = 16;
      while (cap < need) cap <<= 1;
      slots_.assign(cap, kEmpty);
    }
    const std::size_t mask = slots_.size() - 1;
    const char* const data = text.data();
    const std::size_t n = text.size();
    std::size_t i = 0;
    while (i < n) {
      if (data[i] == ' ') {
        ++i;
        continue;
      }
      const std::size_t start = i;
      std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (; i < n && data[i] != ' '; ++i) {
        h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
      }
      const std::string_view w(data + start, i - start);
      std::size_t s = static_cast<std::size_t>(h ^ (h >> 29)) & mask;
      while (true) {
        const std::uint32_t at = slots_[s];
        if (at == kEmpty) {
          slots_[s] = static_cast<std::uint32_t>(words_.size());
          words_.push_back({w, 1, static_cast<std::uint32_t>(words_.size()),
                            static_cast<std::uint32_t>(s)});
          break;
        }
        if (words_[at].text == w) {
          ++words_[at].count;
          break;
        }
        s = (s + 1) & mask;
      }
    }
    return words_;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  void clear() {
    for (const Word& w : words_) slots_[w.slot] = kEmpty;
    words_.clear();
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Word> words_;
};

/// The min(k, distinct) most frequent words of `text`, most frequent first
/// (ties: first seen). Views into the calling thread's counter: valid until
/// its next call.
std::span<const WordCounter::Word> rank_words(const std::string& text,
                                              int k) {
  thread_local WordCounter counter;
  auto& words = counter.count(text);
  const auto n = static_cast<std::ptrdiff_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k), words.size()));
  std::partial_sort(words.begin(), words.begin() + n, words.end(),
                    [](const WordCounter::Word& a, const WordCounter::Word& b) {
                      return a.count != b.count ? a.count > b.count
                                                : a.first < b.first;
                    });
  return {words.data(), static_cast<std::size_t>(n)};
}

}  // namespace

std::string most_frequent_word(const std::string& text) {
  const auto top = rank_words(text, 1);
  return top.empty() ? std::string{} : std::string(top.front().text);
}

std::vector<std::string> top_k_words(const std::string& text, int k) {
  const auto top = rank_words(text, k);
  std::vector<std::string> out;
  out.reserve(top.size());
  for (const auto& w : top) out.emplace_back(w.text);
  return out;
}

int word_count(const std::string& text) {
  if (text.empty()) return 0;
  int n = 1;
  for (char c : text) n += (c == ' ');
  return n;
}

bool equals_ignore_case(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace aggspes::wiki
