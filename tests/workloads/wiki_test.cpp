// Tests for the synthetic Wikipedia-edit workload.
#include "workloads/wiki.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "word_count_oracle.hpp"

namespace aggspes::wiki {
namespace {

TEST(Tokenize, SplitsOnSpaces) {
  auto w = oracle::tokenize("alpha beta gamma");
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], "alpha");
  EXPECT_EQ(w[2], "gamma");
}

TEST(Tokenize, EmptyAndSingle) {
  EXPECT_TRUE(oracle::tokenize("").empty());
  EXPECT_EQ(oracle::tokenize("word").size(), 1u);
}

TEST(MostFrequentWord, PicksTheMode) {
  EXPECT_EQ(most_frequent_word("a b a c a b"), "a");
}

TEST(MostFrequentWord, TieBreaksFirstSeen) {
  EXPECT_EQ(most_frequent_word("x y x y z"), "x");
}

TEST(MostFrequentWord, EmptyText) {
  EXPECT_EQ(most_frequent_word(""), "");
}

TEST(TopKWords, OrderedByFrequencyThenFirstSeen) {
  auto top = top_k_words("b a a c b a", 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], "a");  // 3 occurrences
  EXPECT_EQ(top[1], "b");  // 2, seen before c
  EXPECT_EQ(top[2], "c");
}

TEST(TopKWords, FewerDistinctThanK) {
  auto top = top_k_words("a a a", 3);
  EXPECT_EQ(top.size(), 1u);
}

// --- The single-pass counter against the reference implementation ------

/// Both word-frequency functions must match the oracle on `text`, for
/// every k from 0 to one past the number of distinct words (capped).
void expect_matches_oracle(const std::string& text, int max_k = 4) {
  EXPECT_EQ(most_frequent_word(text), oracle::most_frequent_word(text))
      << "text: '" << text << "'";
  for (int k = 0; k <= max_k; ++k) {
    EXPECT_EQ(top_k_words(text, k), oracle::top_k_words(text, k))
        << "k=" << k << " text: '" << text << "'";
  }
}

TEST(WordCounterDifferential, EdgeCases) {
  for (const char* text :
       {"", " ", "     ", "a", "a  b", "  a b", "a b  ", " a  a   b ",
        "c b a", "x y z x y z", "a b c d e f g", "b a a c b a",
        "aa a aa a", "ab ba ab ba", "word word word"}) {
    expect_matches_oracle(text, /*max_k=*/10);  // k > distinct words too
  }
}

TEST(WordCounterDifferential, AllTiedKeepsFirstSeenOrder) {
  EXPECT_EQ(top_k_words("d c b a", 4),
            (std::vector<std::string>{"d", "c", "b", "a"}));
  EXPECT_EQ(most_frequent_word("q p p q"), "q");
  EXPECT_EQ(top_k_words("a b", 5).size(), 2u);
}

TEST(WordCounterDifferential, MatchesOracleOnGeneratedStreams) {
  constexpr std::uint64_t kEdits = 20000;
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    WikiGenerator g(seed);
    for (std::uint64_t i = 0; i < kEdits; ++i) {
      const WikiEdit e = g.make(i);
      for (const std::string* field : {&e.orig, &e.change, &e.updated}) {
        // The oracle's most frequent word is its top-3's head (one sort
        // serves both checks; the edge cases above call it directly).
        const auto want = oracle::top_k_words(*field, 3);
        ASSERT_EQ(top_k_words(*field, 3), want)
            << "seed " << seed << " edit " << i << ": '" << *field << "'";
        ASSERT_EQ(most_frequent_word(*field),
                  want.empty() ? std::string{} : want.front())
            << "seed " << seed << " edit " << i << ": '" << *field << "'";
      }
    }
  }
}

TEST(WordCounterDifferential, LongTextStaysLinear) {
  // 10k words, mostly distinct (the case a quadratic counter pays most
  // for), with a few repeats so the ranking is not trivially first-seen.
  std::string text;
  for (int i = 0; i < 10000; ++i) {
    if (i) text.push_back(' ');
    text += "w" + std::to_string(i % 3 == 0 ? i % 97 : i);
  }
  expect_matches_oracle(text, /*max_k=*/5);
  EXPECT_EQ(top_k_words(text, 20000), oracle::top_k_words(text, 20000));
  // Best of three runs: a linear counter needs well under a millisecond
  // here even under sanitizers; a quadratic one (~5e7 word compares)
  // needs far more than the bound.
  double best_ms = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto top = top_k_words(text, 3);
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_EQ(top.size(), 3u);
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  EXPECT_LT(best_ms, 100.0);
}

TEST(WordCount, CountsWords) {
  EXPECT_EQ(word_count(""), 0);
  EXPECT_EQ(word_count("one"), 1);
  EXPECT_EQ(word_count("one two three"), 3);
}

TEST(EqualsIgnoreCase, Works) {
  EXPECT_TRUE(equals_ignore_case("AbC", "abc"));
  EXPECT_FALSE(equals_ignore_case("abc", "abd"));
  EXPECT_FALSE(equals_ignore_case("abc", "abcd"));
}

TEST(WikiGenerator, DeterministicPerSeedAndIndex) {
  WikiGenerator g1(7), g2(7), g3(8);
  EXPECT_EQ(g1.make(5), g2.make(5));
  EXPECT_NE(g1.make(5), g3.make(5));
  EXPECT_NE(g1.make(5), g1.make(6));
}

TEST(WikiGenerator, ShapeIsPlausible) {
  WikiGenerator g(1);
  for (std::uint64_t i = 0; i < 50; ++i) {
    WikiEdit e = g.make(i);
    const int orig_words = word_count(e.orig);
    EXPECT_GE(orig_words, 5);
    EXPECT_LE(orig_words, 34);
    EXPECT_GE(word_count(e.change), 1);
    EXPECT_LE(word_count(e.change), 6);
    // updated = orig + change
    EXPECT_EQ(word_count(e.updated), orig_words + word_count(e.change));
  }
}

TEST(WikiGenerator, FrequentWordsAreShort) {
  // The tuning lever behind LLF's low selectivity: the most frequent word
  // of a sentence is rarely longer than 10 characters.
  WikiGenerator g(2);
  int long_mfw = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (most_frequent_word(g.make(std::uint64_t(i)).orig).size() > 10) {
      ++long_mfw;
    }
  }
  // Low but not (necessarily) zero; Table 1 nominal is ~5e-3.
  EXPECT_LT(long_mfw, n / 20);
}

}  // namespace
}  // namespace aggspes::wiki
