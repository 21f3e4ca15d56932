// Dynamic bit set used to represent sets of interned interface names.
//
// Property alphabets are small (a handful to a few hundred names), so the
// set is a flat vector of 64-bit words with value semantics.  All set
// operations used by the monitors (membership, union, intersection test,
// iteration) are O(words).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace loom::support {

class Bitset {
 public:
  Bitset() = default;
  /// Creates an empty set able to hold values in [0, capacity).
  explicit Bitset(std::size_t capacity) { resize(capacity); }

  /// Grows (never shrinks) the capacity to at least `capacity` values.
  void resize(std::size_t capacity);

  std::size_t capacity() const { return words_.size() * kBits; }

  // Inline: the reference walk and the mutation-site scan test per event.
  void set(std::size_t i) {
    if (i >= capacity()) resize(i + 1);
    words_[i / kBits] |= std::uint64_t{1} << (i % kBits);
  }
  void reset(std::size_t i) {
    if (i >= capacity()) return;
    words_[i / kBits] &= ~(std::uint64_t{1} << (i % kBits));
  }
  bool test(std::size_t i) const {
    if (i >= capacity()) return false;
    return (words_[i / kBits] >> (i % kBits)) & 1u;
  }

  /// True when no bit is set.
  bool empty() const;
  /// Number of set bits.
  std::size_t count() const;

  void clear();

  Bitset& operator|=(const Bitset& other);
  Bitset& operator&=(const Bitset& other);
  /// Removes every element of `other` from this set.
  Bitset& subtract(const Bitset& other);

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }

  bool operator==(const Bitset& other) const;

  /// True when the two sets share at least one element.
  bool intersects(const Bitset& other) const;
  /// True when every element of this set is in `other`.
  bool is_subset_of(const Bitset& other) const;

  /// Index of the lowest set bit, or npos when empty.
  std::size_t first() const;
  /// Index of the lowest set bit strictly greater than `i`, or npos.
  std::size_t next(std::size_t i) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Calls `fn(index)` for each set bit in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * kBits + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Debug rendering such as "{1, 4, 7}".
  std::string to_string() const;

 private:
  static constexpr std::size_t kBits = 64;
  std::vector<std::uint64_t> words_;
};

}  // namespace loom::support
