#include "support/bitset.hpp"

#include <algorithm>
#include <bit>

namespace loom::support {

void Bitset::resize(std::size_t capacity) {
  const std::size_t words = (capacity + kBits - 1) / kBits;
  if (words > words_.size()) words_.resize(words, 0);
}

bool Bitset::empty() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t Bitset::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void Bitset::clear() { std::fill(words_.begin(), words_.end(), 0); }

Bitset& Bitset::operator|=(const Bitset& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
  for (std::size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= i < other.words_.size() ? other.words_[i] : 0;
  }
  return *this;
}

Bitset& Bitset::subtract(const Bitset& other) {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool Bitset::operator==(const Bitset& other) const {
  const std::size_t n = std::max(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < words_.size() ? words_[i] : 0;
    const std::uint64_t b = i < other.words_.size() ? other.words_[i] : 0;
    if (a != b) return false;
  }
  return true;
}

bool Bitset::intersects(const Bitset& other) const {
  const std::size_t n = std::min(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool Bitset::is_subset_of(const Bitset& other) const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t b = i < other.words_.size() ? other.words_[i] : 0;
    if ((words_[i] & ~b) != 0) return false;
  }
  return true;
}

std::size_t Bitset::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return npos;
}

std::size_t Bitset::next(std::size_t i) const {
  ++i;
  if (i >= capacity()) return npos;
  std::size_t w = i / kBits;
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i % kBits));
  while (true) {
    if (word != 0) {
      return w * kBits + static_cast<std::size_t>(std::countr_zero(word));
    }
    if (++w >= words_.size()) return npos;
    word = words_[w];
  }
}

std::string Bitset::to_string() const {
  std::string out = "{";
  bool sep = false;
  for_each([&](std::size_t i) {
    if (sep) out += ", ";
    out += std::to_string(i);
    sep = true;
  });
  out += "}";
  return out;
}

}  // namespace loom::support
