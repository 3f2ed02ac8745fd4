#include "mbpta/eccdf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/rng.hpp"

namespace mbcr::mbpta {

namespace {

using Counted = std::vector<std::pair<double, std::size_t>>;

/// (value, count) for each distinct value of `xs`, ascending by value:
/// open addressing on the value bits (linear probing, load <= 1/2), then
/// one sort of the distinct keys.
Counted count_distinct(std::span<const double> xs) {
  struct Slot {
    std::uint64_t bits = 0;
    std::size_t count = 0;  ///< 0 marks an empty slot
  };
  std::vector<Slot> slots(1024);  // few collisions for cycle counts
  std::size_t used = 0;
  const auto home = [&slots](std::uint64_t bits) {
    return static_cast<std::size_t>(mix64(bits, 0)) & (slots.size() - 1);
  };
  for (double x : xs) {
    if (x == 0.0) x = 0.0;  // -0.0 and 0.0 compare equal: one key
    const auto bits = std::bit_cast<std::uint64_t>(x);
    std::size_t i = home(bits);
    while (slots[i].count != 0 && slots[i].bits != bits) {
      i = (i + 1) & (slots.size() - 1);
    }
    if (slots[i].count++ != 0) continue;
    slots[i].bits = bits;
    if (2 * ++used <= slots.size()) continue;
    std::vector<Slot> old(2 * slots.size());
    old.swap(slots);
    for (const Slot& s : old) {
      if (s.count == 0) continue;
      std::size_t j = home(s.bits);
      while (slots[j].count != 0) j = (j + 1) & (slots.size() - 1);
      slots[j] = s;
    }
  }
  Counted out;
  out.reserve(used);
  for (const Slot& s : slots) {
    if (s.count != 0) out.emplace_back(std::bit_cast<double>(s.bits), s.count);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

Eccdf::Eccdf(std::span<const double> sample) { add(sample); }

void Eccdf::add(std::span<const double> more) {
  if (more.empty()) return;
  const Counted fresh = count_distinct(more);
  std::vector<double> values;
  std::vector<std::size_t> cumulative;
  values.reserve(values_.size() + fresh.size());
  cumulative.reserve(values_.size() + fresh.size());
  // Merge the two ascending tables, adding the counts of shared values.
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t below = 0;  // cumulative_ before values_[i]
  std::size_t total = 0;
  while (i < values_.size() || j < fresh.size()) {
    const bool take_old =
        j == fresh.size() || (i < values_.size() && values_[i] <= fresh[j].first);
    const bool take_new =
        i == values_.size() || (j < fresh.size() && fresh[j].first <= values_[i]);
    values.push_back(take_old ? values_[i] : fresh[j].first);
    if (take_old) {
      total += cumulative_[i] - below;
      below = cumulative_[i++];
    }
    if (take_new) total += fresh[j++].second;
    cumulative.push_back(total);
  }
  values_ = std::move(values);
  cumulative_ = std::move(cumulative);
}

Eccdf Eccdf::minus(const Eccdf& part) const {
  Eccdf out;
  std::size_t j = 0;
  std::size_t below = 0;
  std::size_t part_below = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    std::size_t count = cumulative_[i] - below;
    below = cumulative_[i];
    if (j < part.values_.size() && part.values_[j] == values_[i]) {
      const std::size_t taken = part.cumulative_[j] - part_below;
      part_below = part.cumulative_[j++];
      if (taken > count) {
        throw std::invalid_argument("Eccdf::minus: part is not a sub-multiset");
      }
      count -= taken;
    }
    if (count == 0) continue;
    total += count;
    out.values_.push_back(values_[i]);
    out.cumulative_.push_back(total);
  }
  if (j != part.values_.size()) {
    throw std::invalid_argument("Eccdf::minus: part is not a sub-multiset");
  }
  return out;
}

std::size_t Eccdf::index_of_rank(std::size_t rank) const {
  return static_cast<std::size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), rank) -
      cumulative_.begin());
}

double Eccdf::at_rank(std::size_t rank) const {
  return values_[index_of_rank(rank)];
}

double Eccdf::exceedance_prob(double t) const {
  if (values_.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::upper_bound(values_.begin(), values_.end(), t) - values_.begin());
  const std::size_t at_or_below = idx == 0 ? 0 : cumulative_[idx - 1];
  return static_cast<double>(size() - at_or_below) /
         static_cast<double>(size());
}

double Eccdf::value_at_exceedance(double p) const {
  if (values_.empty()) return 0.0;
  const auto n = static_cast<double>(size());
  // Rank r such that (n - r)/n <= p, i.e. r >= n(1-p).
  auto rank = static_cast<std::size_t>(std::max(0.0, n * (1.0 - p)));
  if (rank >= size()) rank = size() - 1;
  return at_rank(rank);
}

double Eccdf::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (size() == 1) return values_[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const double lo_value = at_rank(lo);
  return lo_value + frac * (at_rank(hi) - lo_value);
}

std::vector<std::pair<double, double>> Eccdf::curve(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (values_.empty() || max_points == 0) return out;
  const std::size_t stride = std::max<std::size_t>(1, size() / max_points);
  const auto n = static_cast<double>(size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < size(); i += stride) {
    while (cumulative_[j] <= i) ++j;
    out.emplace_back(values_[j], (n - static_cast<double>(i) - 1.0) / n);
  }
  if (out.back().first != values_.back()) {
    out.emplace_back(values_.back(), 0.0);
  }
  return out;
}

double ks_statistic(const Eccdf& a, const Eccdf& b) {
  if (a.size() == 0 || b.size() == 0) return 0.0;
  const std::vector<double>& va = a.values();
  const std::vector<double>& vb = b.values();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t below_a = 0;
  std::size_t below_b = 0;
  double d = 0.0;
  while (i < va.size() && j < vb.size()) {
    const double x = std::min(va[i], vb[j]);
    if (va[i] <= x) below_a = a.cumulative()[i++];
    if (vb[j] <= x) below_b = b.cumulative()[j++];
    const double fa =
        static_cast<double>(below_a) / static_cast<double>(a.size());
    const double fb =
        static_cast<double>(below_b) / static_cast<double>(b.size());
    d = std::max(d, std::abs(fa - fb));
  }
  return d;
}

}  // namespace mbcr::mbpta
