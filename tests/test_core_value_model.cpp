// Generative equivalence of AttributeSet against a std::map reference
// model: iteration order, encode() bytes, round trips, last-wins decode of
// out-of-order or repeated wire names and first-wins initializer lists
// must all match what a std::map<std::string, AttributeValue> gives.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/value.hpp"
#include "math/rng.hpp"
#include "net/wire.hpp"

namespace cod::core {
namespace {

using Model = std::map<std::string, AttributeValue>;
using Entries = std::vector<std::pair<std::string, AttributeValue>>;

std::string randomBytes(math::Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  // Full byte range: ordering must agree on bytes >= 0x80 too.
  for (char& c : s) c = static_cast<char>(rng.uniformInt(0, 255));
  return s;
}

/// Names from a small alphabet so duplicates and shared prefixes are
/// common; a third are longer than 15 chars (past the small-string
/// buffer) and a few carry high bytes.
std::string randomName(math::Rng& rng) {
  if (rng.chance(0.05)) return randomBytes(rng, rng.uniformInt(1, 20));
  const std::size_t len = rng.chance(0.33) ? rng.uniformInt(16, 40)
                                           : rng.uniformInt(1, 3);
  std::string s(len, 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.uniformInt(0, 2));
  return s;
}

AttributeValue randomValue(math::Rng& rng) {
  switch (rng.uniformInt(0, 5)) {
    case 0: return AttributeValue(rng.chance(0.5));
    case 1: return AttributeValue(static_cast<std::int64_t>(rng.next()));
    case 2: return AttributeValue(rng.uniform(-1e6, 1e6));
    case 3: return AttributeValue(randomBytes(rng, rng.uniformInt(0, 40)));
    case 4:
      return AttributeValue(math::Vec3{rng.normal(), rng.normal(), rng.normal()});
    default: {
      std::vector<std::uint8_t> b(rng.uniformInt(0, 64));
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
      return AttributeValue(std::move(b));
    }
  }
}

/// The wire layout written independently of AttributeSet: u16 count, then
/// name and tagged value per entry, in the order given.
std::vector<std::uint8_t> wireOf(const Entries& entries) {
  net::WireWriter w;
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& [name, value] : entries) {
    w.str(name);
    value.encode(w);
  }
  return w.take();
}

std::vector<std::uint8_t> wireOf(const Model& m) {
  return wireOf(Entries(m.begin(), m.end()));
}

void expectMatches(const AttributeSet& s, const Model& m) {
  ASSERT_EQ(s.size(), m.size());
  EXPECT_EQ(s.empty(), m.empty());
  auto mit = m.begin();
  for (const auto& [name, value] : s) {
    EXPECT_EQ(name, mit->first);
    EXPECT_EQ(value, mit->second);
    ++mit;
  }
  for (const auto& [name, value] : m) {
    ASSERT_TRUE(s.has(name));
    EXPECT_EQ(*s.find(name), value);
  }
  EXPECT_EQ(s.encode(), wireOf(m));
}

class AttributeSetModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttributeSetModel, SetFindIterateEncodeMatchMap) {
  math::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    AttributeSet s;
    Model m;
    const int ops = static_cast<int>(rng.uniformInt(0, 30));  // 0: empty
    for (int i = 0; i < ops; ++i) {
      std::string name = randomName(rng);
      AttributeValue v = randomValue(rng);
      m[name] = v;
      s.set(std::move(name), std::move(v));
    }
    expectMatches(s, m);
    for (int i = 0; i < 10; ++i) {
      const std::string probe = randomName(rng);
      EXPECT_EQ(s.has(probe), m.contains(probe));
    }
    const auto decoded = AttributeSet::decode(s.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, s);
    expectMatches(*decoded, m);
  }
}

TEST_P(AttributeSetModel, DecodeOfUnsortedOrRepeatedNamesKeepsLast) {
  math::Rng rng(GetParam() ^ 0xD1CEull);
  for (int trial = 0; trial < 200; ++trial) {
    Entries entries;
    Model m;
    const int n = static_cast<int>(rng.uniformInt(0, 30));
    for (int i = 0; i < n; ++i) {
      entries.emplace_back(randomName(rng), randomValue(rng));
      m[entries.back().first] = entries.back().second;  // last wins
    }
    const auto decoded = AttributeSet::decode(wireOf(entries));
    ASSERT_TRUE(decoded.has_value());
    expectMatches(*decoded, m);
  }
}

TEST_P(AttributeSetModel, InitializerListKeepsFirstLikeMap) {
  math::Rng rng(GetParam() ^ 0x1157ull);
  for (int trial = 0; trial < 200; ++trial) {
    std::string n[6];
    AttributeValue v[6];
    for (int i = 0; i < 6; ++i) {
      n[i] = randomName(rng);
      v[i] = randomValue(rng);
    }
    const AttributeSet s{{n[0], v[0]}, {n[1], v[1]}, {n[2], v[2]},
                         {n[3], v[3]}, {n[4], v[4]}, {n[5], v[5]}};
    const Model m{{n[0], v[0]}, {n[1], v[1]}, {n[2], v[2]},
                  {n[3], v[3]}, {n[4], v[4]}, {n[5], v[5]}};
    expectMatches(s, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttributeSetModel,
                         ::testing::Values(1u, 2u, 3u, 0xC0FFEEu));

TEST(AttributeSetModelFixed, EmptySetAndEmptyInitializerList) {
  const AttributeSet empty;
  const AttributeSet fromList(std::initializer_list<AttributeSet::Entry>{});
  expectMatches(empty, Model{});
  expectMatches(fromList, Model{});
  const auto decoded = AttributeSet::decode(wireOf(Model{}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(AttributeSetModelFixed, RepeatedWireNameLastWinsAcrossOrder) {
  // "b" repeats after "c": the repeat lands between entries, not at the end.
  const auto decoded = AttributeSet::decode(
      wireOf(Entries{{"b", 1}, {"c", 2}, {"b", 3}, {"a", 4}}));
  ASSERT_TRUE(decoded.has_value());
  expectMatches(*decoded, Model{{"a", 4}, {"b", 3}, {"c", 2}});
}

TEST(AttributeSetModelFixed, LargeDescendingWireSetDecodesLikeMap) {
  // The shape of a forged datagram: thousands of names, all descending,
  // each sent twice. Decode sorts once and keeps every name's last value.
  Entries entries;
  Model m;
  for (int i = 6000; i-- > 0;) {
    const std::string name = "attribute." + std::to_string(i);
    for (int rep = 0; rep < 2; ++rep) {
      entries.emplace_back(name, i * 2 + rep);
      m[name] = entries.back().second;
    }
  }
  const auto decoded = AttributeSet::decode(wireOf(entries));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 6000u);
  expectMatches(*decoded, m);
}

}  // namespace
}  // namespace cod::core
