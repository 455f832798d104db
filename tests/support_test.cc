#include <gtest/gtest.h>

#include <string>

#include "support/hash.h"
#include "support/intern.h"
#include "support/pool.h"
#include "support/result.h"
#include "support/spinlock.h"
#include "support/strings.h"

namespace tesla {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Error{"boom", 3, 7};
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().ToString(), "3:7: boom");

  Status status;
  EXPECT_TRUE(status.ok());
  Status failed = Error{"nope"};
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().message, "nope");
}

TEST(Intern, DeduplicatesAndRoundTrips) {
  StringInterner interner;
  Symbol a = interner.Intern("alpha");
  Symbol b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Spelling(a), "alpha");
  EXPECT_EQ(interner.Lookup("beta"), b);
  EXPECT_EQ(interner.Lookup("missing"), kNoSymbol);
  EXPECT_EQ(interner.Spelling(kNoSymbol), "");
}

TEST(Intern, GlobalInternerIsStable) {
  Symbol first = InternString("global_test_symbol");
  Symbol second = InternString("global_test_symbol");
  EXPECT_EQ(first, second);
  EXPECT_EQ(SymbolName(first), "global_test_symbol");
}

TEST(Hash, FnvMatchesKnownVector) {
  // FNV-1a 64-bit of "a" is a published test vector.
  EXPECT_EQ(FnvHashString("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(FnvHashString("ab"), FnvHashString("ba"));
  EXPECT_NE(HashU64(1), HashU64(2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(Pool, AllocateFreeAndOverflow) {
  FixedPool<std::string> pool(2);
  std::string* a = pool.Allocate("one");
  std::string* b = pool.Allocate("two");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.Allocate("three"), nullptr);  // overflow: reported, not fatal
  EXPECT_EQ(pool.live(), 2u);

  pool.Free(a);
  std::string* c = pool.Allocate("again");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, "again");
  EXPECT_EQ(pool.high_water(), 2u);
  pool.Free(b);
  pool.Free(c);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Spinlock, MutualExclusion) {
  Spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  {
    LockGuard<Spinlock> guard(lock);
    EXPECT_FALSE(lock.try_lock());
  }
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Strings, SplitTrimJoin) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");

  EXPECT_EQ(TrimWhitespace("  x  "), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("tesla-manifest 1", "tesla-"));
  EXPECT_FALSE(StartsWith("a", "ab"));
  EXPECT_EQ(JoinStrings({"a", "b"}, ", "), "a, b");
}

TEST(Strings, ParseInt64Cases) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_TRUE(ParseInt64("0x1f", &value));
  EXPECT_EQ(value, 31);
  EXPECT_FALSE(ParseInt64("", &value));
  EXPECT_FALSE(ParseInt64("12x", &value));
}

}  // namespace
}  // namespace tesla
