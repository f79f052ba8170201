// Tests for the binary wire format (common/wire.hpp).
#include "common/wire.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace gpuvm {
namespace {

TEST(Wire, RoundTripsPods) {
  WireWriter w;
  w.put<u32>(0xdeadbeef);
  w.put<u64>(42);
  w.put<double>(3.25);
  w.put<i32>(-7);

  WireReader r(w.bytes());
  EXPECT_EQ(r.get<u32>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<u64>(), 42u);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<i32>(), -7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, RoundTripsStringsAndBytes) {
  WireWriter w;
  w.put_string("matmul_kernel");
  w.put_string("");
  std::vector<u8> blob{1, 2, 3, 255};
  w.put_bytes(blob);

  WireReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "matmul_kernel");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_bytes(), blob);
  EXPECT_TRUE(r.ok());
}

TEST(Wire, RoundTripsVectors) {
  WireWriter w;
  std::vector<u64> v{5, 10, 15};
  std::vector<float> f{1.5f, -2.5f};
  w.put_vector(v);
  w.put_vector(f);

  WireReader r(w.bytes());
  EXPECT_EQ(r.get_vector<u64>(), v);
  EXPECT_EQ(r.get_vector<float>(), f);
  EXPECT_TRUE(r.ok());
}

TEST(Wire, SpanBorrowsWithoutCopy) {
  WireWriter w;
  std::vector<u8> blob(1024, 0xab);
  w.put_bytes(blob);
  const auto& backing = w.bytes();

  WireReader r(backing);
  auto span = r.get_span();
  ASSERT_EQ(span.size(), blob.size());
  EXPECT_GE(span.data(), backing.data());
  EXPECT_LT(span.data(), backing.data() + backing.size());
  EXPECT_EQ(span[0], 0xab);
}

TEST(Wire, TruncatedInputSetsNotOkAndStaysFailed) {
  WireWriter w;
  w.put<u32>(7);
  auto bytes = w.take();
  bytes.pop_back();

  WireReader r(bytes);
  (void)r.get<u32>();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get<u64>(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, MaliciousLengthPrefixDoesNotOverread) {
  WireWriter w;
  w.put<u64>(0xffffffffffffffffULL);  // absurd byte-count prefix
  WireReader r(w.bytes());
  auto bytes = r.get_bytes();
  EXPECT_TRUE(bytes.empty());
  EXPECT_FALSE(r.ok());

  // An element count whose byte size wraps to 0 (2^61 * 8 = 2^64).
  WireWriter wrap;
  wrap.put<u64>(1ull << 61);
  WireReader wr(wrap.bytes());
  EXPECT_TRUE(wr.get_vector<double>().empty());
  EXPECT_FALSE(wr.ok());
}

TEST(Wire, EmptyReaderFailsGracefully) {
  WireReader r({});
  EXPECT_EQ(r.get<u8>(), 0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.get_string().empty());
}

TEST(Wire, InterleavedHeterogeneousPayload) {
  // Simulates a realistic call frame: opcode, ids, sizes, inline data.
  WireWriter w;
  w.put<u16>(12);               // opcode
  w.put<u64>(991);              // connection id
  w.put<u64>(0x10000);          // virtual ptr
  w.put<u64>(4096);             // size
  std::vector<u8> payload(4096, 7);
  w.put_bytes(payload);
  w.put<u8>(1);                 // flags

  WireReader r(w.bytes());
  EXPECT_EQ(r.get<u16>(), 12);
  EXPECT_EQ(r.get<u64>(), 991u);
  EXPECT_EQ(r.get<u64>(), 0x10000u);
  EXPECT_EQ(r.get<u64>(), 4096u);
  EXPECT_EQ(r.get_bytes().size(), 4096u);
  EXPECT_EQ(r.get<u8>(), 1);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace gpuvm
