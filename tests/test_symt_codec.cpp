// test_symt_codec.cpp — .symt v2 codec conformance (trace-conformance layer).
//
// Property tests over the varint primitives and the writer→reader round
// trip, plus the rejection battery: every class of corruption (truncated
// header, garbled magic, wrong version, lying thread table, mid-record EOF,
// reserved tag bits, varint overflow, byte mutations) must surface as a
// std::runtime_error with a diagnostic — never a crash, hang or silent
// misparse (the asan-ubsan preset re-runs all of this under sanitizers).
#include "workload/symt.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace symbiosis::workload {
namespace {

/// Decode every record of every thread (insists the trace is well-formed).
std::vector<std::vector<SymtRecord>> decode_all(const SymtTrace& trace) {
  std::vector<std::vector<SymtRecord>> out(trace.num_threads());
  for (std::size_t t = 0; t < trace.num_threads(); ++t) {
    SymtCursor cursor(trace, t);
    SymtRecord rec;
    while (cursor.next(rec)) out[t].push_back(rec);
  }
  return out;
}

TEST(SymtVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  0x7f,
                                  0x80,
                                  0x3fff,
                                  0x4000,
                                  0xffffffffull,
                                  0x100000000ull,
                                  ~std::uint64_t{0} >> 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> bytes;
    symt_put_varint(bytes, v);
    const std::uint8_t* p = bytes.data();
    EXPECT_EQ(symt_get_varint(p, bytes.data() + bytes.size()), v);
    EXPECT_EQ(p, bytes.data() + bytes.size()) << "decoder must consume the whole varint";
  }
}

TEST(SymtVarint, ZigzagIsInvolutive) {
  const std::int64_t values[] = {0, 1, -1, 63, -64, 4095, -4096, INT64_MAX, INT64_MIN};
  for (const std::int64_t v : values) {
    EXPECT_EQ(symt_unzigzag(symt_zigzag(v)), v);
  }
  // Small magnitudes must stay small encoded (the compactness contract).
  EXPECT_LT(symt_zigzag(-1), 4u);
  EXPECT_LT(symt_zigzag(1), 4u);
}

TEST(SymtVarint, TruncatedAndOverflowingRejected) {
  std::vector<std::uint8_t> bytes;
  symt_put_varint(bytes, ~std::uint64_t{0});
  // Chop the terminator: every prefix must throw, not read past the end.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::uint8_t* p = bytes.data();
    EXPECT_THROW((void)symt_get_varint(p, bytes.data() + len), std::runtime_error) << len;
  }
  // 10 continuation bytes = more than 64 significant bits.
  const std::vector<std::uint8_t> overflow(11, 0xff);
  const std::uint8_t* p = overflow.data();
  EXPECT_THROW((void)symt_get_varint(p, overflow.data() + overflow.size()), std::runtime_error);
}

/// Decodes [bytes, bytes + len) with symt_get_varint (inline fast path) and
/// with symt_get_varint_slow, and requires the same value, the same end
/// pointer and the same exception message (both empty when neither throws).
/// Returns the value.
std::uint64_t expect_decoders_agree(const std::vector<std::uint8_t>& bytes, std::size_t len,
                                    const std::string& label) {
  const std::uint8_t* const end = bytes.data() + len;
  const std::uint8_t* fast = bytes.data();
  const std::uint8_t* slow = bytes.data();
  std::uint64_t fast_value = 0;
  std::uint64_t slow_value = 0;
  std::string fast_error;
  std::string slow_error;
  try {
    fast_value = symt_get_varint(fast, end);
  } catch (const std::runtime_error& e) {
    fast_error = e.what();
  }
  try {
    slow_value = symt_get_varint_slow(slow, end);
  } catch (const std::runtime_error& e) {
    slow_error = e.what();
  }
  EXPECT_EQ(fast_error, slow_error) << label;
  EXPECT_EQ(fast_value, slow_value) << label;
  EXPECT_EQ(fast - bytes.data(), slow - bytes.data()) << label;
  return fast_value;
}

TEST(SymtVarint, FastPathMatchesSlowDecoderAtEveryLengthBoundary) {
  // The last 1-, 2- and 3-byte values and the first 2-, 3- and 4-byte ones,
  // each followed by 0-4 more bytes: the fast path needs 3 bytes left, so
  // this crosses its threshold with every length it decodes or hands on.
  const std::uint64_t values[] = {0,      127,    128, 16383, 16384, (1u << 21) - 1,
                                  1u << 21};
  for (const std::uint64_t v : values) {
    for (std::size_t after = 0; after <= 4; ++after) {
      std::vector<std::uint8_t> bytes;
      symt_put_varint(bytes, v);
      const std::size_t size = bytes.size();
      // Continuation bytes after the varint: a decoder reading past its
      // terminator would fold them into the value.
      bytes.insert(bytes.end(), after, 0xff);
      const std::string label = std::to_string(v) + " + " + std::to_string(after);
      EXPECT_EQ(expect_decoders_agree(bytes, bytes.size(), label), v) << label;
      const std::uint8_t* p = bytes.data();
      (void)symt_get_varint(p, bytes.data() + bytes.size());
      EXPECT_EQ(p, bytes.data() + size) << label;
      // Every truncation of the varint itself, with the bytes after it cut.
      for (std::size_t len = 0; len < size; ++len) {
        expect_decoders_agree(bytes, len, label + " cut to " + std::to_string(len));
      }
    }
  }
}

TEST(SymtVarint, FastPathMatchesSlowDecoderOnNonCanonicalAndOverlong) {
  for (std::size_t after = 0; after <= 3; ++after) {
    // 0x80 0x00: a two-byte zero. Both decoders accept it and consume 2.
    std::vector<std::uint8_t> zero{0x80, 0x00};
    zero.insert(zero.end(), after, 0x01);
    EXPECT_EQ(expect_decoders_agree(zero, zero.size(), "0x80 0x00"), 0u);
    for (std::size_t len = 0; len < 2; ++len) expect_decoders_agree(zero, len, "0x80 cut");
  }
  // Longer varints go to the slow decoder whole, overflow diagnostics included.
  const std::vector<std::uint8_t> overflow(11, 0xff);
  for (std::size_t len = 0; len <= overflow.size(); ++len) {
    expect_decoders_agree(overflow, len, "overflow cut to " + std::to_string(len));
  }
  std::vector<std::uint8_t> widest;
  symt_put_varint(widest, ~std::uint64_t{0});
  EXPECT_EQ(expect_decoders_agree(widest, widest.size(), "2^64 - 1"), ~std::uint64_t{0});
}

/// Pseudorandom mixed-record trace of @p records_per_thread records on
/// @p threads threads: jumpy addresses (negative and page-crossing deltas),
/// gaps, and some sync records when requested.
std::vector<std::uint8_t> random_image(std::size_t threads, std::size_t records_per_thread,
                                       std::uint64_t seed, bool with_sync,
                                       std::vector<std::vector<SymtRecord>>* expect = nullptr) {
  SymtWriter writer(threads);
  if (expect) expect->assign(threads, {});
  const util::Rng root(seed);
  for (std::size_t t = 0; t < threads; ++t) {
    util::Rng rng = root.split(t);
    cachesim::Addr addr = (static_cast<cachesim::Addr>(t) + 1) << 40;
    for (std::size_t i = 0; i < records_per_thread; ++i) {
      SymtRecord rec;
      const std::uint64_t kind = with_sync ? rng.next_below(10) : 0;
      if (kind < 8) {
        // Deltas from -1 MiB to +1 MiB: negative, zero and page-crossing.
        addr += static_cast<cachesim::Addr>(rng.next_below(2 * 1024 * 1024)) - 1024 * 1024;
        rec.op = rng.next_below(2) ? SymtOp::Write : SymtOp::Read;
        rec.addr = addr;
        rec.gap = rng.next_below(3) ? 0 : static_cast<std::uint32_t>(rng.next_below(1000));
      } else if (kind == 8) {
        rec.op = SymtOp::Signal;
        rec.arg = rng.next_below(4);
      } else {
        rec.op = SymtOp::LockAcquire;
        rec.arg = rng.next_below(4);
      }
      writer.append(t, rec);
      if (expect) (*expect)[t].push_back(rec);
    }
  }
  return writer.finish();
}

class SymtCodecSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(SymtCodecSizes, WriterReaderRoundTrip) {
  const std::size_t n = GetParam();
  std::vector<std::vector<SymtRecord>> expect;
  const auto image = random_image(3, n, 0xc0dec + n, /*with_sync=*/true, &expect);
  const SymtTrace trace = SymtTrace::from_buffer(image);
  ASSERT_EQ(trace.num_threads(), 3u);
  EXPECT_EQ(trace.total_records(), 3 * n);
  const auto decoded = decode_all(trace);
  for (std::size_t t = 0; t < 3; ++t) {
    ASSERT_EQ(decoded[t].size(), expect[t].size());
    for (std::size_t i = 0; i < decoded[t].size(); ++i) {
      EXPECT_EQ(decoded[t][i], expect[t][i]) << "thread " << t << " record " << i;
    }
  }
}

// 0 and 1 are the degenerate stream sizes; 4096 straddles a typical replay
// chunk boundary exactly and 4095/4097 sit on either side of it.
INSTANTIATE_TEST_SUITE_P(Sizes, SymtCodecSizes,
                         testing::Values<std::size_t>(0, 1, 2, 7, 4095, 4096, 4097));

TEST(SymtCodec, NegativeAndPageCrossingDeltasExact) {
  SymtWriter writer(1);
  const cachesim::Addr addrs[] = {1ull << 40,          (1ull << 40) + 4096,
                                  (1ull << 40) - 4096, 0,
                                  ~std::uint64_t{0},   1,
                                  1ull << 63,          (1ull << 63) - 1};
  for (const auto a : addrs) writer.append_mem(0, a, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  SymtCursor cursor(trace, 0);
  SymtRecord rec;
  for (const auto a : addrs) {
    ASSERT_TRUE(cursor.next(rec));
    EXPECT_EQ(rec.addr, a);
  }
  EXPECT_FALSE(cursor.next(rec));
}

TEST(SymtCodec, DecodeMemRunStopsAtSyncWithoutConsuming) {
  SymtWriter writer(1);
  writer.append_mem(0, 64, false);
  writer.append_mem(0, 128, true);
  writer.append_barrier(0, 7);
  writer.append_mem(0, 192, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());

  SymtCursor cursor(trace, 0);
  cachesim::MemRef refs[8];
  EXPECT_EQ(cursor.decode_mem_run(refs, nullptr, 8), 2u);
  EXPECT_EQ(refs[0].addr, 64u);
  EXPECT_EQ(refs[1].addr, 128u);
  EXPECT_TRUE(refs[1].is_write);
  // The barrier is still there for next().
  SymtRecord rec;
  ASSERT_TRUE(cursor.next(rec));
  EXPECT_EQ(rec.op, SymtOp::Barrier);
  EXPECT_EQ(rec.arg, 7u);
  EXPECT_EQ(cursor.decode_mem_run(refs, nullptr, 8), 1u);
  EXPECT_EQ(refs[0].addr, 192u);
  EXPECT_TRUE(cursor.done());
}

TEST(SymtCodec, DecodeMemRunHonoursMax) {
  SymtWriter writer(1);
  for (int i = 0; i < 10; ++i) writer.append_mem(0, 64u * static_cast<unsigned>(i), false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  SymtCursor cursor(trace, 0);
  cachesim::MemRef refs[4];
  EXPECT_EQ(cursor.decode_mem_run(refs, nullptr, 4), 4u);
  EXPECT_EQ(refs[0].addr, 0u);
  EXPECT_EQ(cursor.decode_mem_run(refs, nullptr, 4), 4u);
  EXPECT_EQ(refs[0].addr, 4u * 64u);
  EXPECT_EQ(cursor.decode_mem_run(refs, nullptr, 4), 2u);
  EXPECT_EQ(refs[0].addr, 8u * 64u);
  EXPECT_TRUE(cursor.done());
}

// --- rejection battery -----------------------------------------------------

/// Expect from_buffer (or full decode) to throw with SOME diagnostic.
void expect_rejected(std::vector<std::uint8_t> image, const char* why) {
  try {
    const SymtTrace trace = SymtTrace::from_buffer(std::move(image));
    (void)collect_stats(trace);  // structural checks pass: decode must catch it
    FAIL() << "accepted a corrupt image: " << why;
  } catch (const std::runtime_error& e) {
    EXPECT_FALSE(std::string(e.what()).empty()) << why;
  }
}

TEST(SymtReject, TruncatedHeader) {
  const auto image = random_image(1, 4, 1, false);
  for (const std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{12},
                                kSymtHeaderBytes - 1}) {
    expect_rejected({image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len)},
                    "truncated header");
  }
}

TEST(SymtReject, BadMagic) {
  auto image = random_image(1, 4, 2, false);
  image[0] = 'X';
  expect_rejected(std::move(image), "bad magic");
}

TEST(SymtReject, WrongVersion) {
  auto image = random_image(1, 4, 3, false);
  image[4] = 1;  // the legacy version
  try {
    (void)SymtTrace::from_buffer(std::move(image));
    FAIL() << "accepted a v1-stamped image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SymtReject, NonZeroFlags) {
  auto image = random_image(1, 4, 4, false);
  image[12] |= 0x01;
  expect_rejected(std::move(image), "unknown flags");
}

TEST(SymtReject, ZeroAndImplausibleThreadCount) {
  auto zero = random_image(1, 4, 5, false);
  zero[8] = zero[9] = zero[10] = zero[11] = 0;
  expect_rejected(std::move(zero), "zero threads");

  auto huge = random_image(1, 4, 6, false);
  huge[8] = 0xff;
  huge[9] = 0xff;
  huge[10] = 0xff;
  huge[11] = 0x7f;  // ~2 billion threads: table alone would be ~48 GiB
  expect_rejected(std::move(huge), "implausible thread count");
}

TEST(SymtReject, ThreadTableOverrunsFile) {
  auto image = random_image(1, 4, 7, false);
  image.resize(kSymtHeaderBytes + kSymtThreadEntryBytes - 1);
  expect_rejected(std::move(image), "table overruns file");
}

TEST(SymtReject, PayloadOverrunsFile) {
  auto image = random_image(1, 4, 8, false);
  // Inflate thread 0's payload_bytes (table entry at header end, +8).
  image[kSymtHeaderBytes + 8] = 0xff;
  expect_rejected(std::move(image), "payload overruns file");
}

TEST(SymtReject, NonContiguousPayloadOffset) {
  auto image = random_image(1, 4, 9, false);
  image[kSymtHeaderBytes] += 1;  // shift thread 0's payload offset
  expect_rejected(std::move(image), "non-contiguous payload");
}

TEST(SymtReject, RecordCountExceedsPayloadBytes) {
  auto image = random_image(1, 4, 10, false);
  image[kSymtHeaderBytes + 16] = 0xff;  // thread 0 record_count low byte
  expect_rejected(std::move(image), "records > bytes");
}

TEST(SymtReject, HeaderTotalDisagreesWithTable) {
  auto image = random_image(1, 4, 11, false);
  image[16] += 1;  // header total_records
  expect_rejected(std::move(image), "total_records mismatch");
}

TEST(SymtReject, MidRecordEof) {
  // Truncate the payload but keep the table consistent with the truncation:
  // the DECODER must hit "payload ends before declared record count".
  SymtWriter writer(1);
  for (int i = 0; i < 16; ++i) writer.append_mem(0, 1'000'000u * static_cast<unsigned>(i + 1),
                                                 i % 2 == 0, 5);
  auto image = writer.finish();
  const std::size_t payload_begin = kSymtHeaderBytes + kSymtThreadEntryBytes;
  const std::size_t payload_bytes = image.size() - payload_begin;
  for (const std::size_t keep : {payload_bytes - 1, payload_bytes / 2, std::size_t{1}}) {
    auto cut = image;
    cut.resize(payload_begin + keep);
    // Patch payload_bytes so the structural pass accepts the file; record
    // count now lies, which is exactly the mid-record-EOF case.
    for (int b = 0; b < 8; ++b) {
      cut[kSymtHeaderBytes + 8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(keep >> (8 * b));
    }
    expect_rejected(std::move(cut), "mid-record EOF");
  }
}

TEST(SymtReject, ReservedTagBitsAndBadOpcodes) {
  SymtWriter writer(1);
  writer.append_mem(0, 64, false);
  const auto image = writer.finish();
  const std::size_t tag_at = kSymtHeaderBytes + kSymtThreadEntryBytes;
  for (const std::uint8_t bad : {std::uint8_t{0x10}, std::uint8_t{0x80}, std::uint8_t{0x07},
                                 std::uint8_t{0x0a}}) {
    auto mutated = image;
    mutated[tag_at] = bad;  // reserved bit / unknown opcode 7 / gap-on-sync
    expect_rejected(std::move(mutated), "bad tag byte");
  }
}

TEST(SymtReject, ExplicitZeroGapNonCanonical) {
  // Hand-craft tag-with-gap-flag followed by gap varint 0.
  SymtWriter writer(1);
  writer.append_mem(0, 64, false, 1);
  auto image = writer.finish();
  // Payload is: tag(0x08) varint(zigzag 64) varint(1); zero the gap byte.
  image.back() = 0;
  expect_rejected(std::move(image), "explicit zero gap");
}

TEST(SymtFuzz, ByteMutationsNeverCrash) {
  // Flip every byte of a real image through several values; each mutant must
  // either decode fully or throw — never crash/overread (asan re-runs this).
  const auto image = random_image(2, 40, 0xf022, /*with_sync=*/true);
  for (std::size_t at = 0; at < image.size(); ++at) {
    for (const std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0x7f},
                                     std::uint8_t{0x80}, std::uint8_t{0xff}}) {
      if (image[at] == value) continue;
      auto mutated = image;
      mutated[at] = value;
      try {
        const SymtTrace trace = SymtTrace::from_buffer(std::move(mutated));
        (void)collect_stats(trace);
      } catch (const std::runtime_error&) {
        // Rejection with a diagnostic is a pass.
      }
    }
  }
}

TEST(SymtFuzz, RandomTruncationsNeverCrash) {
  const auto image = random_image(2, 40, 0xcafe, /*with_sync=*/true);
  for (std::size_t len = 0; len < image.size(); len += 3) {
    try {
      const SymtTrace trace =
          SymtTrace::from_buffer({image.begin(), image.begin() + static_cast<std::ptrdiff_t>(len)});
      (void)collect_stats(trace);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SymtTraceApi, OpenMissingFileThrows) {
  EXPECT_THROW(SymtTrace::open(testing::TempDir() + "/nope-does-not-exist.symt"),
               std::runtime_error);
}

TEST(SymtTraceApi, OpenMatchesFromBuffer) {
  const auto image = random_image(2, 100, 0x0be1, /*with_sync=*/true);
  const std::string path = testing::TempDir() + "/open-vs-buffer.symt";
  SymtWriter probe(1);  // reuse write_file's I/O path via a manual dump
  {
    std::vector<std::uint8_t> copy = image;
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(copy.data(), 1, copy.size(), f), copy.size());
    std::fclose(f);
  }
  const SymtTrace mapped = SymtTrace::open(path);
  const SymtTrace buffered = SymtTrace::from_buffer(image);
  EXPECT_EQ(mapped.num_threads(), buffered.num_threads());
  EXPECT_EQ(mapped.total_records(), buffered.total_records());
  const auto a = decode_all(mapped);
  const auto b = decode_all(buffered);
  EXPECT_EQ(a, b);
}

TEST(SymtWriterApi, RejectsBadConstruction) {
  EXPECT_THROW(SymtWriter(0), std::invalid_argument);
  SymtWriter writer(2);
  EXPECT_THROW(writer.append_wait(0, 1, 5), std::invalid_argument);
  EXPECT_THROW(writer.append_mem(7, 0, false), std::out_of_range);
}

}  // namespace
}  // namespace symbiosis::workload
