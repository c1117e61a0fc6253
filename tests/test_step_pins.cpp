// Numeric pins of the step streams every generator yields: the 12 SPEC
// models, one thread of each PARSEC model, the hypervisor's Dom0 loop and a
// .symt stream that carries sync records. Each digest is FNV-1a over the
// (gap, address, write) triples of the first 200,000 steps, with the stream
// restarted whenever it completes, so every pinned run crosses at least two
// restarts (Dom0 never completes and is restarted by hand at the same step
// counts every time). Every stream must reproduce its digest through one
// next() per step and through next_chunk at chunk sizes 1, 7, 64 and 1000.
//
// The constants were recorded on the implementation that produced one step
// per virtual next() call, before streams generated their steps in chunks;
// a change that alters them changes every simulation and must say so.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "machine/config.hpp"
#include "vm/hypervisor.hpp"
#include "workload/benchmark_model.hpp"
#include "workload/parsec_model.hpp"
#include "workload/trace_source.hpp"

namespace symbiosis::workload {
namespace {

constexpr std::uint64_t kSteps = 200'000;

/// FNV-1a over 64-bit words, byte by byte.
class Fnv {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Drive {
  std::uint64_t digest = 0;
  std::uint64_t restarts = 0;
};

/// Digest the first kSteps steps of @p stream, pulled through next_chunk
/// @p chunk steps at a time (0: one next() per step), restarting the stream
/// when it completes and at every step count in @p forced. Also checks
/// next_chunk's contract: a short chunk only at the end of a run, nothing
/// once the run is complete.
Drive drive(TaskStream& stream, std::size_t chunk,
            const std::vector<std::uint64_t>& forced = {}) {
  Fnv fnv;
  Drive out;
  std::vector<cachesim::MemRef> buf(std::max<std::size_t>(chunk, 1));
  std::size_t next_forced = 0;
  for (std::uint64_t step = 0; step < kSteps;) {
    if (next_forced < forced.size() && forced[next_forced] == step) {
      stream.restart();
      ++next_forced;
      ++out.restarts;
    }
    std::uint64_t want = std::min<std::uint64_t>(buf.size(), kSteps - step);
    if (next_forced < forced.size()) want = std::min(want, forced[next_forced] - step);
    std::size_t got = 0;
    if (chunk == 0) {
      const Step s = stream.next();
      buf[0] = {s.addr, s.is_write, s.compute_instr};
      got = 1;
    } else {
      got = stream.next_chunk(buf.data(), static_cast<std::size_t>(want));
      EXPECT_TRUE(got == want || (got > 0 && got < want && stream.complete()))
          << stream.name() << ": chunk of " << got << " for " << want << " at step " << step;
      if (got == 0) {
        ADD_FAILURE() << stream.name() << ": empty chunk at step " << step;
        break;
      }
    }
    for (std::size_t i = 0; i < got; ++i) {
      fnv.add(buf[i].gap);
      fnv.add(buf[i].addr);
      fnv.add(buf[i].is_write ? 1 : 0);
    }
    step += got;
    if (stream.complete()) {
      EXPECT_EQ(stream.refs_issued(), stream.total_refs()) << stream.name();
      EXPECT_EQ(stream.next_chunk(buf.data(), buf.size()), 0u) << stream.name();
      stream.restart();
      ++out.restarts;
    }
  }
  out.digest = fnv.value();
  return out;
}

/// Every way of pulling steps: one next() per step, and next_chunk at
/// several chunk sizes.
const std::vector<std::size_t> kChunks = {0, 1, 7, 64, 1000};
ScaleConfig pin_scale() {
  ScaleConfig s;
  s.length_scale = 0.05;  // every model completes at least twice in kSteps
  return s;
}

std::unique_ptr<TaskStream> spec_stream(const std::string& name) {
  return make_spec_workload(name, Addr{3} << 40, util::Rng{11}, pin_scale());
}

std::unique_ptr<TaskStream> parsec_stream(const std::string& name) {
  auto threads = make_parsec_threads(make_parsec_benchmark(name, pin_scale()), Addr{5} << 40,
                                     util::Rng{13});
  return std::move(threads.at(1));
}

/// A two-thread trace whose thread 0 records a gcc stream with sync records
/// before its first reference, every 997 references (one, two or three in a
/// row) and after its last one; thread 1 is a short partner.
std::shared_ptr<const SymtTrace> sync_trace() {
  SymtWriter writer(2);
  auto gcc = make_spec_workload("gcc", Addr{7} << 40, util::Rng{17}, pin_scale());
  writer.append_barrier(0, 1);
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    if (i % 997 == 0) {
      writer.append_lock(0, 3);
      if (i % 2 == 0) writer.append_unlock(0, 3);
      if (i % 3 == 0) writer.append_signal(0, 5);
    }
    if (gcc->complete()) gcc->restart();
    const Step s = gcc->next();
    writer.append_mem(0, s.addr, s.is_write, s.compute_instr);
  }
  writer.append_wait(0, 5, 1);
  writer.append_barrier(0, 2);
  writer.append_mem(1, 64, false);
  writer.append_signal(1, 5);
  return std::make_shared<const SymtTrace>(SymtTrace::from_buffer(writer.finish()));
}

const std::map<std::string, std::uint64_t> kSpecDigests = {
    {"perlbench", 6607717884813402904ull},   {"bzip2", 2751952610999062336ull},
    {"gcc", 12066941425802049928ull},        {"mcf", 5096714459431470511ull},
    {"gobmk", 2686123445332355732ull},       {"hmmer", 3775760141761932102ull},
    {"sjeng", 161745549017591151ull},        {"libquantum", 7068697445111311847ull},
    {"h264ref", 17726523034496831835ull},    {"omnetpp", 3374182874890317083ull},
    {"astar", 4412921071124568782ull},       {"povray", 6000940620305727880ull},
};

const std::map<std::string, std::uint64_t> kParsecDigests = {
    {"blackscholes", 5820792312342947890ull},  {"bodytrack", 6836115943580175504ull},
    {"canneal", 6548948193968277265ull},       {"dedup", 15818487016077875556ull},
    {"ferret", 3378291091542064686ull},        {"fluidanimate", 17328536630566819872ull},
    {"streamcluster", 11110001700265320054ull}, {"swaptions", 10198190032065989686ull},
};

constexpr std::uint64_t kDom0Digest = 16275475544883863108ull;
constexpr std::uint64_t kSymtDigest = 5363804436284184256ull;

TEST(StepPins, SpecModels) {
  ASSERT_EQ(kSpecDigests.size(), spec2006_pool().size());
  for (const auto& name : spec2006_pool()) {
    for (const std::size_t chunk : kChunks) {
      const auto stream = spec_stream(name);
      ASSERT_LT(2 * stream->total_refs(), kSteps) << name;
      const Drive d = drive(*stream, chunk);
      EXPECT_GE(d.restarts, 2u) << name;
      EXPECT_EQ(d.digest, kSpecDigests.at(name)) << name << " chunk " << chunk;
    }
  }
}

TEST(StepPins, ParsecThreads) {
  ASSERT_EQ(kParsecDigests.size(), parsec_pool().size());
  for (const auto& name : parsec_pool()) {
    for (const std::size_t chunk : kChunks) {
      const auto stream = parsec_stream(name);
      ASSERT_LT(2 * stream->total_refs(), kSteps) << name;
      const Drive d = drive(*stream, chunk);
      EXPECT_GE(d.restarts, 2u) << name;
      EXPECT_EQ(d.digest, kParsecDigests.at(name)) << name << " chunk " << chunk;
    }
  }
}

TEST(StepPins, Dom0) {
  for (const std::size_t chunk : kChunks) {
    vm::Hypervisor hv(machine::core2duo_config(), vm::VmConfig{});
    TaskStream& dom0 = hv.machine().task(0).stream();
    ASSERT_EQ(dom0.name(), "dom0");
    const Drive d = drive(dom0, chunk, {66'667, 133'334});
    EXPECT_EQ(d.restarts, 2u);
    EXPECT_EQ(d.digest, kDom0Digest) << "chunk " << chunk;
  }
}

TEST(StepPins, SymtStreamWithSyncRecords) {
  const auto trace = sync_trace();
  for (const std::size_t chunk : kChunks) {
    SymtTaskStream stream(trace, 0, "sync");
    ASSERT_EQ(stream.total_refs(), 30'000u);
    const Drive d = drive(stream, chunk);
    EXPECT_GE(d.restarts, 2u);
    EXPECT_EQ(d.digest, kSymtDigest) << "chunk " << chunk;
    // The sync records the current run passed were skipped and counted.
    EXPECT_GT(stream.skipped_syncs(), 0u);
  }
}

}  // namespace
}  // namespace symbiosis::workload
