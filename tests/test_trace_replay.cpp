// test_trace_replay.cpp — trace-replay conformance (trace-conformance layer).
//
// Pins the fast chunked replayer (workload/replayer.hpp) to:
//   * the naive reference replayer, at chunk sizes 1/7/64/1000;
//   * direct synthetic generation (generator → .symt → replay bit-identical
//     to replay_generated, for every pool benchmark);
//   * deterministic re-replay (identical ReplayResult and identical
//     trace_replay run reports modulo the volatile sections);
//   * the concurrent recorder (symt_from_benchmarks) byte-identical to a
//     serial loop into one writer;
// and locks the synchronization semantics: happens-before via signal/wait
// and barriers, one-signal-one-wait consumption, and diagnostics (never
// hangs) for deadlocked or malformed traces.
#include "workload/replayer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "machine/machine.hpp"
#include "obs/json.hpp"
#include "reference/reference_replayer.hpp"
#include "workload/trace_source.hpp"

namespace symbiosis::workload {
namespace {

cachesim::Hierarchy fresh_hierarchy(std::size_t cores = 2) {
  cachesim::HierarchyConfig config;
  config.num_cores = cores;
  return cachesim::Hierarchy(config);
}

/// A 3-thread trace exercising every sync op: interleaved compute phases,
/// barriers between them, a lock-protected region, and a signal/wait
/// handshake from thread 0 to threads 1 and 2.
SymtTrace make_sync_trace(std::size_t refs_per_phase = 300) {
  SymtWriter writer(3);
  const util::Rng root(0x7e57);
  for (std::size_t t = 0; t < 3; ++t) {
    util::Rng rng = root.split(t);
    cachesim::Addr addr = (static_cast<cachesim::Addr>(t) + 1) << 40;
    auto burst = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        addr += 64 * (rng.next_below(32) + 1);
        writer.append_mem(t, addr, rng.next_below(3) == 0);
      }
    };
    burst(refs_per_phase);
    writer.append_barrier(t, 1);
    burst(refs_per_phase / 2);
    writer.append_lock(t, 9);
    burst(10);
    writer.append_unlock(t, 9);
    if (t == 0) {
      burst(refs_per_phase);
      writer.append_signal(t, 5);
      writer.append_signal(t, 5);
    } else {
      writer.append_wait(t, 5, 0);
      burst(refs_per_phase / 4);
    }
    writer.append_barrier(t, 2);
    burst(7);
  }
  return SymtTrace::from_buffer(writer.finish());
}

class ReplayChunks : public testing::TestWithParam<std::size_t> {};

TEST_P(ReplayChunks, FastMatchesReferenceBitIdentical) {
  const std::size_t chunk = GetParam();
  const SymtTrace trace = make_sync_trace();

  cachesim::Hierarchy fast_h = fresh_hierarchy();
  cachesim::Hierarchy ref_h = fresh_hierarchy();
  ReplayOptions options;
  options.chunk = chunk;
  const ReplayResult fast = replay_trace(trace, fast_h, options);
  const ReplayResult ref = testing_support::reference_replay(trace, ref_h, chunk);

  EXPECT_EQ(fast.totals, ref.totals);
  EXPECT_EQ(fast.rounds, ref.rounds);
  EXPECT_EQ(fast.sync_events, ref.sync_events);
  ASSERT_EQ(fast.threads.size(), ref.threads.size());
  for (std::size_t t = 0; t < fast.threads.size(); ++t) {
    EXPECT_EQ(fast.threads[t], ref.threads[t]) << "thread " << t;
  }
  // The hierarchies must have ended in the same state, not just the same
  // totals: ground-truth footprints are a cheap full-state probe.
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(fast_h.l2_footprint(c), ref_h.l2_footprint(c)) << "core " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, ReplayChunks, testing::Values<std::size_t>(1, 7, 64, 1000));

TEST(Replay, GeneratorRoundTripBitIdenticalForEveryPoolBenchmark) {
  // generator → .symt → replay must equal direct generation, per benchmark.
  for (const std::string& name : spec2006_pool()) {
    const std::vector<std::string> names{name};
    const auto image = symt_from_benchmarks(names, 4000, 11);
    const SymtTrace trace = SymtTrace::from_buffer(image);

    cachesim::Hierarchy replayed = fresh_hierarchy();
    ReplayOptions options;
    options.chunk = 256;
    const ReplayResult result = replay_trace(trace, replayed, options);

    cachesim::Hierarchy generated = fresh_hierarchy();
    const cachesim::BatchSummary direct = replay_generated(names, 4000, 11, generated, 256);
    EXPECT_EQ(result.totals, direct) << name;
    EXPECT_EQ(result.totals.accesses, 4000u) << name;
  }
}

TEST(Replay, MultiThreadedMixRoundTripBitIdentical) {
  const std::vector<std::string> names{"mcf", "libquantum", "hmmer"};
  const auto image = symt_from_benchmarks(names, 6000, 23);
  const SymtTrace trace = SymtTrace::from_buffer(image);

  for (const std::size_t chunk : {64u, 4096u}) {
    cachesim::Hierarchy replayed = fresh_hierarchy(2);
    ReplayOptions options;
    options.chunk = chunk;
    const ReplayResult result = replay_trace(trace, replayed, options);
    cachesim::Hierarchy generated = fresh_hierarchy(2);
    const cachesim::BatchSummary direct = replay_generated(names, 6000, 23, generated, chunk);
    EXPECT_EQ(result.totals, direct) << "chunk " << chunk;
  }
}

TEST(Replay, ReplayTwiceIsDeterministic) {
  // Satellite regression: same trace, fresh hierarchies → identical results
  // and identical run reports outside the volatile sections.
  const SymtTrace trace = make_sync_trace();
  const SymtStats stats = collect_stats(trace);
  cachesim::HierarchyConfig config;
  config.num_cores = 2;

  auto one_run = [&] {
    cachesim::Hierarchy h{config};
    ReplayOptions options;
    options.chunk = 512;
    return replay_trace(trace, h, options);
  };
  const ReplayResult a = one_run();
  const ReplayResult b = one_run();
  EXPECT_EQ(a, b);

  const obs::Json report_a = core::build_trace_replay_report(config, "x.symt", stats, a, 512);
  const obs::Json report_b = core::build_trace_replay_report(config, "x.symt", stats, b, 512);
  EXPECT_TRUE(core::validate_report(report_a).empty());
  const auto diff = obs::json_diff(report_a, report_b, {"timings", "metrics"});
  EXPECT_TRUE(diff.empty()) << (diff.empty() ? "" : diff.front());
}

// --- synchronization semantics ---------------------------------------------

TEST(ReplaySync, WaitEnforcesHappensBeforeAcrossVisitOrder) {
  // The CONSUMER is thread 0 (visited first each round); the producer is
  // thread 1. Without the wait the consumer would run first — with it, the
  // consumer must block at least once and only proceed after the signal.
  SymtWriter writer(2);
  writer.append_wait(0, 3, 1);
  writer.append_mem(0, 1 << 20, false);
  for (int i = 0; i < 50; ++i) writer.append_mem(1, 64u * static_cast<unsigned>(i + 1), false);
  writer.append_signal(1, 3);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());

  cachesim::Hierarchy h = fresh_hierarchy();
  ReplayOptions options;
  options.chunk = 8;  // producer needs several rounds to reach its signal
  const ReplayResult result = replay_trace(trace, h, options);
  EXPECT_EQ(result.threads[0].waits, 1u);
  EXPECT_GE(result.threads[0].blocked_visits, 1u);
  EXPECT_EQ(result.threads[1].signals, 1u);
  EXPECT_EQ(result.totals.accesses, 51u);
}

TEST(ReplaySync, SignalAlreadyPostedNeverBlocks) {
  SymtWriter writer(2);
  writer.append_signal(0, 3);
  writer.append_mem(0, 4096, false);
  writer.append_wait(1, 3, 0);
  writer.append_mem(1, 8192, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  const ReplayResult result = replay_trace(trace, h, {});
  EXPECT_EQ(result.threads[1].blocked_visits, 0u);
  EXPECT_EQ(result.threads[1].waits, 1u);
}

TEST(ReplaySync, OneWaitConsumesOneSignal) {
  // Two waits against a single signal must deadlock with a diagnostic.
  SymtWriter writer(2);
  writer.append_signal(0, 1);
  writer.append_wait(1, 1, 0);
  writer.append_wait(1, 1, 0);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  try {
    replay_trace(trace, h, {});
    FAIL() << "expected a deadlock diagnostic";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("thread 1"), std::string::npos) << what;
  }
}

TEST(ReplaySync, BarrierHoldsEarlyArrivals) {
  // Thread 1 reaches the barrier immediately and must idle (blocked visits)
  // until thread 0 works through its pre-barrier burst.
  SymtWriter writer(2);
  for (int i = 0; i < 100; ++i) writer.append_mem(0, 64u * static_cast<unsigned>(i), false);
  writer.append_barrier(0, 4);
  writer.append_barrier(1, 4);
  writer.append_mem(1, 1 << 20, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  ReplayOptions options;
  options.chunk = 10;
  const ReplayResult result = replay_trace(trace, h, options);
  EXPECT_EQ(result.threads[0].barriers, 1u);
  EXPECT_EQ(result.threads[1].barriers, 1u);
  EXPECT_GE(result.threads[1].blocked_visits, 9u);  // ~100/10 rounds of waiting
  EXPECT_EQ(result.totals.accesses, 101u);
}

TEST(ReplaySync, LockSerializesButNeverDeadlocks) {
  SymtWriter writer(2);
  for (std::size_t t = 0; t < 2; ++t) {
    writer.append_lock(t, 1);
    for (int i = 0; i < 20; ++i) {
      writer.append_mem(t, (1u << 16) * (static_cast<unsigned>(t) + 1) +
                               64u * static_cast<unsigned>(i),
                        true);
    }
    writer.append_unlock(t, 1);
  }
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  ReplayOptions options;
  options.chunk = 4;  // critical sections span multiple visits
  const ReplayResult result = replay_trace(trace, h, options);
  EXPECT_EQ(result.threads[0].lock_acquires, 1u);
  EXPECT_EQ(result.threads[1].lock_acquires, 1u);
  EXPECT_EQ(result.threads[0].lock_releases, 1u);
  EXPECT_EQ(result.threads[1].lock_releases, 1u);
  // Thread 1 must have been locked out while thread 0 held the mutex.
  EXPECT_GE(result.threads[1].blocked_visits, 1u);
  EXPECT_EQ(result.totals.accesses, 40u);
}

// --- malformed traces ------------------------------------------------------

TEST(ReplayErrors, UnlockWithoutHoldDiagnosed) {
  SymtWriter writer(1);
  writer.append_unlock(0, 2);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  try {
    replay_trace(trace, h, {});
    FAIL() << "expected a trace error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does not hold"), std::string::npos) << e.what();
  }
}

TEST(ReplayErrors, RecursiveLockDiagnosed) {
  SymtWriter writer(1);
  writer.append_lock(0, 2);
  writer.append_lock(0, 2);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  EXPECT_THROW(replay_trace(trace, h, {}), std::runtime_error);
}

TEST(ReplayErrors, BarrierIdMismatchDiagnosed) {
  SymtWriter writer(2);
  writer.append_barrier(0, 1);
  writer.append_barrier(1, 2);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  try {
    replay_trace(trace, h, {});
    FAIL() << "expected a barrier mismatch diagnostic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("barrier"), std::string::npos) << e.what();
  }
}

TEST(ReplayErrors, WaitOnNonexistentThreadDiagnosed) {
  // append_wait validates partners at write time, so forge the on-disk
  // partner by patching the final varint byte of a valid wait record.
  SymtWriter w2(2);
  w2.append_wait(0, 1, 1);
  auto bytes = w2.finish();
  bytes.back() = 7;  // partner varint (single byte) → thread 7
  const SymtTrace trace = SymtTrace::from_buffer(std::move(bytes));
  cachesim::Hierarchy h = fresh_hierarchy();
  try {
    replay_trace(trace, h, {});
    FAIL() << "expected a nonexistent-thread diagnostic";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nonexistent"), std::string::npos) << e.what();
  }
}

TEST(ReplayErrors, SoloBarrierRetiresImmediately) {
  // A single-thread trace's barrier is trivially satisfied — not a deadlock.
  SymtWriter writer(1);
  writer.append_mem(0, 64, false);
  writer.append_barrier(0, 1);
  writer.append_mem(0, 128, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  const ReplayResult result = replay_trace(trace, h, {});
  EXPECT_EQ(result.threads[0].barriers, 1u);
  EXPECT_EQ(result.totals.accesses, 2u);
}

TEST(ReplayApi, RunTwiceRejected) {
  SymtWriter writer(1);
  writer.append_mem(0, 64, false);
  const SymtTrace trace = SymtTrace::from_buffer(writer.finish());
  cachesim::Hierarchy h = fresh_hierarchy();
  TraceReplayer replayer(trace, h);
  (void)replayer.run();
  EXPECT_THROW(replayer.run(), std::logic_error);
}

// --- Machine integration ----------------------------------------------------

TEST(TraceSourceApi, SymtSourceFeedsMachineDeterministically) {
  const auto image = symt_from_benchmarks({"mcf", "gobmk"}, 3000, 31);
  auto trace = std::make_shared<SymtTrace>(SymtTrace::from_buffer(image));

  auto run_once = [&] {
    machine::Machine m(machine::core2duo_config());
    StreamGroup threads;
    for (std::size_t t = 0; t < trace->num_threads(); ++t) {
      threads.push_back(std::make_unique<SymtTaskStream>(trace, t, "mix.t" + std::to_string(t)));
    }
    const auto ids = m.add_process(std::move(threads));
    EXPECT_EQ(ids.size(), 2u);
    // Threads of one process share a pid; distinct from a later process.
    EXPECT_EQ(m.task(ids[0]).pid(), m.task(ids[1]).pid());
    m.run_to_all_complete(0);
    std::vector<std::uint64_t> cycles;
    for (const auto id : ids) cycles.push_back(m.task(id).first_completion_user_cycles);
    return cycles;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a[0], 0u);
}

TEST(TraceSourceApi, SymtStreamSkipsSyncRecordsAndRestarts) {
  SymtWriter writer(1);
  writer.append_mem(0, 64, false);
  writer.append_barrier(0, 1);
  writer.append_mem(0, 128, true);
  auto trace = std::make_shared<SymtTrace>(SymtTrace::from_buffer(writer.finish()));
  SymtTaskStream stream(trace, 0, "t0");
  EXPECT_EQ(stream.total_refs(), 2u);
  EXPECT_EQ(stream.next().addr, 64u);
  EXPECT_EQ(stream.next().addr, 128u);
  EXPECT_TRUE(stream.complete());
  EXPECT_EQ(stream.skipped_syncs(), 1u);
  stream.restart();
  EXPECT_EQ(stream.refs_issued(), 0u);
  EXPECT_EQ(stream.next().addr, 64u);
}

/// symt_from_benchmarks' contract as a serial loop: one writer, the
/// programs recorded one after another.
std::vector<std::uint8_t> serial_symt(const std::vector<std::string>& names, std::uint64_t refs,
                                      std::uint64_t seed, const ScaleConfig& scale = {}) {
  SymtWriter writer(names.size());
  const util::Rng root(seed);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto base = static_cast<cachesim::Addr>(i + 1) << 40;
    auto workload = make_spec_workload(names[i], base, root.split(i), scale);
    record_stream(writer, i, *workload, refs);
  }
  return writer.finish();
}

TEST(TraceSourceApi, ParallelRecordingMatchesSerialWriter) {
  const std::vector<std::string>& pool = spec2006_pool();
  for (const std::uint64_t refs : {0u, 1u, 5000u}) {
    EXPECT_EQ(symt_from_benchmarks(pool, refs, 41), serial_symt(pool, refs, 41))
        << refs << " refs";
  }
  // At this scale the pool's runs hold 2,100-3,600 references, so some
  // programs stop before 3,000 and the rest are cut at it.
  ScaleConfig scale;
  scale.length_scale = 0.003;
  const auto image = symt_from_benchmarks(pool, 3000, 43, scale);
  EXPECT_EQ(image, serial_symt(pool, 3000, 43, scale));
  const SymtTrace trace = SymtTrace::from_buffer(image);
  std::size_t ended = 0;
  std::size_t cut = 0;
  for (std::size_t t = 0; t < trace.num_threads(); ++t) {
    const std::uint64_t records = trace.thread(t).records;
    const std::uint64_t run = make_spec_benchmark(pool[t], scale).total_refs;
    EXPECT_EQ(records, std::min<std::uint64_t>(3000, run)) << pool[t];
    (records < 3000 ? ended : cut) += 1;
  }
  EXPECT_GT(ended, 0u);
  EXPECT_GT(cut, 0u);

  const std::vector<std::string> one{"omnetpp"};
  EXPECT_EQ(symt_from_benchmarks(one, 5000, 47), serial_symt(one, 5000, 47));
  // The same program twice: two streams on distinct bases and seeds.
  const std::vector<std::string> twice{"mcf", "hmmer", "mcf"};
  const auto twice_image = symt_from_benchmarks(twice, 5000, 53);
  EXPECT_EQ(twice_image, serial_symt(twice, 5000, 53));
  const SymtTrace twice_trace = SymtTrace::from_buffer(twice_image);
  EXPECT_FALSE(std::equal(twice_trace.payload_begin(0), twice_trace.payload_end(0),
                          twice_trace.payload_begin(2), twice_trace.payload_end(2)));
}

TEST(TraceSourceApi, FirstUnknownProgramWins) {
  const std::vector<std::string> names{"mcf", "hmmer", "nosuch2", "gobmk", "sjeng", "nosuch5"};
  try {
    (void)symt_from_benchmarks(names, 100, 7);
    FAIL() << "an unknown program was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nosuch2"), std::string::npos) << e.what();
    EXPECT_EQ(std::string(e.what()).find("nosuch5"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace symbiosis::workload
