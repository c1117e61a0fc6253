// symt.hpp — the .symt v2 binary multi-threaded trace format (DESIGN.md §14).
//
// A .symt file carries per-thread reference streams compact enough to replay
// billions of references: addresses are delta-encoded against the previous
// address of the SAME thread and varint-packed (LEB128, zigzag for signed
// deltas), so a sequential scan costs ~2 bytes per reference. Interleaved
// with the memory records each thread may carry synchronization events
// (barrier / lock / unlock / signal / wait-on-partner) that the replayer
// (workload/replayer.hpp) turns into happens-before edges between threads.
//
// File layout (little-endian):
//   header   "SYMT" magic, u32 version = 2, u32 thread_count, u32 flags(=0),
//            u64 total_records
//   table    thread_count × {u64 payload_offset, u64 payload_bytes,
//                            u64 record_count}
//   payloads one contiguous byte stream per thread, non-overlapping,
//            in table order
//
// Record encoding (sequential per-thread decode):
//   tag byte: bits 0..2 opcode (Read, Write, Barrier, LockAcquire,
//             LockRelease, Signal, Wait), bit 3 has_gap (memory ops only),
//             bits 4..7 must be zero — any other tag is a decode error.
//   Read/Write:  varint zigzag(addr - prev_addr)  [varint compute gap]
//   Barrier:     varint barrier_id
//   LockAcquire/LockRelease: varint lock_id
//   Signal:      varint event_id
//   Wait:        varint event_id, varint partner_thread
//
// Version 1 ("SYMT", version 1) was a retired fixed-width single-stream
// format; the reader rejects it, like any version but 2, with a diagnostic,
// never undefined behaviour. Every decode is bounds-checked: truncated
// headers, overrunning thread tables, mid-record EOF and varint overflow all
// throw std::runtime_error naming the problem.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cachesim/hierarchy.hpp"

namespace symbiosis::workload {

inline constexpr std::uint32_t kSymtVersion = 2;
inline constexpr std::size_t kSymtHeaderBytes = 24;
inline constexpr std::size_t kSymtThreadEntryBytes = 24;
/// Hard cap on thread_count: a corrupt header must not drive a multi-GiB
/// thread-table allocation before the bounds check can reject it.
inline constexpr std::uint32_t kSymtMaxThreads = 1u << 20;

/// Record opcodes (tag bits 0..2).
enum class SymtOp : std::uint8_t {
  Read = 0,
  Write = 1,
  Barrier = 2,
  LockAcquire = 3,
  LockRelease = 4,
  Signal = 5,
  Wait = 6,
};

[[nodiscard]] std::string to_string(SymtOp op);

/// One decoded record. For memory ops @p addr is the absolute byte address
/// (the cursor resolves deltas); for sync ops @p arg is the barrier/lock/
/// event id and @p partner the waited-on thread (Wait only).
struct SymtRecord {
  SymtOp op = SymtOp::Read;
  cachesim::Addr addr = 0;
  std::uint32_t gap = 0;  ///< compute instructions before the access
  std::uint64_t arg = 0;
  std::uint32_t partner = 0;

  [[nodiscard]] bool is_mem() const noexcept {
    return op == SymtOp::Read || op == SymtOp::Write;
  }
  [[nodiscard]] bool operator==(const SymtRecord&) const noexcept = default;
};

// --- varint primitives (exposed for the conformance/property tests) --------

/// Append @p value as LEB128 (7 bits per byte, high bit = continuation).
void symt_put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Decode one varint from [p, end). Advances @p p past the varint. Throws
/// std::runtime_error on overflow (more than 10 bytes / 64 significant bits)
/// or when the buffer ends mid-varint.
[[nodiscard]] std::uint64_t symt_get_varint(const std::uint8_t*& p, const std::uint8_t* end);

[[nodiscard]] constexpr std::uint64_t symt_zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t symt_unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

// --- writer ----------------------------------------------------------------

/// Builds a .symt v2 image in memory, one stream per thread, and writes it
/// out in one shot (finish() / write_file()). Appends are canonical: the
/// golden-fixture suite pins decode→re-encode byte stability on them.
class SymtWriter {
 public:
  /// @param threads number of trace threads (≥ 1).
  explicit SymtWriter(std::size_t threads);

  /// Append one memory reference for @p thread; the address delta against
  /// the thread's previous reference is what lands in the file. A gap of 0
  /// costs nothing (has_gap stays clear).
  void append_mem(std::size_t thread, cachesim::Addr addr, bool is_write, std::uint32_t gap = 0);
  void append_barrier(std::size_t thread, std::uint64_t barrier_id);
  void append_lock(std::size_t thread, std::uint64_t lock_id);
  void append_unlock(std::size_t thread, std::uint64_t lock_id);
  void append_signal(std::size_t thread, std::uint64_t event_id);
  /// Wait until @p partner has issued one more Signal of @p event_id than
  /// this thread has consumed so far.
  void append_wait(std::size_t thread, std::uint64_t event_id, std::size_t partner);

  /// Append an already-decoded record (converter path).
  void append(std::size_t thread, const SymtRecord& record);

  [[nodiscard]] std::size_t threads() const noexcept { return streams_.size(); }
  [[nodiscard]] std::uint64_t records(std::size_t thread) const {
    return streams_.at(thread).records;
  }
  [[nodiscard]] std::uint64_t total_records() const noexcept;

  /// Assemble header + thread table + payloads into one image.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

  /// finish() straight to a file; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  struct Stream {
    std::vector<std::uint8_t> bytes;
    cachesim::Addr prev_addr = 0;
    std::uint64_t records = 0;
  };
  std::vector<Stream> streams_;
};

// --- reader ----------------------------------------------------------------

/// Per-thread payload location parsed out of the thread table.
struct SymtThreadInfo {
  std::uint64_t offset = 0;  ///< payload byte offset from file start
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
};

/// A validated, decodable .symt v2 image. open() maps the file read-only
/// (mmap, falling back to a plain read); from_buffer() adopts an in-memory
/// image (tests, benches, converters). All header/table validation happens
/// eagerly in the constructor; payload decoding is streamed by SymtCursor.
class SymtTrace {
 public:
  /// Map (or read) @p path. Throws std::runtime_error with a diagnostic on
  /// any structural problem: short/garbled header, unsupported version,
  /// thread table or payload overrunning the file, overlapping payloads.
  [[nodiscard]] static SymtTrace open(const std::string& path);

  /// Adopt an in-memory image (same validation as open()).
  [[nodiscard]] static SymtTrace from_buffer(std::vector<std::uint8_t> image);

  SymtTrace(SymtTrace&&) noexcept = default;
  SymtTrace& operator=(SymtTrace&&) noexcept = default;
  SymtTrace(const SymtTrace&) = delete;
  SymtTrace& operator=(const SymtTrace&) = delete;
  ~SymtTrace() = default;

  [[nodiscard]] std::size_t num_threads() const noexcept { return table_.size(); }
  [[nodiscard]] const SymtThreadInfo& thread(std::size_t t) const { return table_.at(t); }
  [[nodiscard]] std::uint64_t total_records() const noexcept { return total_records_; }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept;
  [[nodiscard]] std::size_t file_bytes() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  [[nodiscard]] const std::uint8_t* payload_begin(std::size_t t) const {
    return data_ + table_.at(t).offset;
  }
  [[nodiscard]] const std::uint8_t* payload_end(std::size_t t) const {
    return data_ + table_.at(t).offset + table_.at(t).bytes;
  }

 private:
  /// Owns the bytes behind data_: either an mmap'd region or a heap buffer.
  struct Image;
  SymtTrace(std::shared_ptr<Image> image, std::string path);

  std::shared_ptr<Image> image_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
  std::vector<SymtThreadInfo> table_;
  std::uint64_t total_records_ = 0;
};

/// Streaming decoder over one thread's payload. Holds the delta-decode state
/// (previous address); every read is bounds-checked against the payload end
/// and throws std::runtime_error on mid-record EOF, bad tags or varint
/// overflow — a corrupt payload can never read out of bounds.
class SymtCursor {
 public:
  SymtCursor(const SymtTrace& trace, std::size_t thread)
      : pos_(trace.payload_begin(thread)),
        end_(trace.payload_end(thread)),
        remaining_(trace.thread(thread).records),
        thread_(thread) {}

  /// Decode the next record into @p out. Returns false at end of stream
  /// (record count exhausted; trailing payload bytes are a decode error).
  bool next(SymtRecord& out);

  /// Fast path: decode up to @p max CONSECUTIVE memory records into
  /// @p refs (and, when non-null, their compute gaps into @p gaps). Stops
  /// early at a sync record WITHOUT consuming it — the next call to next()
  /// or decode_mem_run() sees it. Returns the number decoded.
  std::size_t decode_mem_run(cachesim::MemRef* refs, std::uint32_t* gaps, std::size_t max);

  [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }
  [[nodiscard]] std::uint64_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] std::size_t thread() const noexcept { return thread_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  std::uint64_t remaining_;
  cachesim::Addr prev_addr_ = 0;
  std::size_t thread_;
};

// --- whole-trace helpers ---------------------------------------------------

/// Aggregate statistics of a trace (the `trace_tools validate --stats`
/// summary and the run-report "trace" stanza).
struct SymtStats {
  std::uint64_t threads = 0;
  std::uint64_t records = 0;
  std::uint64_t mem_refs = 0;
  std::uint64_t writes = 0;
  std::uint64_t sync_events = 0;
  std::uint64_t barriers = 0;
  std::uint64_t locks = 0;
  std::uint64_t signals = 0;
  std::uint64_t waits = 0;
  /// Footprint: distinct 64-byte lines touched across all threads.
  std::uint64_t footprint_lines = 0;
  cachesim::Addr min_addr = 0;
  cachesim::Addr max_addr = 0;

  [[nodiscard]] double write_ratio() const noexcept {
    return mem_refs ? static_cast<double>(writes) / static_cast<double>(mem_refs) : 0.0;
  }
};

/// Fully decode @p trace and gather stats; throws on any malformed record.
/// Also the cheap "structurally sound end to end" check behind
/// `trace_tools validate`. Wait partners out of range are rejected here.
[[nodiscard]] SymtStats collect_stats(const SymtTrace& trace);

}  // namespace symbiosis::workload
