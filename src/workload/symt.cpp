#include "workload/symt.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/check.hpp"

namespace symbiosis::workload {

namespace {

constexpr char kMagic[4] = {'S', 'Y', 'M', 'T'};
constexpr std::uint8_t kOpMask = 0x07;
constexpr std::uint8_t kGapFlag = 0x08;
constexpr std::uint8_t kReservedMask = 0xf0;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::string to_string(SymtOp op) {
  switch (op) {
    case SymtOp::Read: return "read";
    case SymtOp::Write: return "write";
    case SymtOp::Barrier: return "barrier";
    case SymtOp::LockAcquire: return "lock";
    case SymtOp::LockRelease: return "unlock";
    case SymtOp::Signal: return "signal";
    case SymtOp::Wait: return "wait";
  }
  return "?";
}

// --- varint primitives -----------------------------------------------------

void symt_put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t symt_get_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    if (p == end) throw std::runtime_error("symt: payload ends mid-varint");
    const std::uint8_t byte = *p++;
    if (shift == 63 && byte > 1) throw std::runtime_error("symt: varint overflows 64 bits");
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) throw std::runtime_error("symt: varint overflows 64 bits");
  }
}

// --- writer ----------------------------------------------------------------

SymtWriter::SymtWriter(std::size_t threads) : streams_(threads) {
  if (threads == 0) throw std::invalid_argument("SymtWriter: need at least one thread");
  if (threads > kSymtMaxThreads) throw std::invalid_argument("SymtWriter: too many threads");
}

void SymtWriter::append_mem(std::size_t thread, cachesim::Addr addr, bool is_write,
                            std::uint32_t gap) {
  Stream& s = streams_.at(thread);
  const auto delta = static_cast<std::int64_t>(addr - s.prev_addr);
  std::uint8_t tag = static_cast<std::uint8_t>(is_write ? SymtOp::Write : SymtOp::Read);
  if (gap != 0) tag |= kGapFlag;
  s.bytes.push_back(tag);
  symt_put_varint(s.bytes, symt_zigzag(delta));
  if (gap != 0) symt_put_varint(s.bytes, gap);
  s.prev_addr = addr;
  ++s.records;
}

void SymtWriter::append_barrier(std::size_t thread, std::uint64_t barrier_id) {
  Stream& s = streams_.at(thread);
  s.bytes.push_back(static_cast<std::uint8_t>(SymtOp::Barrier));
  symt_put_varint(s.bytes, barrier_id);
  ++s.records;
}

void SymtWriter::append_lock(std::size_t thread, std::uint64_t lock_id) {
  Stream& s = streams_.at(thread);
  s.bytes.push_back(static_cast<std::uint8_t>(SymtOp::LockAcquire));
  symt_put_varint(s.bytes, lock_id);
  ++s.records;
}

void SymtWriter::append_unlock(std::size_t thread, std::uint64_t lock_id) {
  Stream& s = streams_.at(thread);
  s.bytes.push_back(static_cast<std::uint8_t>(SymtOp::LockRelease));
  symt_put_varint(s.bytes, lock_id);
  ++s.records;
}

void SymtWriter::append_signal(std::size_t thread, std::uint64_t event_id) {
  Stream& s = streams_.at(thread);
  s.bytes.push_back(static_cast<std::uint8_t>(SymtOp::Signal));
  symt_put_varint(s.bytes, event_id);
  ++s.records;
}

void SymtWriter::append_wait(std::size_t thread, std::uint64_t event_id, std::size_t partner) {
  if (partner >= streams_.size()) {
    throw std::invalid_argument("SymtWriter: wait partner thread out of range");
  }
  Stream& s = streams_.at(thread);
  s.bytes.push_back(static_cast<std::uint8_t>(SymtOp::Wait));
  symt_put_varint(s.bytes, event_id);
  symt_put_varint(s.bytes, partner);
  ++s.records;
}

void SymtWriter::append(std::size_t thread, const SymtRecord& record) {
  switch (record.op) {
    case SymtOp::Read:
    case SymtOp::Write:
      append_mem(thread, record.addr, record.op == SymtOp::Write, record.gap);
      return;
    case SymtOp::Barrier: append_barrier(thread, record.arg); return;
    case SymtOp::LockAcquire: append_lock(thread, record.arg); return;
    case SymtOp::LockRelease: append_unlock(thread, record.arg); return;
    case SymtOp::Signal: append_signal(thread, record.arg); return;
    case SymtOp::Wait: append_wait(thread, record.arg, record.partner); return;
  }
  throw std::invalid_argument("SymtWriter: unknown record opcode");
}

std::uint64_t SymtWriter::total_records() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : streams_) total += s.records;
  return total;
}

std::vector<std::uint8_t> SymtWriter::finish() const {
  std::vector<std::uint8_t> out;
  std::size_t payload = 0;
  for (const auto& s : streams_) payload += s.bytes.size();
  out.reserve(kSymtHeaderBytes + kSymtThreadEntryBytes * streams_.size() + payload);

  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u32(out, kSymtVersion);
  put_u32(out, static_cast<std::uint32_t>(streams_.size()));
  put_u32(out, 0);  // flags
  put_u64(out, total_records());

  std::uint64_t offset = kSymtHeaderBytes + kSymtThreadEntryBytes * streams_.size();
  for (const auto& s : streams_) {
    put_u64(out, offset);
    put_u64(out, s.bytes.size());
    put_u64(out, s.records);
    offset += s.bytes.size();
  }
  for (const auto& s : streams_) out.insert(out.end(), s.bytes.begin(), s.bytes.end());
  return out;
}

void SymtWriter::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> image = finish();
  FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) throw std::runtime_error("SymtWriter: cannot open " + path);
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != image.size() || !closed) {
    throw std::runtime_error("SymtWriter: write failed for " + path);
  }
}

// --- reader ----------------------------------------------------------------

/// Backing storage of a mapped/loaded trace: exactly one of map_ / heap_.
struct SymtTrace::Image {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  void* map = nullptr;  // munmap target when the file was mmap'd
  std::vector<std::uint8_t> heap;

  Image() = default;
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;
  ~Image() {
    if (map != nullptr && size > 0) ::munmap(map, size);
  }
};

SymtTrace::SymtTrace(std::shared_ptr<Image> image, std::string path)
    : image_(std::move(image)), data_(image_->data), size_(image_->size),
      path_(std::move(path)) {
  auto fail = [this](const std::string& what) {
    throw std::runtime_error("symt: " + what + " in " + path_);
  };
  if (size_ < kSymtHeaderBytes) fail("truncated header");
  if (std::memcmp(data_, kMagic, 4) != 0) fail("bad magic (not a SYMT trace)");
  const std::uint32_t version = get_u32(data_ + 4);
  if (version != kSymtVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kSymtVersion) + "; version 1 is the retired fixed-width format)");
  }
  const std::uint32_t threads = get_u32(data_ + 8);
  if (threads == 0) fail("zero threads");
  if (threads > kSymtMaxThreads) fail("implausible thread count " + std::to_string(threads));
  const std::uint32_t flags = get_u32(data_ + 12);
  if (flags != 0) fail("unknown header flags");
  total_records_ = get_u64(data_ + 16);

  const std::uint64_t table_end =
      kSymtHeaderBytes + static_cast<std::uint64_t>(kSymtThreadEntryBytes) * threads;
  if (table_end > size_) fail("thread table overruns the file");

  table_.reserve(threads);
  std::uint64_t expected_offset = table_end;
  std::uint64_t record_sum = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    const std::uint8_t* entry = data_ + kSymtHeaderBytes + kSymtThreadEntryBytes * t;
    SymtThreadInfo info;
    info.offset = get_u64(entry);
    info.bytes = get_u64(entry + 8);
    info.records = get_u64(entry + 16);
    // Payloads must tile [table_end, size) in order: this rules out
    // overlaps, gaps, and out-of-bounds in one comparison each.
    if (info.offset != expected_offset) {
      fail("thread " + std::to_string(t) + " payload offset is not contiguous");
    }
    if (info.offset + info.bytes < info.offset || info.offset + info.bytes > size_) {
      fail("thread " + std::to_string(t) + " payload overruns the file");
    }
    if (info.records > info.bytes) {
      // Every record is at least one byte, so this header lies.
      fail("thread " + std::to_string(t) + " claims more records than payload bytes");
    }
    expected_offset = info.offset + info.bytes;
    record_sum += info.records;
    table_.push_back(info);
  }
  if (expected_offset != size_) fail("trailing bytes after the last payload");
  if (record_sum != total_records_) fail("header record count disagrees with thread table");
}

SymtTrace SymtTrace::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("symt: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error("symt: cannot stat " + path);
  }
  auto image = std::make_shared<Image>();
  image->size = static_cast<std::size_t>(st.st_size);
  if (image->size > 0) {
    void* map = ::mmap(nullptr, image->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      image->map = map;
      image->data = static_cast<const std::uint8_t*>(map);
    } else {
      // Not mappable (e.g. some special filesystems): fall back to a read.
      image->heap.resize(image->size);
      std::size_t got = 0;
      while (got < image->size) {
        const ::ssize_t n = ::read(fd, image->heap.data() + got, image->size - got);
        if (n <= 0) {
          ::close(fd);
          throw std::runtime_error("symt: read failed for " + path);
        }
        got += static_cast<std::size_t>(n);
      }
      image->data = image->heap.data();
    }
  }
  ::close(fd);
  return SymtTrace(std::move(image), path);
}

SymtTrace SymtTrace::from_buffer(std::vector<std::uint8_t> buffer) {
  auto image = std::make_shared<Image>();
  image->heap = std::move(buffer);
  image->data = image->heap.data();
  image->size = image->heap.size();
  return SymtTrace(std::move(image), "<memory>");
}

std::uint64_t SymtTrace::payload_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& info : table_) total += info.bytes;
  return total;
}

// --- cursor ----------------------------------------------------------------

void SymtCursor::fail(const std::string& what) const {
  throw std::runtime_error("symt: thread " + std::to_string(thread_) + ": " + what);
}

bool SymtCursor::next(SymtRecord& out) {
  if (remaining_ == 0) {
    if (pos_ != end_) fail("trailing bytes after the last record");
    return false;
  }
  if (pos_ == end_) fail("payload ends before the declared record count");
  const std::uint8_t tag = *pos_++;
  if ((tag & kReservedMask) != 0) fail("reserved tag bits set (corrupt record)");
  const auto raw_op = static_cast<std::uint8_t>(tag & kOpMask);
  if (raw_op > static_cast<std::uint8_t>(SymtOp::Wait)) fail("unknown opcode");
  const auto op = static_cast<SymtOp>(raw_op);
  const bool has_gap = (tag & kGapFlag) != 0;
  if (has_gap && op != SymtOp::Read && op != SymtOp::Write) {
    fail("gap flag on a non-memory record");
  }

  out = SymtRecord{};
  out.op = op;
  switch (op) {
    case SymtOp::Read:
    case SymtOp::Write: {
      const std::int64_t delta = symt_unzigzag(symt_get_varint(pos_, end_));
      prev_addr_ += static_cast<cachesim::Addr>(delta);
      out.addr = prev_addr_;
      if (has_gap) {
        const std::uint64_t gap = symt_get_varint(pos_, end_);
        if (gap == 0) fail("explicit zero gap (non-canonical encoding)");
        if (gap > ~std::uint32_t{0}) fail("compute gap overflows 32 bits");
        out.gap = static_cast<std::uint32_t>(gap);
      }
      break;
    }
    case SymtOp::Barrier:
    case SymtOp::LockAcquire:
    case SymtOp::LockRelease:
    case SymtOp::Signal:
      out.arg = symt_get_varint(pos_, end_);
      break;
    case SymtOp::Wait: {
      out.arg = symt_get_varint(pos_, end_);
      const std::uint64_t partner = symt_get_varint(pos_, end_);
      if (partner > kSymtMaxThreads) fail("wait partner thread id is implausible");
      out.partner = static_cast<std::uint32_t>(partner);
      break;
    }
  }
  --remaining_;
  return true;
}

std::size_t SymtCursor::decode_mem_run(cachesim::MemRef* refs, std::uint32_t* gaps,
                                       std::size_t max) {
  std::size_t n = 0;
  const std::uint8_t* p = pos_;
  cachesim::Addr addr = prev_addr_;
  std::uint64_t remaining = remaining_;
  while (n < max && remaining > 0) {
    if (p == end_) fail("payload ends before the declared record count");
    const std::uint8_t tag = *p;
    if ((tag & kOpMask) > static_cast<std::uint8_t>(SymtOp::Write) ||
        (tag & kReservedMask) != 0) {
      break;  // sync record (or corruption): hand back to next()
    }
    ++p;
    const std::int64_t delta = symt_unzigzag(symt_get_varint(p, end_));
    addr += static_cast<cachesim::Addr>(delta);
    refs[n].addr = addr;
    refs[n].is_write = (tag & kOpMask) == static_cast<std::uint8_t>(SymtOp::Write);
    std::uint32_t gap = 0;
    if ((tag & kGapFlag) != 0) {
      const std::uint64_t g = symt_get_varint(p, end_);
      if (g == 0) fail("explicit zero gap (non-canonical encoding)");
      if (g > ~std::uint32_t{0}) fail("compute gap overflows 32 bits");
      gap = static_cast<std::uint32_t>(g);
    }
    if (gaps) gaps[n] = gap;
    ++n;
    --remaining;
  }
  pos_ = p;
  prev_addr_ = addr;
  remaining_ = remaining;
  return n;
}

// --- stats -----------------------------------------------------------------

SymtStats collect_stats(const SymtTrace& trace) {
  SymtStats stats;
  stats.threads = trace.num_threads();
  std::unordered_set<std::uint64_t> lines;
  bool any_mem = false;
  for (std::size_t t = 0; t < trace.num_threads(); ++t) {
    SymtCursor cursor(trace, t);
    SymtRecord rec;
    while (cursor.next(rec)) {
      ++stats.records;
      if (rec.is_mem()) {
        ++stats.mem_refs;
        if (rec.op == SymtOp::Write) ++stats.writes;
        lines.insert(rec.addr >> 6);
        if (!any_mem || rec.addr < stats.min_addr) stats.min_addr = rec.addr;
        if (!any_mem || rec.addr > stats.max_addr) stats.max_addr = rec.addr;
        any_mem = true;
        continue;
      }
      ++stats.sync_events;
      switch (rec.op) {
        case SymtOp::Barrier: ++stats.barriers; break;
        case SymtOp::LockAcquire:
        case SymtOp::LockRelease: ++stats.locks; break;
        case SymtOp::Signal: ++stats.signals; break;
        case SymtOp::Wait:
          ++stats.waits;
          if (rec.partner >= trace.num_threads()) {
            throw std::runtime_error("symt: thread " + std::to_string(t) +
                                     " waits on nonexistent thread " +
                                     std::to_string(rec.partner));
          }
          break;
        default: break;
      }
    }
  }
  stats.footprint_lines = lines.size();
  return stats;
}

}  // namespace symbiosis::workload
