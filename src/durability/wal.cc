#include "durability/wal.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/trace.h"
#include "util/check.h"

namespace dwrs::durability {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void PutU32Le(uint8_t* p, uint32_t x) {
  p[0] = static_cast<uint8_t>(x);
  p[1] = static_cast<uint8_t>(x >> 8);
  p[2] = static_cast<uint8_t>(x >> 16);
  p[3] = static_cast<uint8_t>(x >> 24);
}

uint32_t GetU32Le(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// A single frame may not dwarf the file: a corrupted length field would
// otherwise make the reader attempt a multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

// Segment growth steps (multiples of any page size).
constexpr size_t kMinGrowth = size_t{64} << 10;
constexpr size_t kMaxGrowth = size_t{4} << 20;

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

WalWriter::WalWriter(const std::string& path, const WalWriterOptions& options,
                     bool truncate)
    : path_(path), options_(options) {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | (truncate ? O_TRUNC : 0),
               0644);
  if (fd_ < 0) {
    error_ = "open failed: " + std::string(std::strerror(errno));
    return;
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    error_ = "fstat failed: " + std::string(std::strerror(errno));
    return;
  }
  if (st.st_size > 0) {
    // Append-reopen: continue at the end of the valid prefix. Dropping
    // the rest (a torn frame, or a killed writer's zeroed space) keeps
    // the new frames from ever sitting behind bytes a reader stops at.
    const WalReadResult existing = ReadWalFile(path);
    if (!existing.ok) {
      error_ = "cannot append: " + existing.error;
      return;
    }
    if (::ftruncate(fd_, static_cast<off_t>(existing.valid_bytes)) != 0) {
      error_ = "ftruncate failed: " + std::string(std::strerror(errno));
      return;
    }
    committed_ = existing.valid_bytes;
    if (!Reserve(committed_)) return;
  } else {
    if (!Reserve(kWalHeaderSize)) return;
    std::memcpy(map_, kWalMagic, 4);
    map_[4] = kWalFormatVersion;
    committed_ = kWalHeaderSize;
  }
  if (options_.group_commit) {
    flush_worker_ = std::thread([this] { FlushWorkerMain(); });
  }
}

WalWriter::~WalWriter() { Close(); }

template <typename Encode>
size_t WalWriter::AppendFrame(const Encode& encode) {
  bool wake = false;
  size_t framed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t at = pending_.size();
    pending_.resize(at + kWalFrameOverhead);
    encode(&pending_);
    const size_t len = pending_.size() - at - kWalFrameOverhead;
    DWRS_CHECK_LE(len, static_cast<size_t>(kMaxFrameBytes));
    uint8_t* frame = pending_.data() + at;
    PutU32Le(frame, static_cast<uint32_t>(len));
    PutU32Le(frame + 4, Crc32(frame + kWalFrameOverhead, len));
    framed = len + kWalFrameOverhead;
    ++stats_.appends;
    stats_.bytes_appended += framed;
    wake = options_.group_commit && pending_.size() >= options_.flush_bytes;
  }
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kWalAppend;
    event.a = framed;
    obs::Emit(event);
  }
  if (wake) flush_cv_.notify_one();
  return framed;
}

size_t WalWriter::Append(const std::vector<uint8_t>& payload) {
  return AppendFrame([&payload](std::vector<uint8_t>* out) {
    out->insert(out->end(), payload.begin(), payload.end());
  });
}

size_t WalWriter::Append(const WalRecord& record) {
  return AppendFrame(
      [&record](std::vector<uint8_t>* out) { AppendWalRecord(out, record); });
}

bool WalWriter::Reserve(size_t bytes) {
  if (bytes <= map_bytes_) return true;
  // Grow by the current size (doubling), within [kMinGrowth, kMaxGrowth].
  const size_t step = std::clamp(map_bytes_, kMinGrowth, kMaxGrowth);
  size_t target = std::max(bytes, map_bytes_ + step);
  target = (target + kMinGrowth - 1) / kMinGrowth * kMinGrowth;
  const int rc = ::posix_fallocate(fd_, static_cast<off_t>(map_bytes_),
                                   static_cast<off_t>(target - map_bytes_));
  if (rc != 0) {
    error_ = "posix_fallocate failed: " + std::string(std::strerror(rc));
    return false;
  }
  Unmap();
  void* map =
      ::mmap(nullptr, target, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    error_ = "mmap failed: " + std::string(std::strerror(errno));
    return false;
  }
  map_ = static_cast<uint8_t*>(map);
  map_bytes_ = target;
  return true;
}

void WalWriter::Unmap() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
}

bool WalWriter::Commit() {
  std::lock_guard<std::mutex> commit(commit_mutex_);
  if (fd_ < 0 || !error_.empty()) return false;
  {
    // Take the pending frames; appenders continue into the spare buffer
    // while the copy (and fsync) proceeds.
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.empty()) return true;
    pending_.swap(batch_);
  }
  bool ok = Reserve(committed_ + batch_.size());
  if (ok) {
    std::memcpy(map_ + committed_, batch_.data(), batch_.size());
    committed_ += batch_.size();
  }
  const bool synced = ok && options_.fsync_commits;
  if (synced && ::fdatasync(fd_) != 0) {
    error_ = "fdatasync failed: " + std::string(std::strerror(errno));
    ok = false;
  }
  if (obs::TracingEnabled()) {
    obs::TraceEvent event;
    event.type = obs::EventType::kWalFsync;
    event.a = batch_.size();
    obs::Emit(event);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.commits;
    if (synced && ok) ++stats_.fsyncs;
    if (ok) stats_.bytes_committed += batch_.size();
  }
  batch_.clear();
  return ok;
}

void WalWriter::AbandonPending() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
}

bool WalWriter::Close() {
  if (flush_worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_worker_ = true;
    }
    flush_cv_.notify_one();
    flush_worker_.join();
  }
  if (fd_ < 0) return error_.empty();
  bool ok = Commit();
  std::lock_guard<std::mutex> commit(commit_mutex_);
  Unmap();
  // Give back the preallocated space past the last commit.
  if (ok && ::ftruncate(fd_, static_cast<off_t>(committed_)) != 0) {
    error_ = "ftruncate failed: " + std::string(std::strerror(errno));
    ok = false;
  }
  if (ok) {
    if (::fdatasync(fd_) != 0) {
      error_ = "fdatasync failed: " + std::string(std::strerror(errno));
      ok = false;
    } else {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.fsyncs;
    }
  }
  ::close(fd_);
  fd_ = -1;
  return ok && error_.empty();
}

size_t WalWriter::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

WalStats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void WalWriter::FlushWorkerMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_worker_) {
    flush_cv_.wait_for(
        lock, std::chrono::microseconds(options_.flush_interval_us), [this] {
          return stop_worker_ || pending_.size() >= options_.flush_bytes;
        });
    if (stop_worker_) break;
    lock.unlock();
    Commit();
    lock.lock();
  }
}

WalReadResult ReadWalFile(const std::string& path) {
  WalReadResult out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    out.error = "open failed: " + std::string(std::strerror(errno));
    return out;
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  if (bytes.size() < kWalHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, 4) != 0) {
    out.error = "bad WAL magic";
    return out;
  }
  if (bytes[4] != kWalFormatVersion) {
    out.error = "unsupported WAL format version " + std::to_string(bytes[4]);
    return out;
  }
  out.ok = true;
  // Zero bytes also parse as CRC-valid empty frames, so the valid prefix
  // ends where the all-zero remainder (space a killed writer
  // preallocated but never reached) begins.
  size_t nonzero_end = bytes.size();
  while (nonzero_end > kWalHeaderSize && bytes[nonzero_end - 1] == 0) {
    --nonzero_end;
  }
  size_t pos = kWalHeaderSize;
  while (pos < nonzero_end && pos + kWalFrameOverhead <= bytes.size()) {
    const uint32_t len = GetU32Le(bytes.data() + pos);
    const uint32_t crc = GetU32Le(bytes.data() + pos + 4);
    if (len > kMaxFrameBytes ||
        pos + kWalFrameOverhead + len > bytes.size()) {
      break;  // torn or garbage length field: end of valid prefix
    }
    const uint8_t* payload = bytes.data() + pos + kWalFrameOverhead;
    if (Crc32(payload, len) != crc) break;  // bit flip or torn payload
    out.payloads.emplace_back(payload, payload + len);
    pos += kWalFrameOverhead + len;
  }
  out.valid_bytes = pos;
  out.truncated_tail = pos < bytes.size();
  return out;
}

}  // namespace dwrs::durability
