// Write-ahead log: CRC32-framed, length-prefixed records in an
// append-only file, with group commit so the ingest hot path only
// enqueues bytes and a flush worker (or the step loop, in deterministic
// mode) pays the commit cost.
//
// File format (all fixed-width integers little-endian):
//
//   "DWAL"  magic (4 bytes)
//   u8      format version (kWalFormatVersion); readers reject others
//   frame*  where frame = u32 payload length | u32 CRC32(payload)
//           | payload bytes
//   zero*   preallocated space past the last commit (only in a segment
//           whose writer died before Close(); Close() truncates it)
//
// The payload of every frame is an encoded durability::WalRecord
// (records.h), but the framing layer is content-agnostic. A reader
// accepts the longest valid prefix: it stops at the first frame whose
// length runs past EOF or whose CRC mismatches — a torn tail from a
// mid-write kill — or at an all-zero remainder, and reports how many
// valid bytes precede it. It never resynchronizes past a bad frame: a
// valid-looking record after garbage cannot be trusted (the paper-level
// guarantee is "recover a prefix, flagged", never "skip and hope"). An
// empty payload has CRC 0, so a trailing empty frame reads as zero
// space; WalRecord payloads are never empty.
//
// Durability model: Append() frames into a user-space buffer (lost on
// kill -9, which AbandonPending() models for the in-process harness).
// The segment file is mapped MAP_SHARED, and Commit() copies the
// pending frames into the mapping: no system call. The bytes are then
// in the page cache, so a committed record survives kill -9 of the
// writer exactly as a write() would, but not power loss. fsync_commits
// adds an fdatasync per commit for that (on Linux the page cache is
// unified, so it writes back the pages dirtied through the mapping).
// The file grows in posix_fallocate'd chunks, so a full disk is a
// commit error at growth rather than a SIGBUS on a later copy. Group
// commit batches many appends per commit, trading a bounded loss window
// (the records since the last commit) for ingest throughput; the knobs
// and the tradeoff table live in README.md.

#ifndef DWRS_DURABILITY_WAL_H_
#define DWRS_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "durability/records.h"

namespace dwrs::durability {

inline constexpr char kWalMagic[4] = {'D', 'W', 'A', 'L'};
inline constexpr uint8_t kWalFormatVersion = 1;
inline constexpr size_t kWalHeaderSize = 5;
inline constexpr size_t kWalFrameOverhead = 8;  // length + crc

// CRC-32 (IEEE 802.3 polynomial, reflected), the zlib/gzip checksum.
// Self-contained table implementation — no external dependency. The
// classic check vector: Crc32 of "123456789" is 0xCBF43926.
uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0);

struct WalWriterOptions {
  // fdatasync after every Commit (the durability boundary; without it a
  // commit survives process death but not power loss).
  bool fsync_commits = false;
  // Group commit: a background flush worker commits every
  // flush_interval_us, or as soon as flush_bytes are pending. With
  // group_commit false the owner calls Commit() itself (the
  // deterministic harness commits at step boundaries).
  bool group_commit = false;
  uint64_t flush_interval_us = 2000;
  size_t flush_bytes = 256 * 1024;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t commits = 0;
  uint64_t fsyncs = 0;
  uint64_t bytes_appended = 0;   // framed bytes enqueued
  uint64_t bytes_committed = 0;  // framed bytes copied into the segment
};

// Single-writer append handle for one WAL segment file. Append() is the
// hot-path entry and may run on another thread than Commit(); with
// group commit enabled the flush worker commits too. Committers are
// serialized, so batches land in the file in the order they were taken.
class WalWriter {
 public:
  // Creates (truncating) or appends to `path`; a new file gets the
  // header. Appending continues at the end of the file's valid prefix
  // (ReadWalFile) and drops whatever lay past it. ok() is false (with
  // error()) on any I/O failure.
  WalWriter(const std::string& path, const WalWriterOptions& options,
            bool truncate = true);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  bool ok() const { return fd_ >= 0 && error_.empty(); }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

  // Frames `payload` into the pending buffer. Returns the framed size.
  size_t Append(const std::vector<uint8_t>& payload);
  // Encodes `record` straight into the pending buffer (the same bytes
  // as Append(EncodeWalRecord(record))). Returns the framed size.
  size_t Append(const WalRecord& record);

  // Copies every pending frame into the segment (+fdatasync when
  // configured). Returns false on I/O error; errors are sticky.
  // Idempotent when nothing is pending.
  bool Commit();

  // Drops the pending (uncommitted) buffer — the user-space bytes a
  // kill -9 would lose. The in-process kill harness calls this instead
  // of Commit() when tearing a shard down.
  void AbandonPending();

  // Commit(), truncate the file to the committed bytes, fdatasync
  // regardless of fsync_commits, then close. The destructor calls this;
  // explicit Close lets callers observe errors.
  bool Close();

  size_t pending_bytes() const;
  WalStats stats() const;

 private:
  template <typename Encode>
  size_t AppendFrame(const Encode& encode);
  // Grows the file and the mapping to hold at least `bytes`. Caller
  // holds commit_mutex_.
  bool Reserve(size_t bytes);
  void Unmap();
  void FlushWorkerMain();

  std::string path_;
  WalWriterOptions options_;
  int fd_ = -1;
  std::string error_;

  // Committers (Commit on any thread, the flush worker, Close) hold
  // commit_mutex_ for the whole commit; it guards the mapping, the
  // committed length and batch_. Lock order: commit_mutex_, then mutex_.
  std::mutex commit_mutex_;
  uint8_t* map_ = nullptr;
  size_t map_bytes_ = 0;   // mapped = allocated file length
  size_t committed_ = 0;   // header + committed frames
  std::vector<uint8_t> batch_;  // the frames being copied (spare buffer)

  // Appenders and committers hand frames over under mutex_.
  mutable std::mutex mutex_;
  std::vector<uint8_t> pending_;
  WalStats stats_;

  std::thread flush_worker_;
  std::condition_variable flush_cv_;
  bool stop_worker_ = false;
};

// Result of scanning one WAL segment.
struct WalReadResult {
  bool ok = false;           // header valid and readable at all
  std::string error;         // why ok is false
  std::vector<std::vector<uint8_t>> payloads;  // the valid prefix
  uint64_t valid_bytes = 0;  // header + valid frames
  // Bytes exist past the valid prefix (torn frame, bad CRC, garbage, or
  // the zeroed space of a writer that died before Close). The caller
  // decides whether that is expected (the final segment of a killed
  // writer) or a flagged corruption.
  bool truncated_tail = false;
};

// Scans `path`, returning the longest valid prefix of frames. A missing
// file is ok=false with error set; an empty-but-valid-header file is
// ok=true with zero payloads.
WalReadResult ReadWalFile(const std::string& path);

}  // namespace dwrs::durability

#endif  // DWRS_DURABILITY_WAL_H_
