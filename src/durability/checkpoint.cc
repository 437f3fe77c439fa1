#include "durability/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/records.h"
#include "durability/wal.h"
#include "sim/codec.h"

namespace dwrs::durability {

namespace {

void PutU64Le(std::vector<uint8_t>* out, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(x >> (8 * i)));
  }
}

void PutU32Le(std::vector<uint8_t>* out, uint32_t x) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(x >> (8 * i)));
  }
}

void PutSample(std::vector<uint8_t>* out, const MergeableSample& sample) {
  out->push_back(static_cast<uint8_t>(sample.kind));
  sim::PutVarint(out, sample.target_size);
  sim::PutVarint(out, sample.state_version);
  sim::PutVarint(out, sample.entries.size());
  for (const KeyedItem& e : sample.entries) {
    sim::PutVarint(out, e.item.id);
    PutF64(out, e.item.weight);
    PutF64(out, e.key);
  }
  sim::PutVarint(out, sample.withheld.size());
  for (const LeveledKeyedItem& w : sample.withheld) {
    sim::PutVarint(out, w.entry.item.id);
    PutF64(out, w.entry.item.weight);
    PutF64(out, w.entry.key);
    PutZigzag(out, w.level);
  }
  sim::PutVarint(out, sample.level_counts.size());
  for (const LevelCount& lc : sample.level_counts) {
    PutZigzag(out, lc.level);
    sim::PutVarint(out, lc.count);
  }
  sim::PutVarint(out, sample.slots.size());
  for (const MergeableSample::Slot& slot : sample.slots) {
    out->push_back(slot.filled ? 1 : 0);
    PutF64(out, slot.key);
    sim::PutVarint(out, slot.item.id);
    PutF64(out, slot.item.weight);
  }
  PutF64(out, sample.scalar);
}

void PutMessageStats(std::vector<uint8_t>* out, const sim::MessageStats& m) {
  sim::PutVarint(out, m.site_to_coord);
  sim::PutVarint(out, m.coord_to_site);
  sim::PutVarint(out, m.broadcast_events);
  sim::PutVarint(out, m.words);
  for (uint64_t v : m.by_type) sim::PutVarint(out, v);
}

// Sequential decoder: every getter returns a default and latches
// failure on truncation/malformation, so call sites stay linear and one
// final ok() check covers the whole body.
class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& bytes, size_t pos)
      : bytes_(bytes), pos_(pos) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  uint64_t Varint() {
    const std::optional<uint64_t> v = sim::GetVarint(bytes_, &pos_);
    if (!v) return Fail<uint64_t>();
    return *v;
  }
  int64_t Zigzag() {
    const std::optional<int64_t> v = GetZigzag(bytes_, &pos_);
    if (!v) return Fail<int64_t>();
    return *v;
  }
  double F64() {
    const std::optional<double> v = GetF64(bytes_, &pos_);
    if (!v) return Fail<double>();
    return *v;
  }
  uint64_t U64() {
    if (pos_ + 8 > bytes_.size()) return Fail<uint64_t>();
    uint64_t x = 0;
    for (int i = 0; i < 8; ++i) {
      x |= static_cast<uint64_t>(bytes_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return x;
  }
  uint8_t Byte() {
    if (pos_ >= bytes_.size()) return Fail<uint8_t>();
    return bytes_[pos_++];
  }
  bool Bool() {
    const uint8_t b = Byte();
    if (b > 1) return Fail<bool>();
    return b == 1;
  }
  sim::Payload Msg() {
    const uint64_t len = Varint();
    if (!ok_ || pos_ + len > bytes_.size()) return Fail<sim::Payload>();
    const std::vector<uint8_t> wire(
        bytes_.begin() + static_cast<ptrdiff_t>(pos_),
        bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    const std::optional<sim::Payload> msg = sim::DecodePayload(wire);
    if (!msg) return Fail<sim::Payload>();
    return *msg;
  }
  // Bounds element counts so a corrupted count can't drive a huge
  // allocation before the CRC... (the CRC already gates entry, but the
  // decoder is also exercised directly by the fuzz test).
  size_t Count() {
    const uint64_t n = Varint();
    if (n > (1u << 26)) return Fail<size_t>();
    return static_cast<size_t>(n);
  }

  MergeableSample Sample() {
    MergeableSample s;
    s.kind = static_cast<SampleKind>(Byte());
    s.target_size = static_cast<size_t>(Varint());
    s.state_version = Varint();
    s.entries.resize(Count());
    if (!ok_) return s;
    for (KeyedItem& e : s.entries) {
      e.item.id = Varint();
      e.item.weight = F64();
      e.key = F64();
    }
    s.withheld.resize(Count());
    if (!ok_) return s;
    for (LeveledKeyedItem& w : s.withheld) {
      w.entry.item.id = Varint();
      w.entry.item.weight = F64();
      w.entry.key = F64();
      w.level = static_cast<int>(Zigzag());
    }
    s.level_counts.resize(Count());
    if (!ok_) return s;
    for (LevelCount& lc : s.level_counts) {
      lc.level = static_cast<int>(Zigzag());
      lc.count = Varint();
    }
    s.slots.resize(Count());
    if (!ok_) return s;
    for (MergeableSample::Slot& slot : s.slots) {
      slot.filled = Bool();
      slot.key = F64();
      slot.item.id = Varint();
      slot.item.weight = F64();
    }
    s.scalar = F64();
    return s;
  }

  sim::MessageStats MessageStats() {
    sim::MessageStats m;
    m.site_to_coord = Varint();
    m.coord_to_site = Varint();
    m.broadcast_events = Varint();
    m.words = Varint();
    for (uint64_t& v : m.by_type) v = Varint();
    return m;
  }

 private:
  template <typename T>
  T Fail() {
    ok_ = false;
    return T{};
  }

  const std::vector<uint8_t>& bytes_;
  size_t pos_;
  bool ok_ = true;
};

bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    *error = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      *error = "write " + tmp + ": " + std::strerror(errno);
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    *error = "fsync " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename to " + path + ": " + std::strerror(errno);
    return false;
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

// ckpt-<seq>.bin -> seq; nullopt for anything else.
std::optional<uint64_t> CheckpointSeqOf(const std::string& name) {
  constexpr const char* kPrefix = "ckpt-";
  constexpr const char* kSuffix = ".bin";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  const size_t suffix_at = name.size() - std::strlen(kSuffix);
  if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix) ||
      name.compare(suffix_at, std::strlen(kSuffix), kSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = std::strlen(kPrefix); i < suffix_at; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::optional<uint64_t> WalSeqOf(const std::string& name) {
  constexpr const char* kPrefix = "wal-";
  constexpr const char* kSuffix = ".log";
  if (name.rfind(kPrefix, 0) != 0) return std::nullopt;
  const size_t suffix_at = name.size() - std::strlen(kSuffix);
  if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix) ||
      name.compare(suffix_at, std::strlen(kSuffix), kSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = std::strlen(kPrefix); i < suffix_at; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (dirent* entry = ::readdir(d)) {
    names.emplace_back(entry->d_name);
  }
  ::closedir(d);
  return names;
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/ckpt-" + std::to_string(seq) + ".bin";
}

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/wal-" + std::to_string(seq) + ".log";
}

bool EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return true;
  if (errno != EEXIST) return false;
  struct stat st;
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::vector<uint8_t> EncodeCheckpoint(const ShardCheckpoint& c) {
  std::vector<uint8_t> body;
  sim::PutVarint(&body, c.checkpoint_seq);
  sim::PutVarint(&body, c.step);
  sim::PutVarint(&body, c.wal_records_logged);

  const query::ShardSnapshot& snap = c.snapshot;
  sim::PutVarint(&body, snap.publish_seq);
  sim::PutVarint(&body, snap.state_version);
  sim::PutVarint(&body, snap.steps);
  sim::PutVarint(&body, snap.session_epoch);
  body.push_back(snap.stale ? 1 : 0);
  PutSample(&body, snap.sample);
  PutF64(&body, snap.threshold);
  PutF64(&body, snap.l1_estimate);
  PutMessageStats(&body, snap.messages);

  const WsworCoordinator::State& coord = c.coordinator;
  for (uint64_t w : coord.rng) PutU64Le(&body, w);
  PutZigzag(&body, coord.announced_epoch);
  sim::PutVarint(&body, coord.early_received);
  sim::PutVarint(&body, coord.regular_received);
  sim::PutVarint(&body, coord.state_version);
  PutSample(&body, coord.summary);
  sim::PutVarint(&body, coord.saturated_levels.size());
  for (int level : coord.saturated_levels) PutZigzag(&body, level);

  const faults::CoordinatorSession::State& sess = c.session;
  sim::PutVarint(&body, sess.peers.size());
  for (const faults::CoordinatorSession::PeerState& peer : sess.peers) {
    sim::PutVarint(&body, peer.epoch);
    sim::PutVarint(&body, peer.expected_seq);
    sim::PutVarint(&body, peer.max_seen_seq);
    sim::PutVarint(&body, peer.last_nacked_expected);
  }
  PutU64Le(&body, sess.transcript_hash);
  sim::PutVarint(&body, sess.delivered);
  sim::PutVarint(&body, sess.duplicates_dropped);
  sim::PutVarint(&body, sess.stale_epoch_dropped);
  sim::PutVarint(&body, sess.gaps_detected);
  sim::PutVarint(&body, sess.nacks_sent);
  sim::PutVarint(&body, sess.crash_detections);
  sim::PutVarint(&body, sess.resyncs_sent);

  sim::PutVarint(&body, c.site_valid.size());
  body.insert(body.end(), c.site_valid.begin(), c.site_valid.end());

  sim::PutVarint(&body, c.site_sessions.size());
  for (const faults::SiteSession::State& s : c.site_sessions) {
    sim::PutVarint(&body, s.epoch);
    sim::PutVarint(&body, s.next_seq);
    sim::PutVarint(&body, s.unacked.size());
    for (const sim::Payload& msg : s.unacked) sim::PutSizedPayload(&body, msg);
    body.push_back(s.retransmit_pending ? 1 : 0);
    sim::PutVarint(&body, s.retransmit_from);
    sim::PutVarint(&body, s.items_seen);
    body.push_back(s.down ? 1 : 0);
    sim::PutVarint(&body, s.down_remaining);
    sim::PutVarint(&body, s.crashes);
    sim::PutVarint(&body, s.lost_unacked);
    sim::PutVarint(&body, s.items_lost);
    sim::PutVarint(&body, s.messages_dropped_down);
    sim::PutVarint(&body, s.retransmits_sent);
    sim::PutVarint(&body, s.pre_crash_counters.keys_decided);
    sim::PutVarint(&body, s.pre_crash_counters.key_bits_consumed);
    sim::PutVarint(&body, s.pre_crash_counters.skips_taken);
  }

  sim::PutVarint(&body, c.sites.size());
  for (const WsworSite::State& s : c.sites) {
    for (uint64_t w : s.rng) PutU64Le(&body, w);
    body.push_back(s.filter.has_pending ? 1 : 0);
    PutF64(&body, s.filter.pending);
    PutF64(&body, s.filter.value);
    sim::PutVarint(&body, s.filter.decisions);
    sim::PutVarint(&body, s.filter.accepts);
    sim::PutVarint(&body, s.filter.skips_taken);
    sim::PutVarint(&body, s.filter.draws);
    PutF64(&body, s.threshold);
    sim::PutVarint(&body, s.saturated.size());
    body.insert(body.end(), s.saturated.begin(), s.saturated.end());
  }

  const faults::FaultyTransport::State& t = c.transport;
  sim::PutVarint(&body, t.channels.size());
  for (const faults::FaultyTransport::ChannelState& ch : t.channels) {
    sim::PutVarint(&body, ch.next_index);
    sim::PutVarint(&body, ch.held.size());
    for (const auto& [release_at, msg] : ch.held) {
      sim::PutVarint(&body, release_at);
      sim::PutSizedPayload(&body, msg);
    }
  }
  sim::PutVarint(&body, t.forwarded);
  sim::PutVarint(&body, t.dropped);
  sim::PutVarint(&body, t.duplicated);
  sim::PutVarint(&body, t.delayed);
  body.push_back(t.enabled ? 1 : 0);

  sim::PutVarint(&body, c.kills_done);
  sim::PutVarint(&body, c.last_kill_step);

  std::vector<uint8_t> out(kCheckpointMagic, kCheckpointMagic + 4);
  out.push_back(kCheckpointFormatVersion);
  PutU32Le(&out, Crc32(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::optional<ShardCheckpoint> DecodeCheckpoint(
    const std::vector<uint8_t>& bytes) {
  constexpr size_t kHeader = 4 + 1 + 4;
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kCheckpointMagic, 4) != 0 ||
      bytes[4] != kCheckpointFormatVersion) {
    return std::nullopt;
  }
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<uint32_t>(bytes[5 + static_cast<size_t>(i)]) << (8 * i);
  }
  if (Crc32(bytes.data() + kHeader, bytes.size() - kHeader) != crc) {
    return std::nullopt;
  }

  Decoder d(bytes, kHeader);
  ShardCheckpoint c;
  c.checkpoint_seq = d.Varint();
  c.step = d.Varint();
  c.wal_records_logged = d.Varint();

  c.snapshot.publish_seq = d.Varint();
  c.snapshot.state_version = d.Varint();
  c.snapshot.steps = d.Varint();
  c.snapshot.session_epoch = d.Varint();
  c.snapshot.stale = d.Bool();
  c.snapshot.sample = d.Sample();
  c.snapshot.threshold = d.F64();
  c.snapshot.l1_estimate = d.F64();
  c.snapshot.messages = d.MessageStats();

  for (uint64_t& w : c.coordinator.rng) w = d.U64();
  c.coordinator.announced_epoch = static_cast<int>(d.Zigzag());
  c.coordinator.early_received = d.Varint();
  c.coordinator.regular_received = d.Varint();
  c.coordinator.state_version = d.Varint();
  c.coordinator.summary = d.Sample();
  c.coordinator.saturated_levels.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (int& level : c.coordinator.saturated_levels) {
    level = static_cast<int>(d.Zigzag());
  }

  c.session.peers.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (faults::CoordinatorSession::PeerState& peer : c.session.peers) {
    peer.epoch = static_cast<uint32_t>(d.Varint());
    peer.expected_seq = static_cast<uint32_t>(d.Varint());
    peer.max_seen_seq = static_cast<uint32_t>(d.Varint());
    peer.last_nacked_expected = static_cast<uint32_t>(d.Varint());
  }
  c.session.transcript_hash = d.U64();
  c.session.delivered = d.Varint();
  c.session.duplicates_dropped = d.Varint();
  c.session.stale_epoch_dropped = d.Varint();
  c.session.gaps_detected = d.Varint();
  c.session.nacks_sent = d.Varint();
  c.session.crash_detections = d.Varint();
  c.session.resyncs_sent = d.Varint();

  c.site_valid.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (uint8_t& v : c.site_valid) v = d.Byte();

  c.site_sessions.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (faults::SiteSession::State& s : c.site_sessions) {
    s.epoch = static_cast<uint32_t>(d.Varint());
    s.next_seq = static_cast<uint32_t>(d.Varint());
    s.unacked.resize(d.Count());
    if (!d.ok()) return std::nullopt;
    for (sim::Payload& msg : s.unacked) msg = d.Msg();
    s.retransmit_pending = d.Bool();
    s.retransmit_from = static_cast<uint32_t>(d.Varint());
    s.items_seen = d.Varint();
    s.down = d.Bool();
    s.down_remaining = d.Varint();
    s.crashes = d.Varint();
    s.lost_unacked = d.Varint();
    s.items_lost = d.Varint();
    s.messages_dropped_down = d.Varint();
    s.retransmits_sent = d.Varint();
    s.pre_crash_counters.keys_decided = d.Varint();
    s.pre_crash_counters.key_bits_consumed = d.Varint();
    s.pre_crash_counters.skips_taken = d.Varint();
  }

  c.sites.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (WsworSite::State& s : c.sites) {
    for (uint64_t& w : s.rng) w = d.U64();
    s.filter.has_pending = d.Bool();
    s.filter.pending = d.F64();
    s.filter.value = d.F64();
    s.filter.decisions = d.Varint();
    s.filter.accepts = d.Varint();
    s.filter.skips_taken = d.Varint();
    s.filter.draws = d.Varint();
    s.threshold = d.F64();
    s.saturated.resize(d.Count());
    if (!d.ok()) return std::nullopt;
    for (uint8_t& v : s.saturated) v = d.Byte();
  }

  c.transport.channels.resize(d.Count());
  if (!d.ok()) return std::nullopt;
  for (faults::FaultyTransport::ChannelState& ch : c.transport.channels) {
    ch.next_index = d.Varint();
    ch.held.resize(d.Count());
    if (!d.ok()) return std::nullopt;
    for (auto& [release_at, msg] : ch.held) {
      release_at = d.Varint();
      msg = d.Msg();
    }
  }
  c.transport.forwarded = d.Varint();
  c.transport.dropped = d.Varint();
  c.transport.duplicated = d.Varint();
  c.transport.delayed = d.Varint();
  c.transport.enabled = d.Bool();

  c.kills_done = d.Varint();
  c.last_kill_step = d.Varint();

  if (!d.ok() || !d.AtEnd()) return std::nullopt;
  return c;
}

bool WriteCheckpointFile(const std::string& dir,
                         const ShardCheckpoint& checkpoint,
                         std::string* error) {
  const std::vector<uint8_t> bytes = EncodeCheckpoint(checkpoint);
  if (!WriteFileAtomic(CheckpointPath(dir, checkpoint.checkpoint_seq), bytes,
                       error)) {
    return false;
  }
  // Two generations retained: this one and its predecessor (the
  // fallback). Everything older — checkpoints and their WAL segments —
  // is superseded.
  for (const std::string& name : ListDir(dir)) {
    const std::optional<uint64_t> ckpt_seq = CheckpointSeqOf(name);
    const std::optional<uint64_t> wal_seq = WalSeqOf(name);
    const bool stale_ckpt =
        ckpt_seq && checkpoint.checkpoint_seq >= 1 &&
        *ckpt_seq < checkpoint.checkpoint_seq - 1;
    const bool stale_wal = wal_seq && checkpoint.checkpoint_seq >= 1 &&
                           *wal_seq < checkpoint.checkpoint_seq - 1;
    if (stale_ckpt || stale_wal) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  return true;
}

std::optional<ShardCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  std::vector<uint64_t> seqs;
  for (const std::string& name : ListDir(dir)) {
    if (const std::optional<uint64_t> seq = CheckpointSeqOf(name)) {
      seqs.push_back(*seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  for (uint64_t seq : seqs) {
    const std::vector<uint8_t> bytes =
        ReadFileBytes(CheckpointPath(dir, seq));
    if (std::optional<ShardCheckpoint> c = DecodeCheckpoint(bytes)) {
      return c;
    }
    // Corrupt or torn: fall back to the previous generation.
  }
  return std::nullopt;
}

}  // namespace dwrs::durability
