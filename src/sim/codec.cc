#include "sim/codec.h"

#include <cstring>

namespace dwrs::sim {
namespace {

constexpr uint8_t kHasX = 1;
constexpr uint8_t kHasY = 2;
constexpr uint8_t kHasSeq = 4;
constexpr uint8_t kHasEpoch = 8;

void PutDouble(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

std::optional<double> GetDouble(const std::vector<uint8_t>& in, size_t* pos) {
  if (*pos + 8 > in.size()) return std::nullopt;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(in[*pos + static_cast<size_t>(i)])
            << (8 * i);
  }
  *pos += 8;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void AppendPayload(std::vector<uint8_t>* out, const Payload& msg) {
  PutVarint(out, msg.type);
  PutVarint(out, msg.a);
  uint8_t flags = 0;
  if (msg.x != 0.0) flags |= kHasX;
  if (msg.y != 0.0) flags |= kHasY;
  if (msg.seq != 0) flags |= kHasSeq;
  if (msg.epoch != 0) flags |= kHasEpoch;
  out->push_back(flags);
  if (flags & kHasSeq) PutVarint(out, msg.seq);
  if (flags & kHasEpoch) PutVarint(out, msg.epoch);
  if (flags & kHasX) PutDouble(out, msg.x);
  if (flags & kHasY) PutDouble(out, msg.y);
}

}  // namespace

void PutVarint(std::vector<uint8_t>* out, uint64_t x) {
  while (x >= 0x80) {
    out->push_back(static_cast<uint8_t>(x) | 0x80);
    x >>= 7;
  }
  out->push_back(static_cast<uint8_t>(x));
}

std::optional<uint64_t> GetVarint(const std::vector<uint8_t>& in,
                                  size_t* pos) {
  uint64_t x = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (*pos >= in.size()) return std::nullopt;
    const uint8_t byte = in[(*pos)++];
    x |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return x;
    shift += 7;
  }
  return std::nullopt;  // over-long encoding
}

std::vector<uint8_t> EncodePayload(const Payload& msg) {
  std::vector<uint8_t> out;
  out.reserve(24);
  AppendPayload(&out, msg);
  return out;
}

void PutSizedPayload(std::vector<uint8_t>* out, const Payload& msg) {
  // Widest encoding: 5-byte type, 10-byte a, flags, 5-byte seq and
  // epoch, two doubles. Under 0x80, so the varint prefix is one byte
  // and can be patched in after the payload is encoded in place.
  static_assert(5 + 10 + 1 + 5 + 5 + 8 + 8 < 0x80);
  const size_t at = out->size();
  out->push_back(0);
  AppendPayload(out, msg);
  (*out)[at] = static_cast<uint8_t>(out->size() - at - 1);
}

std::optional<Payload> DecodePayload(const std::vector<uint8_t>& bytes) {
  size_t pos = 0;
  Payload msg;
  const auto type = GetVarint(bytes, &pos);
  if (!type || *type > UINT32_MAX) return std::nullopt;
  msg.type = static_cast<uint32_t>(*type);
  const auto a = GetVarint(bytes, &pos);
  if (!a) return std::nullopt;
  msg.a = *a;
  if (pos >= bytes.size()) return std::nullopt;
  const uint8_t flags = bytes[pos++];
  if (flags & ~(kHasX | kHasY | kHasSeq | kHasEpoch)) return std::nullopt;
  if (flags & kHasSeq) {
    const auto seq = GetVarint(bytes, &pos);
    if (!seq || *seq == 0 || *seq > UINT32_MAX) return std::nullopt;
    msg.seq = static_cast<uint32_t>(*seq);
  }
  if (flags & kHasEpoch) {
    const auto epoch = GetVarint(bytes, &pos);
    if (!epoch || *epoch == 0 || *epoch > UINT32_MAX) return std::nullopt;
    msg.epoch = static_cast<uint32_t>(*epoch);
  }
  if (flags & kHasX) {
    const auto x = GetDouble(bytes, &pos);
    if (!x) return std::nullopt;
    msg.x = *x;
  }
  if (flags & kHasY) {
    const auto y = GetDouble(bytes, &pos);
    if (!y) return std::nullopt;
    msg.y = *y;
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing garbage
  msg.words = static_cast<uint32_t>((bytes.size() + 7) / 8);
  return msg;
}

size_t EncodedSize(const Payload& msg) { return EncodePayload(msg).size(); }

}  // namespace dwrs::sim
