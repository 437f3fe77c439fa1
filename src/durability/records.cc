#include "durability/records.h"

#include <cstring>

#include "sim/codec.h"

namespace dwrs::durability {

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kMessage: return "message";
    case WalRecordType::kThresholdBump: return "threshold_bump";
    case WalRecordType::kEpochChange: return "epoch_change";
    case WalRecordType::kSampleDelta: return "sample_delta";
    case WalRecordType::kStepMark: return "step_mark";
    case WalRecordType::kCheckpointMark: return "checkpoint_mark";
  }
  return "unknown";
}

void PutF64(std::vector<uint8_t>* out, double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

std::optional<double> GetF64(const std::vector<uint8_t>& in, size_t* pos) {
  if (*pos + 8 > in.size()) return std::nullopt;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(in[*pos + static_cast<size_t>(i)])
            << (8 * i);
  }
  *pos += 8;
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

void PutZigzag(std::vector<uint8_t>* out, int64_t x) {
  const uint64_t u = static_cast<uint64_t>(x);
  sim::PutVarint(out, (u << 1) ^ static_cast<uint64_t>(x >> 63));
}

std::optional<int64_t> GetZigzag(const std::vector<uint8_t>& in, size_t* pos) {
  const std::optional<uint64_t> u = sim::GetVarint(in, pos);
  if (!u) return std::nullopt;
  return static_cast<int64_t>((*u >> 1) ^ (~(*u & 1) + 1));
}

void AppendWalRecord(std::vector<uint8_t>* out, const WalRecord& record) {
  out->push_back(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kMessage:
      sim::PutVarint(out, static_cast<uint64_t>(record.site));
      sim::PutSizedPayload(out, record.msg);
      break;
    case WalRecordType::kThresholdBump:
      PutF64(out, record.threshold);
      break;
    case WalRecordType::kEpochChange:
      PutZigzag(out, record.epoch);
      break;
    case WalRecordType::kSampleDelta:
      sim::PutVarint(out, record.added.item.id);
      PutF64(out, record.added.item.weight);
      PutF64(out, record.added.key);
      out->push_back(record.evicted_valid ? 1 : 0);
      if (record.evicted_valid) sim::PutVarint(out, record.evicted_id);
      break;
    case WalRecordType::kStepMark:
    case WalRecordType::kCheckpointMark:
      sim::PutVarint(out, record.step);
      break;
  }
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  AppendWalRecord(&out, record);
  return out;
}

std::optional<WalRecord> DecodeWalRecord(const std::vector<uint8_t>& bytes) {
  if (bytes.empty()) return std::nullopt;
  WalRecord record;
  record.type = static_cast<WalRecordType>(bytes[0]);
  size_t pos = 1;
  switch (record.type) {
    case WalRecordType::kMessage: {
      const std::optional<uint64_t> site = sim::GetVarint(bytes, &pos);
      const std::optional<uint64_t> len = sim::GetVarint(bytes, &pos);
      if (!site || !len || pos + *len > bytes.size()) return std::nullopt;
      record.site = static_cast<int>(*site);
      const std::vector<uint8_t> wire(
          bytes.begin() + static_cast<ptrdiff_t>(pos),
          bytes.begin() + static_cast<ptrdiff_t>(pos + *len));
      const std::optional<sim::Payload> msg = sim::DecodePayload(wire);
      if (!msg) return std::nullopt;
      record.msg = *msg;
      pos += *len;
      break;
    }
    case WalRecordType::kThresholdBump: {
      const std::optional<double> threshold = GetF64(bytes, &pos);
      if (!threshold) return std::nullopt;
      record.threshold = *threshold;
      break;
    }
    case WalRecordType::kEpochChange: {
      const std::optional<int64_t> epoch = GetZigzag(bytes, &pos);
      if (!epoch) return std::nullopt;
      record.epoch = *epoch;
      break;
    }
    case WalRecordType::kSampleDelta: {
      const std::optional<uint64_t> id = sim::GetVarint(bytes, &pos);
      const std::optional<double> weight = GetF64(bytes, &pos);
      const std::optional<double> key = GetF64(bytes, &pos);
      if (!id || !weight || !key || pos + 1 > bytes.size()) {
        return std::nullopt;
      }
      record.added.item.id = *id;
      record.added.item.weight = *weight;
      record.added.key = *key;
      const uint8_t evicted = bytes[pos++];
      if (evicted > 1) return std::nullopt;
      record.evicted_valid = evicted == 1;
      if (record.evicted_valid) {
        const std::optional<uint64_t> evicted_id = sim::GetVarint(bytes, &pos);
        if (!evicted_id) return std::nullopt;
        record.evicted_id = *evicted_id;
      }
      break;
    }
    case WalRecordType::kStepMark:
    case WalRecordType::kCheckpointMark: {
      const std::optional<uint64_t> step = sim::GetVarint(bytes, &pos);
      if (!step) return std::nullopt;
      record.step = *step;
      break;
    }
    default:
      return std::nullopt;
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing bytes
  return record;
}

}  // namespace dwrs::durability
