// Wire format for protocol messages. The paper counts messages in
// machine words (Section 2.1); this codec makes the claim concrete by
// serializing every Payload into bytes (LEB128 varints for the integer
// fields, raw IEEE754 for keys/weights) so benches can report real byte
// counts next to the word-accounting of MessageStats.

#ifndef DWRS_SIM_CODEC_H_
#define DWRS_SIM_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/message.h"

namespace dwrs::sim {

// Appends a LEB128 varint encoding of x.
void PutVarint(std::vector<uint8_t>* out, uint64_t x);

// Reads a varint at *pos; advances *pos. Returns nullopt on truncation
// or on a non-canonical >10-byte encoding.
std::optional<uint64_t> GetVarint(const std::vector<uint8_t>& in,
                                  size_t* pos);

// Serializes a payload:
//   varint type | varint a | flags byte | [varint seq] [varint epoch]
//   | [8B x] [8B y]
// where the flags byte records which of the optional fields are nonzero
// (most protocol messages carry at most one real value, and the seq/epoch
// reliability header only exists under the fault model). Bits:
//   1 = x present, 2 = y present, 4 = seq present, 8 = epoch present.
std::vector<uint8_t> EncodePayload(const Payload& msg);

// Appends varint(encoded size) | encoded payload, the length-prefixed
// form the WAL and checkpoint codecs embed, without a temporary vector.
void PutSizedPayload(std::vector<uint8_t>* out, const Payload& msg);

// Inverse of EncodePayload; nullopt on malformed input. The `words`
// accounting field is reconstructed as ceil(bytes / 8).
std::optional<Payload> DecodePayload(const std::vector<uint8_t>& bytes);

// Convenience: encoded size in bytes.
size_t EncodedSize(const Payload& msg);

}  // namespace dwrs::sim

#endif  // DWRS_SIM_CODEC_H_
