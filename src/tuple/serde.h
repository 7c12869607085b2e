#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "tuple/tuple.h"

/// \file serde.h
/// Binary tuple (de)serialization: a canonical byte form of tuples and
/// batches, e.g. for comparing two runs' outputs byte for byte. Format
/// (little-endian):
///
///   tuple  := event_time:i64 field_count:u32 field*
///   field  := type:u8 payload
///   payload(int64)  := i64
///   payload(double) := f64 bits
///   payload(string) := len:u32 bytes
///
/// A batch is a u32 count followed by that many tuples.

namespace spear {

/// \brief Appends the encoded tuple to `out`.
void EncodeTuple(const Tuple& tuple, std::string* out);

/// \brief Decodes one tuple from `data` starting at *offset; advances
/// *offset past it. Invalid on truncated or corrupt input.
Result<Tuple> DecodeTuple(const std::string& data, std::size_t* offset);

/// \brief Encodes a batch (count header + tuples).
std::string EncodeBatch(const std::vector<Tuple>& tuples);

/// \brief Decodes a whole batch; Invalid when bytes remain or run short.
Result<std::vector<Tuple>> DecodeBatch(const std::string& data);

}  // namespace spear
