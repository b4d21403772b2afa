// Binary trace files: persist recorded traces for post-mortem analysis
// (the Scalasca/OTF2 workflow: measure once, analyze many times).
//
// Format (little-endian, version 1):
//   magic   "TPTRC1\n\0"                      8 bytes
//   u64     thread_count
//   per thread: u64 event_count, then events:
//     i64 time, u32 thread, u8 kind, u64 task, u32 region,
//     i64 parameter, u32 peer                 (37 bytes packed)
//
// Both directions go through one bounded block buffer (one fwrite or
// fread per block, never the whole file).  The reader learns the file
// size first and rejects a thread or event count the remaining bytes
// cannot hold before it sizes anything from it.
#pragma once

#include <cstddef>
#include <string>

#include "trace/trace.hpp"

namespace taskprof::trace {

/// Write `trace` to `path`.  Throws std::runtime_error on I/O failure.
void write_trace_file(const std::string& path, const Trace& trace);

/// Read a trace written by write_trace_file.  Throws std::runtime_error
/// on I/O failure, bad magic, or a truncated/corrupt file.
[[nodiscard]] Trace read_trace_file(const std::string& path);

namespace detail {

/// Block size of the codec used by the two functions above.
inline constexpr std::size_t kTraceBlockBytes = std::size_t{1} << 20;

/// The same codec with another block size (raised to one event, 37
/// bytes, if smaller); tests use small blocks so that events straddle
/// block boundaries.
void write_trace_file(const std::string& path, const Trace& trace,
                      std::size_t block_bytes);
[[nodiscard]] Trace read_trace_file(const std::string& path,
                                    std::size_t block_bytes);

}  // namespace detail

}  // namespace taskprof::trace
