#include "trace/file.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace taskprof::trace {

namespace {

constexpr char kMagic[8] = {'T', 'P', 'T', 'R', 'C', '1', '\n', '\0'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 8;
constexpr std::size_t kCountBytes = 8;
constexpr std::size_t kEventBytes = 37;
constexpr std::uint64_t kMaxThreads = 1'000'000;

struct FileCloser {
  void operator()(std::FILE* file) const noexcept {
    if (file != nullptr) std::fclose(file);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

[[noreturn]] void fail(const std::string& path, const char* what) {
  throw std::runtime_error("trace file '" + path + "': " + what);
}

// ---- Little-endian field codec ---------------------------------------------

template <typename T>
void store_le(unsigned char* out, T value) noexcept {
  using U = std::make_unsigned_t<T>;
  const auto bits = static_cast<U>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &bits, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out[i] = static_cast<unsigned char>(bits >> (8 * i));
    }
  }
}

template <typename T>
T load_le(const unsigned char* in) noexcept {
  using U = std::make_unsigned_t<T>;
  U bits = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, in, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      bits = static_cast<U>(bits | (static_cast<U>(in[i]) << (8 * i)));
    }
  }
  return static_cast<T>(bits);
}

void encode_event(unsigned char* out, const TraceEvent& event) noexcept {
  store_le<std::int64_t>(out, event.time);
  store_le<std::uint32_t>(out + 8, event.thread);
  store_le<std::uint8_t>(out + 12, static_cast<std::uint8_t>(event.kind));
  store_le<std::uint64_t>(out + 13, event.task);
  store_le<std::uint32_t>(out + 21, event.region);
  store_le<std::int64_t>(out + 25, event.parameter);
  store_le<std::uint32_t>(out + 33, event.peer);
}

TraceEvent decode_event(const unsigned char* in, const std::string& path) {
  const auto kind = load_le<std::uint8_t>(in + 12);
  if (kind > static_cast<std::uint8_t>(EventKind::kWork)) {
    fail(path, "invalid event kind");
  }
  return TraceEvent{.time = load_le<std::int64_t>(in),
                    .task = load_le<std::uint64_t>(in + 13),
                    .parameter = load_le<std::int64_t>(in + 25),
                    .thread = load_le<std::uint32_t>(in + 8),
                    .region = load_le<std::uint32_t>(in + 21),
                    .peer = load_le<std::uint32_t>(in + 33),
                    .kind = static_cast<EventKind>(kind)};
}

// ---- Block buffers -----------------------------------------------------------

/// Encodes into one bounded buffer and writes it with one fwrite per
/// block.
class BlockWriter {
 public:
  BlockWriter(std::FILE* file, const std::string& path, std::size_t capacity)
      : file_(file),
        path_(path),
        capacity_(capacity),
        block_(std::make_unique_for_overwrite<unsigned char[]>(capacity)) {}

  /// Space for the next `bytes` (<= capacity) of the file.
  unsigned char* next(std::size_t bytes) {
    if (capacity_ - used_ < bytes) flush();
    unsigned char* out = block_.get() + used_;
    used_ += bytes;
    return out;
  }

  void flush() {
    if (used_ != 0 && std::fwrite(block_.get(), 1, used_, file_) != used_) {
      fail(path_, "write failed");
    }
    used_ = 0;
  }

 private:
  std::FILE* file_;
  const std::string& path_;
  std::size_t capacity_;
  std::unique_ptr<unsigned char[]> block_;
  std::size_t used_ = 0;
};

/// Reads the file through one bounded buffer, refilled with one fread
/// per block; `remaining()` is what the file still holds past the bytes
/// handed out, from its size learned at open.
class BlockReader {
 public:
  BlockReader(std::FILE* file, const std::string& path,
              std::uint64_t file_bytes, std::size_t capacity)
      : file_(file),
        path_(path),
        capacity_(capacity),
        block_(std::make_unique_for_overwrite<unsigned char[]>(capacity)),
        unread_(file_bytes) {}

  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return unread_ + (end_ - pos_);
  }

  /// The next `bytes` (<= capacity) of the file.
  const unsigned char* next(std::size_t bytes) {
    if (end_ - pos_ < bytes) refill(bytes);
    const unsigned char* in = block_.get() + pos_;
    pos_ += bytes;
    return in;
  }

 private:
  void refill(std::size_t bytes) {
    const std::size_t kept = end_ - pos_;
    std::memmove(block_.get(), block_.get() + pos_, kept);
    pos_ = 0;
    end_ = kept;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(capacity_ - kept, unread_));
    if (kept + want < bytes ||
        std::fread(block_.get() + kept, 1, want, file_) != want) {
      fail(path_, "truncated or unreadable");
    }
    end_ += want;
    unread_ -= want;
  }

  std::FILE* file_;
  const std::string& path_;
  std::size_t capacity_;
  std::unique_ptr<unsigned char[]> block_;
  std::uint64_t unread_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace

namespace detail {

void write_trace_file(const std::string& path, const Trace& trace,
                      std::size_t block_bytes) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) fail(path, "cannot open for writing");
  const std::uint64_t file_bytes = kHeaderBytes +
                                   trace.thread_count() * kCountBytes +
                                   trace.event_count() * kEventBytes;
  BlockWriter out(file.get(), path,
                  static_cast<std::size_t>(std::min<std::uint64_t>(
                      std::max(block_bytes, kEventBytes), file_bytes)));
  std::memcpy(out.next(sizeof(kMagic)), kMagic, sizeof(kMagic));
  store_le<std::uint64_t>(out.next(kCountBytes), trace.thread_count());
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    const auto& events = trace.thread_events(thread);
    store_le<std::uint64_t>(out.next(kCountBytes), events.size());
    for (const TraceEvent& event : events) {
      encode_event(out.next(kEventBytes), event);
    }
  }
  out.flush();
  if (std::fflush(file.get()) != 0) fail(path, "flush failed");
}

Trace read_trace_file(const std::string& path, std::size_t block_bytes) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) fail(path, "cannot open for reading");
  // The blocks are the only buffer: stdio's own would copy twice.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);
  if (std::fseek(file.get(), 0, SEEK_END) != 0) {
    fail(path, "truncated or unreadable");
  }
  const long size = std::ftell(file.get());
  if (size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    fail(path, "truncated or unreadable");
  }
  const auto file_bytes = static_cast<std::uint64_t>(size);
  BlockReader in(file.get(), path, file_bytes,
                 static_cast<std::size_t>(std::clamp<std::uint64_t>(
                     file_bytes, 1, std::max(block_bytes, kEventBytes))));

  if (std::memcmp(in.next(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    fail(path, "bad magic (not a taskprof trace, or wrong version)");
  }
  const auto thread_count = load_le<std::uint64_t>(in.next(kCountBytes));
  if (thread_count > kMaxThreads) fail(path, "implausible thread count");
  // Every count is checked against the bytes left before anything is
  // sized from it, so a corrupt header cannot allocate more than the
  // file could hold.
  if (thread_count > in.remaining() / kCountBytes) {
    fail(path, "truncated or unreadable");
  }
  std::vector<std::vector<TraceEvent>> per_thread(thread_count);
  for (auto& stream : per_thread) {
    const auto count = load_le<std::uint64_t>(in.next(kCountBytes));
    if (count > in.remaining() / kEventBytes) {
      fail(path, "truncated or unreadable");
    }
    stream.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      stream.push_back(decode_event(in.next(kEventBytes), path));
    }
  }
  // Trailing garbage indicates corruption (so does a file that grew).
  char extra;
  if (in.remaining() != 0 || std::fread(&extra, 1, 1, file.get()) != 0) {
    fail(path, "trailing data after events");
  }
  return Trace(std::move(per_thread));
}

}  // namespace detail

void write_trace_file(const std::string& path, const Trace& trace) {
  detail::write_trace_file(path, trace, detail::kTraceBlockBytes);
}

Trace read_trace_file(const std::string& path) {
  return detail::read_trace_file(path, detail::kTraceBlockBytes);
}

}  // namespace taskprof::trace
