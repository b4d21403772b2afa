// Loader robustness: read_trace_file must load or reject with
// std::runtime_error every truncation, seeded bit flip and forged header
// of a small recorded trace — never crash, and never allocate for events
// the file cannot hold.  Every trace that loads must also pass through
// every trace consumer (analysis, diagnosis, what-if, Chrome export)
// without a crash.  The block codec must decode the same events and
// write the same bytes whatever its block size, including blocks that
// cut events in two.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "rt/sim_runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_export.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "whatif/render.hpp"
#include "whatif/whatif.hpp"

// Allocation accounting: while `t_counting` is set on a thread, every
// operator new on it adds its size to `t_allocated`.
namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocated = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) t_allocated += size;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) t_allocated += size;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace taskprof {
namespace {

using Bytes = std::vector<unsigned char>;

constexpr std::size_t kHeaderBytes = 16;  // magic + thread count
constexpr std::size_t kEventBytes = 37;

/// A small trace: two simulated workers, nested tasks with taskwaits.
trace::Trace small_trace() {
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(2, [](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 6; ++i) {
      ctx.create_task(
          [](rt::TaskContext& outer) {
            outer.create_task([](rt::TaskContext& c) { c.work(3'000); },
                              rt::TaskAttrs{});
            outer.taskwait();
            outer.work(500);
          },
          rt::TaskAttrs{});
    }
    ctx.taskwait();
  });
  sim.set_hooks(nullptr);
  return recorder.take();
}

/// Runs `trace` through every trace-only consumer, as taskprof_cli's
/// --analyze-trace, `diagnose --trace-file` and `whatif --trace-file`
/// do: region names come from an empty registry.
void consume(const trace::Trace& trace) {
  const RegionRegistry no_names;
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  (void)trace::render_analysis(analysis, no_names);
  (void)trace::render_timeline(trace);

  diag::DiagnosisInput input;
  input.registry = &no_names;
  input.trace = &trace;
  std::ostringstream text;
  diag::render_diagnosis_text(diag::run_diagnosis(input), text);

  whatif::WhatIfProfile profile;
  if (whatif::WhatIfProfile::build(trace, analysis, no_names, &profile)
          .ok()) {
    whatif::Report report;
    report.summarize(profile);
    report.top_targets = profile.rank_targets(0.5, {2, 4});
    whatif::render_whatif_text(report, text);
  }

  trace::ChromeExportOptions chrome;
  chrome.registry = &no_names;
  (void)trace::render_chrome_trace(trace, chrome);
}

class TraceFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::write_trace_file(path_, small_trace());
    bytes_ = read_file();
    ASSERT_GT(bytes_.size(), kHeaderBytes + 8 * kEventBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Bytes read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return Bytes((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  void write_file(const Bytes& bytes, std::size_t length) const {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, length, file), length);
    std::fclose(file);
  }

  /// Loads the first `length` bytes of `bytes` with blocks of
  /// `block_bytes`.  True when it loads, false when it throws
  /// std::runtime_error (any other exception escapes and fails the
  /// test).  Also checks what the load allocated: one block buffer no
  /// larger than the file, 24 bytes per declared thread (8 in the file)
  /// and 40 per event (37 in the file), plus the error message.
  /// The loaded trace goes to `out` when given.
  bool loads(const Bytes& bytes, std::size_t length, std::size_t block_bytes,
             std::string* error = nullptr, trace::Trace* out = nullptr) const {
    write_file(bytes, length);
    bool loaded = false;
    std::size_t allocated = 0;
    {
      t_allocated = 0;
      t_counting = true;
      try {
        trace::Trace trace =
            trace::detail::read_trace_file(path_, block_bytes);
        t_counting = false;
        allocated = t_allocated;
        loaded = true;
        (void)trace.merged();  // a loaded corrupt trace must still merge
        if (out != nullptr) *out = std::move(trace);
      } catch (const std::runtime_error& failure) {
        t_counting = false;
        allocated = t_allocated;
        if (error != nullptr) *error = failure.what();
      }
    }
    const std::size_t bound =
        length + 3 * length + length * 40 / kEventBytes + 1024;
    EXPECT_LE(allocated, bound) << "length " << length;
    return loaded;
  }

  std::string path_ = ::testing::TempDir() + "/taskprof_trace_fuzz_" +
                      std::to_string(::getpid()) + ".tptrc";
  Bytes bytes_;
};

void put_u64(Bytes& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(value >> (8 * i));
  }
}

TEST_F(TraceFuzz, EveryTruncationIsRejected) {
  for (const std::size_t block :
       {trace::detail::kTraceBlockBytes, std::size_t{64}}) {
    for (std::size_t length = 0; length < bytes_.size(); ++length) {
      EXPECT_FALSE(loads(bytes_, length, block))
          << "prefix of " << length << " bytes accepted (block " << block
          << ")";
    }
    EXPECT_TRUE(loads(bytes_, bytes_.size(), block));
  }
}

TEST_F(TraceFuzz, SeededBitFlipsLoadOrThrow) {
  Xoshiro256 rng(0x7C0D'EC0D'E5EEull);
  for (int i = 0; i < 4000; ++i) {
    Bytes mutated = bytes_;
    const std::size_t byte = rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<unsigned char>(1u << rng.next_below(8));
    const std::size_t block = i % 2 == 0 ? 64 : 1u << 20;
    // Either way, no crash; and what loads, every consumer accepts.
    trace::Trace loaded;
    if (loads(mutated, mutated.size(), block, nullptr, &loaded)) {
      consume(loaded);
    }
  }
}

TEST_F(TraceFuzz, ForgedCountsAreRejectedBeforeAllocating) {
  std::string error;
  // First stream's event count (right after the header): absurd, and one
  // event more than the rest of the file holds.
  const std::uint64_t one_too_many =
      (bytes_.size() - kHeaderBytes - 8) / kEventBytes + 1;
  for (const std::uint64_t count :
       {std::uint64_t{1} << 60, ~std::uint64_t{0}, one_too_many}) {
    Bytes forged = bytes_;
    put_u64(forged, kHeaderBytes, count);
    EXPECT_FALSE(loads(forged, forged.size(), 64, &error)) << count;
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  // Thread count over the limit, and under it but beyond the file.
  Bytes forged = bytes_;
  put_u64(forged, 8, 1'000'001);
  EXPECT_FALSE(loads(forged, forged.size(), 64, &error));
  EXPECT_NE(error.find("implausible thread count"), std::string::npos)
      << error;
  put_u64(forged, 8, 999'999);
  EXPECT_FALSE(loads(forged, forged.size(), 64, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(TraceFuzz, CorruptionKeepsItsMessage) {
  std::string error;
  Bytes bad = bytes_;
  bad[0] = 'X';
  EXPECT_FALSE(loads(bad, bad.size(), 64, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  bad = bytes_;
  bad[kHeaderBytes + 8 + 12] = 0xC8;  // first event's kind
  EXPECT_FALSE(loads(bad, bad.size(), 64, &error));
  EXPECT_NE(error.find("invalid event kind"), std::string::npos) << error;
  bad = bytes_;
  bad.push_back(0);
  EXPECT_FALSE(loads(bad, bad.size(), 64, &error));
  EXPECT_NE(error.find("trailing data"), std::string::npos) << error;
}

// Blocks of 37 bytes hold one event; the others cut events and counts
// at every offset.
TEST_F(TraceFuzz, AnyBlockSizeDecodesAndWritesTheSameTrace) {
  const trace::Trace reference = trace::read_trace_file(path_);
  for (const std::size_t block : {std::size_t{1}, std::size_t{37},
                                  std::size_t{38}, std::size_t{64},
                                  std::size_t{3 * 37 + 1}, std::size_t{4096}}) {
    SCOPED_TRACE(block);
    const trace::Trace loaded = trace::detail::read_trace_file(path_, block);
    ASSERT_EQ(loaded.thread_count(), reference.thread_count());
    for (ThreadId t = 0; t < reference.thread_count(); ++t) {
      const auto& a = reference.thread_events(t);
      const auto& b = loaded.thread_events(t);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].time == b[i].time && a[i].task == b[i].task &&
                    a[i].kind == b[i].kind && a[i].thread == b[i].thread &&
                    a[i].region == b[i].region &&
                    a[i].parameter == b[i].parameter && a[i].peer == b[i].peer)
            << "thread " << t << " event " << i;
      }
    }
    trace::detail::write_trace_file(path_, loaded, block);
    EXPECT_EQ(read_file(), bytes_);
  }
}

}  // namespace
}  // namespace taskprof
