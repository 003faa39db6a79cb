// Live-heap byte counter for the net test binary. The global operator
// new/delete replacements live in heap_bytes.cpp (one definition per
// binary); a test reads the counter to assert that a long stream leaves
// no growing state behind — e.g. the collector's bounded id remaps.
#pragma once

#include <atomic>
#include <cstdint>

/// Usable bytes of every live operator-new allocation in this process.
extern std::atomic<std::int64_t> g_xsp_test_live_heap_bytes;
