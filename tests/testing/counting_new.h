// Heap-allocation counter for a test binary.
//
// counting_new.cpp replaces the global operator new/delete of the executable
// that links it, so every allocation the simulated system makes is counted.
// Link it into one dedicated test binary only. It lives in its own source
// file so that callers never inline the replacement operators (gcc would
// then report their malloc/free pairing as mismatched).
#pragma once

#include <cstdint>

namespace dssmr::testing {

/// Calls to any global operator new since the process started.
std::uint64_t allocation_count();

}  // namespace dssmr::testing
