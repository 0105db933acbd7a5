// Heap-allocation counter for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new/delete of the binary
// that links it (the benchmark only — never the simulator library), so every
// allocation the simulated system makes is counted. Read the counter before
// and after a phase and report the delta.
#pragma once

#include <cstdint>

namespace openloop {

/// Calls to any global operator new since the process started.
std::uint64_t allocation_count();

}  // namespace openloop
