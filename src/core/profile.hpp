// profile.hpp — bridge from machine state to allocator-facing profiles.
//
// Models the §3.2 syscall/hypercall interface: the user-level monitor (or
// Dom0) periodically reads each task's signature structure and event
// counters; this is the *only* machine state the allocation policies see.
#pragma once

#include <vector>

#include "machine/machine.hpp"
#include "sched/policy.hpp"

namespace symbiosis::core {

/// Snapshot all non-background tasks, in task-id order. The profile's
/// task_index refers to this vector's positions.
[[nodiscard]] std::vector<sched::TaskProfile> collect_profiles(const machine::Machine& m);

/// The vote-window rule: collect_profiles(m) when every profiled task has
/// a signature sample this window (it was context-switched out at least
/// once since the last clear_signature_windows), else an empty vector. A
/// task without one would hand the allocator stale noise, so the window
/// casts no vote.
[[nodiscard]] std::vector<sched::TaskProfile> window_profiles(const machine::Machine& m);

/// Apply an allocation (group == core) to the machine via affinity bits,
/// exactly like the paper's monitor calling sched_setaffinity. @p ids must
/// parallel the profile vector the allocation was computed from.
void apply_allocation(machine::Machine& m, const std::vector<machine::TaskId>& ids,
                      const sched::Allocation& allocation);

/// Clear every profiled task's signature window (start of a new decision
/// window).
void clear_signature_windows(machine::Machine& m);

}  // namespace symbiosis::core
