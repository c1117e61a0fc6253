// hypervisor.hpp — the Xen-like virtualization layer (§3.2, §4.2, §5.1.2).
//
// The paper encapsulates each benchmark in its own VM on a Xen hypervisor;
// the signature hardware is unchanged but accounting moves to per-VM
// granularity and the allocation policy runs in Dom0. The observable
// difference from native execution — the reason Fig 11's improvements are
// smaller than Fig 10's — is virtualization OVERHEAD: world switches cost
// much more than process switches, the hypervisor/Dom0 pollute the shared
// L2 around every switch, nested translation makes TLB misses dearer, and
// a background Dom0 housekeeping loop steals cycles.
//
// Hypervisor wraps a machine::Machine; each domain (VM) carries one or
// more vcpu task streams tagged with the domain's pid so signatures and
// the two-phase allocation treat the VM as one entity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hpp"

namespace symbiosis::vm {

/// Virtualization-layer configuration on top of a machine preset.
struct VmConfig {
  /// World-switch cost (replaces the native context_switch_cycles).
  std::uint64_t vm_switch_cycles = 12'000;
  /// Cache lines the hypervisor+Dom0 touch around each world switch.
  std::uint32_t switch_pollution_lines = 192;
  /// Extra TLB-miss penalty from nested/shadow translation.
  std::uint32_t nested_tlb_penalty = 60;
  /// Run a background Dom0 housekeeping loop (pinned to core 0).
  bool dom0_background = true;
  /// Mean compute gap of the Dom0 loop: bigger = lighter Dom0 load.
  double dom0_compute_gap = 400.0;
  std::uint64_t dom0_region_bytes = 96 * 1024;
  /// Seed for the Dom0 housekeeping address stream. Part of the config so a
  /// run is reproducible from its config alone (symdet rng discipline); the
  /// default matches the historical stream, keeping golden reports stable.
  std::uint64_t dom0_seed = 0xd0d0;
};

/// Identifier of a virtual machine (domain). Domain 0 is the control domain
/// when dom0_background is enabled.
using DomainId = std::size_t;

class Hypervisor {
 public:
  /// Run guests on @p machine with @p config's virtualization costs on top.
  Hypervisor(const machine::MachineConfig& machine, const VmConfig& config);

  /// Create a guest domain running @p stream on a single vcpu.
  DomainId create_domain(std::unique_ptr<workload::TaskStream> stream,
                         std::size_t affinity = machine::Task::kAnyCore);

  /// Create a guest domain with multiple vcpus (one stream per vcpu).
  DomainId create_domain(std::vector<std::unique_ptr<workload::TaskStream>> vcpus,
                         std::size_t affinity = machine::Task::kAnyCore);

  [[nodiscard]] std::size_t domain_count() const noexcept { return domains_.size(); }
  [[nodiscard]] const std::string& domain_name(DomainId dom) const {
    return domains_.at(dom).name;
  }

  /// Tasks (vcpus) of a domain.
  [[nodiscard]] const std::vector<machine::TaskId>& vcpus_of(DomainId dom) const {
    return domains_.at(dom).vcpus;
  }

  /// Pin every vcpu of @p dom to @p core (Dom0's vcpu-affinity hypercall).
  void set_domain_affinity(DomainId dom, std::size_t core);

  /// Run until every guest's benchmark completed at least once.
  bool run_to_all_complete(std::uint64_t max_cycles = 0);

  /// The wrapped machine (hook installation, inspection).
  [[nodiscard]] machine::Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] const machine::Machine& machine() const noexcept { return *machine_; }

  /// First-completion user cycles of a single-vcpu domain's benchmark.
  [[nodiscard]] std::uint64_t domain_user_cycles(DomainId dom) const;

 private:
  struct Domain {
    std::string name;
    std::vector<machine::TaskId> vcpus;
  };

  VmConfig config_;
  std::unique_ptr<machine::Machine> machine_;
  std::vector<Domain> domains_;
};

}  // namespace symbiosis::vm
