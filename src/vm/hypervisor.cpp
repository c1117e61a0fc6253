#include "vm/hypervisor.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace symbiosis::vm {

namespace {

/// Build the Dom0 housekeeping workload: an endless light loop over a small
/// hot region (control-plane code and data).
std::unique_ptr<workload::Workload> make_dom0_workload(const VmConfig& config,
                                                       std::uint64_t line_bytes) {
  workload::BenchmarkSpec spec;
  spec.name = "dom0";
  workload::PhaseSpec phase;
  phase.pattern.kind = workload::PatternKind::Zipf;
  phase.pattern.region_bytes = config.dom0_region_bytes;
  phase.pattern.zipf_skew = 1.0;
  phase.pattern.line_bytes = line_bytes;
  phase.compute_gap = config.dom0_compute_gap;
  phase.write_ratio = 0.3;
  phase.refs = 10'000;
  spec.phases.push_back(phase);
  spec.total_refs = ~std::uint64_t{0} >> 1;  // effectively endless
  // Dom0 lives in its own reserved address space (pid-space 2^20).
  return std::make_unique<workload::Workload>(spec, machine::address_space_base(1u << 20),
                                              util::Rng{config.dom0_seed});
}

}  // namespace

Hypervisor::Hypervisor(const machine::MachineConfig& machine, const VmConfig& config)
    : config_(config) {
  machine::MachineConfig mc = machine;
  mc.context_switch_cycles = config.vm_switch_cycles;
  mc.switch_pollution_lines = config.switch_pollution_lines;
  mc.hierarchy.latency.tlb_miss += config.nested_tlb_penalty;
  machine_ = std::make_unique<machine::Machine>(mc);

  if (config.dom0_background) {
    Domain dom0;
    dom0.name = "Domain-0";
    const machine::TaskId id = machine_->add_task(
        make_dom0_workload(config, machine.hierarchy.l1.line_bytes), /*affinity=*/0);
    machine_->task(id).background = true;
    dom0.vcpus.push_back(id);
    domains_.push_back(std::move(dom0));
  }
}

DomainId Hypervisor::create_domain(std::unique_ptr<workload::TaskStream> stream,
                                   std::size_t affinity) {
  std::vector<std::unique_ptr<workload::TaskStream>> vcpus;
  vcpus.push_back(std::move(stream));
  return create_domain(std::move(vcpus), affinity);
}

DomainId Hypervisor::create_domain(std::vector<std::unique_ptr<workload::TaskStream>> vcpus,
                                   std::size_t affinity) {
  if (vcpus.empty()) throw std::invalid_argument("create_domain: no vcpus");
  Domain dom;
  dom.name = vcpus.front()->name();
  // All vcpus of a VM share one pid so signatures aggregate per-VM (§3.1:
  // "the RBV will be computed on a per-VM basis").
  const std::size_t pid = domains_.size() + 1'000;
  for (auto& stream : vcpus) {
    dom.vcpus.push_back(machine_->add_thread(std::move(stream), pid, affinity));
  }
  domains_.push_back(std::move(dom));
  obs::counter("vm.domains_created").add(1);
  return domains_.size() - 1;
}

void Hypervisor::set_domain_affinity(DomainId dom, std::size_t core) {
  for (const auto vcpu : vcpus_of(dom)) machine_->set_affinity(vcpu, core);
}

bool Hypervisor::run_to_all_complete(std::uint64_t max_cycles) {
  const bool completed = machine_->run_to_all_complete(max_cycles);
  // One VM-exit marker per measured domain (Dom0 is background and never
  // "exits"): the §4.2 event the virtualized pipeline measures.
  for (DomainId d = 0; d < domains_.size(); ++d) {
    if (domains_[d].vcpus.size() == 1 &&
        machine_->task(domains_[d].vcpus.front()).background) {
      continue;
    }
    SYM_RECORD((obs::VmExitEvent{machine_->now(), static_cast<std::uint64_t>(d),
                                 domains_[d].name, completed ? "completed" : "cycle-cap",
                                 domain_user_cycles(d)}));
  }
  return completed;
}

std::uint64_t Hypervisor::domain_user_cycles(DomainId dom) const {
  const auto& vcpus = vcpus_of(dom);
  std::uint64_t total = 0;
  for (const auto vcpu : vcpus) total += machine_->task(vcpu).first_completion_user_cycles;
  return total;
}

}  // namespace symbiosis::vm
