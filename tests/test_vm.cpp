#include "vm/hypervisor.hpp"

#include <gtest/gtest.h>

#include "machine/config.hpp"
#include "workload/benchmark_model.hpp"

namespace symbiosis::vm {
namespace {

machine::MachineConfig tiny_machine() {
  machine::MachineConfig m = machine::core2duo_config();
  m.hierarchy.l1 = {1024, 2, 64};
  m.hierarchy.l2 = {16 * 1024, 4, 64};
  m.quantum_cycles = 50'000;
  return m;
}

VmConfig tiny_vm_config() {
  VmConfig c;
  c.vm_switch_cycles = 5'000;
  c.switch_pollution_lines = 32;
  c.dom0_region_bytes = 4 * 1024;
  return c;
}

std::unique_ptr<workload::Workload> guest_workload(std::size_t pid,
                                                   std::uint64_t refs = 10'000) {
  workload::BenchmarkSpec spec;
  spec.name = "guest" + std::to_string(pid);
  workload::PhaseSpec phase;
  phase.pattern.kind = workload::PatternKind::Zipf;
  phase.pattern.region_bytes = 8 * 1024;
  phase.compute_gap = 5.0;
  phase.refs = refs;
  spec.phases = {phase};
  spec.total_refs = refs;
  return std::make_unique<workload::Workload>(spec, machine::address_space_base(pid + 10),
                                              util::Rng{pid + 99});
}

TEST(Hypervisor, Dom0IsBackground) {
  Hypervisor hv(tiny_machine(), tiny_vm_config());
  ASSERT_EQ(hv.domain_count(), 1u);
  EXPECT_EQ(hv.domain_name(0), "Domain-0");
  const auto vcpu = hv.vcpus_of(0).front();
  EXPECT_TRUE(hv.machine().task(vcpu).background);
}

TEST(Hypervisor, Dom0CanBeDisabled) {
  VmConfig cfg = tiny_vm_config();
  cfg.dom0_background = false;
  Hypervisor hv(tiny_machine(), cfg);
  EXPECT_EQ(hv.domain_count(), 0u);
}

TEST(Hypervisor, GuestsRunToCompletion) {
  Hypervisor hv(tiny_machine(), tiny_vm_config());
  const DomainId a = hv.create_domain(guest_workload(0));
  const DomainId b = hv.create_domain(guest_workload(1));
  EXPECT_TRUE(hv.run_to_all_complete());
  EXPECT_GT(hv.domain_user_cycles(a), 0u);
  EXPECT_GT(hv.domain_user_cycles(b), 0u);
  EXPECT_EQ(hv.domain_name(a), "guest0");
}

TEST(Hypervisor, DomainAffinityPinsVcpus) {
  Hypervisor hv(tiny_machine(), tiny_vm_config());
  const DomainId dom = hv.create_domain(guest_workload(0));
  hv.create_domain(guest_workload(1), 1);  // keep core 1 busy
  hv.set_domain_affinity(dom, 1);
  EXPECT_TRUE(hv.run_to_all_complete());
  const auto vcpu = hv.vcpus_of(dom).front();
  EXPECT_EQ(hv.machine().task(vcpu).signature().last_core(), 1u);
}

TEST(Hypervisor, MultiVcpuDomainSharesPid) {
  Hypervisor hv(tiny_machine(), tiny_vm_config());
  std::vector<std::unique_ptr<workload::TaskStream>> vcpus;
  vcpus.push_back(guest_workload(0));
  vcpus.push_back(guest_workload(1));
  const DomainId dom = hv.create_domain(std::move(vcpus));
  const auto& ids = hv.vcpus_of(dom);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(hv.machine().task(ids[0]).pid(), hv.machine().task(ids[1]).pid());
}

TEST(Hypervisor, VirtualizationCostsWallClock) {
  // §5.1.2: the same workload takes longer under the hypervisor — world
  // switches, nested-TLB penalty, Dom0 pollution.
  machine::Machine native(tiny_machine());
  native.add_task(guest_workload(0), 0);
  native.add_task(guest_workload(1), 0);
  ASSERT_TRUE(native.run_to_all_complete());

  Hypervisor hv(tiny_machine(), tiny_vm_config());
  const DomainId a = hv.create_domain(guest_workload(0), 0);
  const DomainId b = hv.create_domain(guest_workload(1), 0);
  ASSERT_TRUE(hv.run_to_all_complete());

  const std::uint64_t native_total = native.task(0).first_completion_user_cycles +
                                     native.task(1).first_completion_user_cycles;
  EXPECT_GT(hv.domain_user_cycles(a) + hv.domain_user_cycles(b), native_total);
}

TEST(Hypervisor, EmptyDomainRejected) {
  Hypervisor hv(tiny_machine(), tiny_vm_config());
  std::vector<std::unique_ptr<workload::TaskStream>> none;
  EXPECT_THROW(hv.create_domain(std::move(none)), std::invalid_argument);
}

}  // namespace
}  // namespace symbiosis::vm
