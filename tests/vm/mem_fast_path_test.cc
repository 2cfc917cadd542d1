// Unit tests for the inline guest load/store hit path (Cpu::read_v /
// write_v over Mmu::probe).
//
// Every engine but memfast shares that path, so the cross-engine fuzz
// battery no longer compares loads and stores against an independent
// implementation.  These tests pin it directly, on the stepper: a hit
// completes with no TLB mutation (Mmu::epoch() does not move) and a
// store still bumps the page's write version; every access the hit
// path must refuse — a permission failure on a cached entry, a miss, a
// page-crossing access, MMIO, a store the write trace must record —
// produces exactly the trap record, fill history and side effects of
// the full translate path.
#include "vm/cpu.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

#include "isa/encode.h"
#include "vm/hostmap.h"

namespace kfi::vm {
namespace {

using isa::Instruction;
using isa::Op;
using isa::Operand;
using isa::Reg;
using isa::Trap;

// Code runs from a user page so one fixture can step it at cpl 0 and 3.
constexpr std::uint32_t kCodeVirt = kUserTextBase;
constexpr std::uint32_t kCodePhys = 0x00300000;
// Supervisor, writable (the kernel straight map).  TLB slot 0x03.
constexpr std::uint32_t kKernVirt = kKernelDataBase + 0x3000;
// Supervisor, read-only.  TLB slot 0x05.
constexpr std::uint32_t kRoVirt = kKernelDataBase + 0x5000;
// User, writable, followed by an unmapped page.  TLB slots 0x00, 0x01.
constexpr std::uint32_t kUserVirt = kUserDataBase;
constexpr std::uint32_t kUserPhys = 0x00310000;
// Two adjacent mapped user pages.  TLB slots 0x07, 0x08.
constexpr std::uint32_t kPairVirt = kUserDataBase + 0x7000;
constexpr std::uint32_t kPairPhys = 0x00320000;
constexpr std::uint32_t kMmioVirt = 0xFF100000;
constexpr std::uint32_t kHandlerVirt = 0xC0110000;

class ScratchDevice : public Device {
 public:
  std::uint32_t mmio_read(std::uint32_t offset) override {
    reads.push_back(offset);
    return 0xFEEDF00Du + offset;
  }
  void mmio_write(std::uint32_t offset, std::uint32_t value) override {
    writes.push_back({offset, value});
  }
  std::vector<std::uint32_t> reads;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
};

Instruction load(Reg r, Reg base, bool byte = false) {
  Instruction i;
  i.op = Op::Mov;
  isa::MemRef m;
  m.has_base = true;
  m.base = base;
  i.dst = byte ? Operand::make_reg8(r) : Operand::make_reg(r);
  i.src = Operand::make_mem(m, byte);
  return i;
}

Instruction store(Reg r, Reg base, bool byte = false) {
  Instruction i;
  i.op = Op::Mov;
  isa::MemRef m;
  m.has_base = true;
  m.base = base;
  i.dst = Operand::make_mem(m, byte);
  i.src = byte ? Operand::make_reg8(r) : Operand::make_reg(r);
  return i;
}

class MemFastPathTest : public ::testing::Test {
 protected:
  MemFastPathTest() : memory(kRamSize), cpu(memory, bus) {
    HostMapper mapper(memory, kBootPgdPhys, kKernelPtePhys);
    mapper.map_range(kKernelBase, 0, kRamSize, kPteWrite);
    mapper.map(kRoVirt, phys_of_virt(kRoVirt), 0);
    mapper.map(kCodeVirt, kCodePhys, kPteUser | kPteWrite);
    mapper.map(kUserVirt, kUserPhys, kPteUser | kPteWrite);
    mapper.map(kPairVirt, kPairPhys, kPteUser | kPteWrite);
    mapper.map(kPairVirt + kPageSize, kPairPhys + kPageSize,
               kPteUser | kPteWrite);
    cpu.mmu().set_cr3(kBootPgdPhys);
    memory.write32(kTssPhys, kBootStackTop);
    for (int v = 0; v < 32; ++v) cpu.set_vector(v, kHandlerVirt);
    memory.fill(phys_of_virt(kHandlerVirt), 64, 0xF4);
    bus.attach(kMmioVirt, kPageSize, &device);

    // Warm the code page and the trap stack page so that the epoch a
    // test observes moves only for the data access under test.
    warm(kCodeVirt, Access::Execute, 3);
    warm(kBootStackTop - 4, Access::Write, 0);
  }

  void warm(std::uint32_t vaddr, Access access, int cpl) {
    std::uint32_t paddr = 0;
    ASSERT_EQ(cpu.mmu().translate(vaddr, access, cpl, paddr),
              TranslateStatus::Ok);
  }

  // Steps one instruction at `cpl` from the kernel boot stack; eax
  // holds `value` and esi the address `vaddr`.
  CpuEvent exec(const Instruction& instr, int cpl, std::uint32_t vaddr,
                std::uint32_t value = 0) {
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(isa::encode(instr, bytes));
    memory.write_block(kCodePhys, bytes.data(),
                       static_cast<std::uint32_t>(bytes.size()));
    cpu.set_eip(kCodeVirt);
    cpu.set_cpl(cpl);
    cpu.set_reg(Reg::Esp, kBootStackTop);
    cpu.set_reg(Reg::Esi, vaddr);
    cpu.set_reg(Reg::Eax, value);
    cpu.set_reg(Reg::Ebx, 0xDEADBEEF);
    return cpu.step();
  }

  // Asserts the step took no trap and retired the instruction.
  void expect_retired(const CpuEvent& event) {
    EXPECT_EQ(event.kind, CpuEventKind::Executed);
    EXPECT_FALSE(event.trap_taken);
    EXPECT_NE(cpu.eip(), kCodeVirt);
  }

  // Asserts the step delivered `trap` with this error code and address
  // against the instruction at kCodeVirt.
  void expect_trap(const CpuEvent& event, Trap trap, std::uint32_t error_code,
                   std::uint32_t fault_addr, int cpl) {
    EXPECT_TRUE(event.trap_taken);
    EXPECT_EQ(cpu.last_trap().trap, trap);
    EXPECT_EQ(cpu.last_trap().error_code, error_code);
    EXPECT_EQ(cpu.last_trap().fault_addr, fault_addr);
    EXPECT_EQ(cpu.last_trap().faulting_eip, kCodeVirt);
    EXPECT_EQ(cpu.last_trap().faulting_cpl, cpl);
    EXPECT_EQ(cpu.eip(), kHandlerVirt);
  }

  PhysicalMemory memory;
  Bus bus;
  ScratchDevice device;
  Cpu cpu;
};

TEST_F(MemFastPathTest, HitsLeaveTheTlbAloneAndStoresBumpTheVersion) {
  const std::uint32_t paddr = phys_of_virt(kKernVirt) + 8;
  warm(kKernVirt, Access::Write, 0);
  const std::uint64_t epoch = cpu.mmu().epoch();

  std::uint64_t version = memory.page_version(paddr);
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kKernVirt + 8, 0x11223344));
  EXPECT_EQ(memory.read32(paddr), 0x11223344u);
  EXPECT_EQ(memory.page_version(paddr), version + 1);

  version = memory.page_version(paddr);
  expect_retired(exec(store(Reg::Eax, Reg::Esi, /*byte=*/true), 0,
                      kKernVirt + 8, 0xAB));
  EXPECT_EQ(memory.read32(paddr), 0x112233ABu);
  EXPECT_EQ(memory.page_version(paddr), version + 1);

  version = memory.page_version(paddr);
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kKernVirt + 8));
  EXPECT_EQ(cpu.reg(Reg::Ebx), 0x112233ABu);
  expect_retired(exec(load(Reg::Ebx, Reg::Esi, /*byte=*/true), 0,
                      kKernVirt + 10));
  EXPECT_EQ(cpu.reg(Reg::Ebx), 0xDEADBE22u);  // mov bl, [esi]
  EXPECT_EQ(memory.page_version(paddr), version);

  // A 4-byte access at offset 4092 is the last one on the hit path.
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kKernVirt + 4092, 7));
  EXPECT_EQ(memory.read32(phys_of_virt(kKernVirt) + 4092), 7u);

  EXPECT_EQ(cpu.mmu().epoch(), epoch);
}

TEST_F(MemFastPathTest, MissFillsOnceThenHits) {
  std::uint64_t epoch = cpu.mmu().epoch();
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kKernVirt));
  EXPECT_EQ(cpu.mmu().epoch(), epoch + 1);

  epoch = cpu.mmu().epoch();
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kKernVirt + 4));
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kKernVirt + 4, 5));
  EXPECT_EQ(cpu.mmu().epoch(), epoch);

  // A store miss fills too, and so does a miss after a flush.
  cpu.mmu().flush_page(kKernVirt);
  epoch = cpu.mmu().epoch();
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kKernVirt + 4, 6));
  EXPECT_EQ(cpu.mmu().epoch(), epoch + 1);
  EXPECT_EQ(memory.read32(phys_of_virt(kKernVirt) + 4), 6u);
}

TEST_F(MemFastPathTest, StoreToReadOnlyTlbHitFaults) {
  const std::uint32_t paddr = phys_of_virt(kRoVirt) + 16;
  memory.write32(paddr, 0x0BADF00D);
  // The load fills the entry (read-only); the store then hits it and
  // fails its permission check without a walk or a fill.
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kRoVirt + 16));
  EXPECT_EQ(cpu.reg(Reg::Ebx), 0x0BADF00Du);
  const std::uint64_t epoch = cpu.mmu().epoch();
  const std::uint64_t version = memory.page_version(paddr);

  expect_trap(exec(store(Reg::Eax, Reg::Esi), 0, kRoVirt + 16, 1),
              Trap::PageFault, kPfErrPresent | kPfErrWrite, kRoVirt + 16, 0);
  expect_trap(exec(store(Reg::Eax, Reg::Esi, /*byte=*/true), 0, kRoVirt + 16,
                   1),
              Trap::PageFault, kPfErrPresent | kPfErrWrite, kRoVirt + 16, 0);
  EXPECT_EQ(memory.read32(paddr), 0x0BADF00Du);
  EXPECT_EQ(memory.page_version(paddr), version);
  EXPECT_EQ(cpu.mmu().epoch(), epoch);
}

TEST_F(MemFastPathTest, UserAccessToSupervisorPageFaults) {
  // Cold (walk) and warm (cached supervisor entry) give the same trap.
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached);
    if (cached) warm(kKernVirt, Access::Write, 0);
    const std::uint64_t epoch = cpu.mmu().epoch();
    expect_trap(exec(load(Reg::Ebx, Reg::Esi), 3, kKernVirt + 4),
                Trap::PageFault, kPfErrPresent | kPfErrUser, kKernVirt + 4, 3);
    EXPECT_EQ(cpu.reg(Reg::Ebx), 0xDEADBEEFu);
    expect_trap(exec(store(Reg::Eax, Reg::Esi), 3, kKernVirt + 4, 9),
                Trap::PageFault, kPfErrPresent | kPfErrWrite | kPfErrUser,
                kKernVirt + 4, 3);
    EXPECT_NE(memory.read32(phys_of_virt(kKernVirt) + 4), 9u);
    EXPECT_EQ(cpu.mmu().epoch(), epoch);
  }
  // The user's own page still hits at cpl 3.
  warm(kUserVirt, Access::Write, 3);
  const std::uint64_t epoch = cpu.mmu().epoch();
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 3, kUserVirt + 4, 9));
  EXPECT_EQ(memory.read32(kUserPhys + 4), 9u);
  EXPECT_EQ(cpu.mmu().epoch(), epoch);
}

TEST_F(MemFastPathTest, PageCrossingAccessFaultsOnTheSecondPage) {
  // The first page is a cached, writable hit; the second is unmapped.
  // The fault names the second page's first byte, and a store leaves
  // its first-page bytes in place.
  for (const std::uint32_t off : {4093u, 4094u, 4095u}) {
    SCOPED_TRACE(off);
    const std::uint32_t first = kPageSize - off;
    memory.fill(kUserPhys + off, first, 0);
    warm(kUserVirt, Access::Write, 0);

    expect_trap(exec(store(Reg::Eax, Reg::Esi), 0, kUserVirt + off,
                     0x44332211),
                Trap::PageFault, kPfErrWrite, kUserVirt + kPageSize, 0);
    for (std::uint32_t i = 0; i < first; ++i) {
      EXPECT_EQ(memory.read8(kUserPhys + off + i), 0x11u * (i + 1))
          << "byte " << i;
    }

    expect_trap(exec(load(Reg::Ebx, Reg::Esi), 0, kUserVirt + off),
                Trap::PageFault, 0, kUserVirt + kPageSize, 0);
    EXPECT_EQ(cpu.reg(Reg::Ebx), 0xDEADBEEFu);
  }
}

TEST_F(MemFastPathTest, PageCrossingAccessSplitsAcrossMappedPages) {
  // Both pages mapped: the first is cached, so only the second fills.
  warm(kPairVirt, Access::Write, 0);
  const std::uint64_t epoch = cpu.mmu().epoch();
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kPairVirt + 4094,
                      0x44332211));
  EXPECT_EQ(cpu.mmu().epoch(), epoch + 1);
  EXPECT_EQ(memory.read8(kPairPhys + 4094), 0x11u);
  EXPECT_EQ(memory.read8(kPairPhys + 4095), 0x22u);
  EXPECT_EQ(memory.read8(kPairPhys + kPageSize), 0x33u);
  EXPECT_EQ(memory.read8(kPairPhys + kPageSize + 1), 0x44u);
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kPairVirt + 4094));
  EXPECT_EQ(cpu.reg(Reg::Ebx), 0x44332211u);
  EXPECT_EQ(cpu.mmu().epoch(), epoch + 1);
}

TEST_F(MemFastPathTest, MmioGoesToTheBusAtCpl0AndFaultsAtCpl3) {
  const std::uint64_t epoch = cpu.mmu().epoch();
  expect_retired(exec(load(Reg::Ebx, Reg::Esi), 0, kMmioVirt + 8));
  EXPECT_EQ(cpu.reg(Reg::Ebx), 0xFEEDF00Du + 8);
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kMmioVirt + 12, 77));
  ASSERT_EQ(device.reads.size(), 1u);
  EXPECT_EQ(device.reads[0], 8u);
  ASSERT_EQ(device.writes.size(), 1u);
  EXPECT_EQ(device.writes[0], std::make_pair(12u, 77u));

  // Sub-word MMIO is #GP; user-mode MMIO is a protection #PF.
  expect_trap(exec(load(Reg::Ebx, Reg::Esi, /*byte=*/true), 0, kMmioVirt + 8),
              Trap::GpFault, 0, kMmioVirt + 8, 0);
  expect_trap(exec(load(Reg::Ebx, Reg::Esi), 3, kMmioVirt + 8),
              Trap::PageFault, kPfErrPresent | kPfErrUser, kMmioVirt + 8, 3);
  expect_trap(exec(store(Reg::Eax, Reg::Esi), 3, kMmioVirt + 12, 78),
              Trap::PageFault, kPfErrPresent | kPfErrWrite | kPfErrUser,
              kMmioVirt + 12, 3);
  EXPECT_EQ(device.reads.size(), 1u);
  EXPECT_EQ(device.writes.size(), 1u);
  EXPECT_EQ(cpu.mmu().epoch(), epoch);
}

TEST_F(MemFastPathTest, WriteTraceRecordsStoresThatWouldHit) {
  std::unordered_set<std::uint32_t> footprint;
  cpu.set_write_trace(&footprint);
  warm(kKernVirt, Access::Write, 0);
  warm(kUserVirt, Access::Write, 3);
  const std::uint64_t epoch = cpu.mmu().epoch();
  const std::uint32_t paddr = phys_of_virt(kKernVirt) + 32;
  const std::uint64_t version = memory.page_version(paddr);

  expect_retired(exec(store(Reg::Eax, Reg::Esi), 0, kKernVirt + 32, 0x5A5A));
  expect_retired(exec(store(Reg::Eax, Reg::Esi, /*byte=*/true), 0,
                      kKernVirt + 40, 0x5A));
  // Only cpl-0 stores are kernel footprint.
  expect_retired(exec(store(Reg::Eax, Reg::Esi), 3, kUserVirt, 1));

  const std::unordered_set<std::uint32_t> expected = {
      paddr, paddr + 1, paddr + 2, paddr + 3, paddr + 8};
  EXPECT_EQ(footprint, expected);
  EXPECT_EQ(memory.read32(paddr), 0x5A5Au);
  EXPECT_EQ(memory.page_version(paddr), version + 2);
  EXPECT_EQ(cpu.mmu().epoch(), epoch);
}

}  // namespace
}  // namespace kfi::vm
