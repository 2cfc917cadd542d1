#include "vm/mmu.h"

namespace kfi::vm {

void Mmu::flush_tlb() {
  for (TlbEntry& e : tlb_) e.tag = 0xFFFFFFFF;
  ++epoch_;
}

void Mmu::flush_page(std::uint32_t vaddr) {
  const std::uint32_t vpn = vaddr >> 12;
  tlb_[vpn & (kTlbSize - 1)].tag = 0xFFFFFFFF;
  ++epoch_;
}

TranslateStatus Mmu::resolve(std::uint32_t vaddr, Access access, int cpl,
                             std::uint32_t& paddr, TlbEntry* fill) const {
  if (vaddr >= kMmioBase) {
    return cpl == 0 ? TranslateStatus::Mmio : TranslateStatus::Protection;
  }

  // probe() refused this non-MMIO access, so a tag match here is a hit
  // that failed its permission check.
  const std::uint32_t vpn = vaddr >> 12;
  if (tlb_[vpn & (kTlbSize - 1)].tag == vpn) return TranslateStatus::Protection;

  // Walk: PGD entry, then PTE.
  const std::uint32_t pgd_slot = cr3_ + ((vaddr >> 22) << 2);
  if (!memory_.contains(pgd_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pgd_entry = memory_.read32(pgd_slot);
  if ((pgd_entry & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const std::uint32_t pte_base = pgd_entry & kPteFrameMask;
  const std::uint32_t pte_slot = pte_base + (((vaddr >> 12) & 0x3FF) << 2);
  if (!memory_.contains(pte_slot, 4)) return TranslateStatus::BadPhysical;
  const std::uint32_t pte = memory_.read32(pte_slot);
  if ((pte & kPtePresent) == 0) return TranslateStatus::NotPresent;

  const bool user_ok = (pgd_entry & kPteUser) && (pte & kPteUser);
  const bool writable = (pgd_entry & kPteWrite) && (pte & kPteWrite);
  if (cpl != 0 && !user_ok) return TranslateStatus::Protection;
  if (access == Access::Write && !writable) return TranslateStatus::Protection;

  const std::uint32_t frame = pte & kPteFrameMask;
  if (!memory_.contains(frame, kPageSize)) return TranslateStatus::BadPhysical;

  if (fill != nullptr) *fill = TlbEntry{vpn, frame, writable, user_ok};
  paddr = frame | (vaddr & kPageMask);
  return TranslateStatus::Ok;
}

TranslateStatus Mmu::peek(std::uint32_t vaddr, Access access, int cpl,
                          std::uint32_t& paddr) const {
  if (probe(vaddr, access, cpl, paddr)) return TranslateStatus::Ok;
  return resolve(vaddr, access, cpl, paddr, nullptr);
}

TranslateStatus Mmu::translate(std::uint32_t vaddr, Access access, int cpl,
                               std::uint32_t& paddr) {
  if (probe(vaddr, access, cpl, paddr)) return TranslateStatus::Ok;
  TlbEntry fill;
  const TranslateStatus status = resolve(vaddr, access, cpl, paddr, &fill);
  // resolve() returns Ok only from a walk: install the entry.
  if (status == TranslateStatus::Ok) {
    tlb_[fill.tag & (kTlbSize - 1)] = fill;
    ++epoch_;
  }
  return status;
}

}  // namespace kfi::vm
