#include "isagrid/pcu.hh"

#include "sim/logging.hh"

namespace isagrid {

PrivilegeCheckUnit::PrivilegeCheckUnit(const IsaModel &isa, PhysMem &mem,
                                       const PcuConfig &config,
                                       CacheHierarchy *timing)
    : isa_(isa), mem(mem), config_(config), timing(timing),
      hpt(isa.numInstTypes(), isa.numControlledCsrs(),
          isa.numMaskableCsrs()),
      instBitmapCache(config.unified_hpt_cache ? "unified_hpt_cache"
                                               : "inst_cache",
                      config.unified_hpt_cache
                          ? 3 * config.hpt_cache_entries
                          : config.hpt_cache_entries),
      regBitmapCache("reg_cache", config.unified_hpt_cache
                                      ? 0
                                      : config.hpt_cache_entries),
      bitMaskCache("mask_cache", config.unified_hpt_cache
                                     ? 0
                                     : config.hpt_cache_entries),
      sgtCache_("sgt_cache", config.sgt_cache_entries),
      legalCache_("legal_cache", config.legal_cache_entries),
      bypassBitmap(hpt.numInstGroups(), 0),
      statGroup("pcu")
{
    statGroup.addCounter("inst_checks", instChecks,
                         "instruction privilege checks");
    statGroup.addCounter("csr_read_checks", csrReadChecks,
                         "CSR read privilege checks");
    statGroup.addCounter("csr_write_checks", csrWriteChecks,
                         "CSR write privilege checks");
    statGroup.addCounter("mask_checks", maskChecks,
                         "bit-mask equation evaluations");
    statGroup.addCounter("switches", switchCount, "domain switches");
    statGroup.addCounter("extended_calls", extendedCallCount,
                         "hccalls/hcrets pairs");
    statGroup.addCounter("faults", faultCount, "privilege faults raised");
    statGroup.addCounter("bypass_checks", bypassCheckCount,
                         "checks served by the bypass register");
    statGroup.addCounter("prefetch_fills", prefetchFills,
                         "cache fills triggered by pfch");
    statGroup.addHistogram("switch_latency", switchLatency,
                           "stall cycles per successful gate traversal");
    statGroup.addChild(instBitmapCache.stats());
    statGroup.addChild(regBitmapCache.stats());
    statGroup.addChild(bitMaskCache.stats());
    statGroup.addChild(sgtCache_.stats());
    statGroup.addChild(legalCache_.stats());
}

void
PrivilegeCheckUnit::attachTrace(TraceBuffer *trace)
{
    trace_ = trace;
    if (trace)
        trace->setDomainSource(&gridRegs[idx(GridReg::Domain)]);
    bool unified = config_.unified_hpt_cache;
    instBitmapCache.setTrace(trace, unified ? kTraceCacheUnified
                                            : kTraceCacheInst);
    regBitmapCache.setTrace(trace, kTraceCacheReg);
    bitMaskCache.setTrace(trace, kTraceCacheMask);
    sgtCache_.setTrace(trace, kTraceCacheSgt);
    legalCache_.setTrace(trace, kTraceCacheLegal);
}

void
PrivilegeCheckUnit::reset()
{
    gridRegs.fill(0);
    instBitmapCache.flushAll();
    regBitmapCache.flushAll();
    bitMaskCache.flushAll();
    sgtCache_.flushAll();
    legalCache_.flushAll();
    bypassValid = false;
    tmem.configure(0, 0);
}

PcuCache<std::uint64_t> &
PrivilegeCheckUnit::hptCacheFor(HptKind kind)
{
    if (config_.unified_hpt_cache)
        return instBitmapCache; // doubles as the unified array
    switch (kind) {
      case HptKind::InstBitmap: return instBitmapCache;
      case HptKind::RegBitmap: return regBitmapCache;
      case HptKind::BitMask: return bitMaskCache;
    }
    return instBitmapCache;
}

Cycle
PrivilegeCheckUnit::fillLatency(Addr addr)
{
    if (timing)
        return timing->access(addr, false);
    return config_.fallback_fill_latency;
}

bool
PrivilegeCheckUnit::cachedWord(PcuCache<std::uint64_t> &cache, Addr addr,
                               std::uint64_t tag, std::uint64_t &word,
                               Cycle &stall)
{
    if (cache.numEntries() > 0 && cache.lookup(tag, word)) {
        accountDomainProbe(true);
        return true;
    }
    accountDomainProbe(false);
    stall += fillLatency(addr);
    if (!onBus(addr, 8))
        return false;
    word = mem.read64(addr);
    if (cache.numEntries() > 0)
        cache.fill(tag, word);
    return true;
}

bool
PrivilegeCheckUnit::refillBypass(Cycle &stall)
{
    DomainId domain = currentDomain();
    Addr base = gridRegs[idx(GridReg::InstCap)];
    for (std::uint32_t g = 0; g < hpt.numInstGroups(); ++g) {
        Addr addr = hpt.instWordAddr(base, domain, g);
        if (!cachedWord(hptCacheFor(HptKind::InstBitmap), addr,
                        hptTag(HptKind::InstBitmap, domain, g),
                        bypassBitmap[g], stall))
            return false;
    }
    bypassValid = true;
    ++bypassEpoch_;
    return true;
}

bool
PrivilegeCheckUnit::bypassCovers(const std::uint64_t *need,
                                 std::size_t words) const
{
    ISAGRID_ASSERT(words <= bypassBitmap.size(),
                   "check-memo with %zu groups against a %zu-group "
                   "bypass register", words, bypassBitmap.size());
    for (std::size_t g = 0; g < words; ++g) {
        if ((bypassBitmap[g] & need[g]) != need[g])
            return false;
    }
    return true;
}

CheckOutcome
PrivilegeCheckUnit::checkInstruction(InstTypeId type)
{
    ++instChecks;
    CheckOutcome out;
    // Domain-0 holds every privilege by default (Section 4.4).
    if (currentDomain() == 0) {
        out.allowed = true;
        ISAGRID_TRACE_EVENT(trace_, TraceKind::InstCheck, type, 0, 1);
        return out;
    }
    ISAGRID_ASSERT(type < hpt.instTypes(), "inst type %u", type);
    std::uint32_t group = HptLayout::instGroupOf(type);
    std::uint64_t word = 0;
    bool read = true;
    if (config_.bypass_enabled) {
        if (!bypassValid)
            read = refillBypass(out.stall);
        else
            ++bypassCheckCount;
        word = bypassBitmap[group];
    } else {
        DomainId domain = currentDomain();
        Addr addr = hpt.instWordAddr(gridRegs[idx(GridReg::InstCap)],
                                     domain, group);
        read = cachedWord(hptCacheFor(HptKind::InstBitmap), addr,
                          hptTag(HptKind::InstBitmap, domain, group),
                          word, out.stall);
    }
    if (!read) {
        out.fault = FaultType::MemoryFault;
        ++faultCount;
    } else if (word & (1ull << HptLayout::instBitOf(type))) {
        out.allowed = true;
    } else {
        out.fault = FaultType::InstPrivilege;
        ++faultCount;
    }
    ISAGRID_TRACE_EVENT(trace_, TraceKind::InstCheck, type, out.stall,
                        out.allowed ? 1 : 0);
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkInstructionAt(InstTypeId type, Addr pc,
                                       bool cacheable)
{
    if (legalCache_.numEntries() == 0 || !cacheable ||
        currentDomain() == 0) {
        return checkInstruction(type);
    }
    std::uint64_t tag = (currentDomain() << 48) ^ pc;
    std::uint8_t payload = 0;
    if (legalCache_.lookup(tag, payload)) {
        // A cached legal instruction: skip the whole check logic.
        CheckOutcome out;
        out.allowed = true;
        // flags bit 2: served from the legal-instruction cache.
        ISAGRID_TRACE_EVENT(trace_, TraceKind::InstCheck, type, 0,
                            1 | 2);
        return out;
    }
    CheckOutcome out = checkInstruction(type);
    if (out.allowed)
        legalCache_.fill(tag, 1);
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkCsrRead(std::uint32_t csr_addr)
{
    CheckOutcome out = checkCsrReadImpl(csr_addr);
    ISAGRID_TRACE_EVENT(trace_, TraceKind::CsrReadCheck, csr_addr,
                        out.stall, out.allowed ? 1 : 0);
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkCsrReadImpl(std::uint32_t csr_addr)
{
    ++csrReadChecks;
    CheckOutcome out;
    if (currentDomain() == 0) {
        out.allowed = true;
        return out;
    }
    CsrIndex index = isa_.csrBitmapIndex(csr_addr);
    if (index == invalidCsrIndex) {
        // Uncontrolled CSR: outside ISA-Grid's scope.
        out.allowed = true;
        return out;
    }
    DomainId domain = currentDomain();
    std::uint32_t group = HptLayout::regGroupOf(index);
    Addr addr = hpt.regWordAddr(gridRegs[idx(GridReg::CsrCap)], domain,
                                group);
    std::uint64_t word = 0;
    if (!cachedWord(hptCacheFor(HptKind::RegBitmap), addr,
                    hptTag(HptKind::RegBitmap, domain, group), word,
                    out.stall)) {
        out.fault = FaultType::MemoryFault;
        ++faultCount;
    } else if (word & (1ull << HptLayout::regReadBit(index))) {
        out.allowed = true;
    } else {
        out.fault = FaultType::CsrPrivilege;
        ++faultCount;
    }
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkCsrWrite(std::uint32_t csr_addr, RegVal old_value,
                                  RegVal new_value)
{
    CheckOutcome out = checkCsrWriteImpl(csr_addr, old_value, new_value);
    ISAGRID_TRACE_EVENT(trace_, TraceKind::CsrWriteCheck, csr_addr,
                        out.stall, out.allowed ? 1 : 0);
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkCsrWriteImpl(std::uint32_t csr_addr,
                                      RegVal old_value, RegVal new_value)
{
    ++csrWriteChecks;
    CheckOutcome out;
    if (currentDomain() == 0) {
        out.allowed = true;
        return out;
    }
    CsrIndex index = isa_.csrBitmapIndex(csr_addr);
    if (index == invalidCsrIndex) {
        out.allowed = true;
        return out;
    }
    DomainId domain = currentDomain();
    std::uint32_t group = HptLayout::regGroupOf(index);
    Addr addr = hpt.regWordAddr(gridRegs[idx(GridReg::CsrCap)], domain,
                                group);
    std::uint64_t word = 0;
    if (!cachedWord(hptCacheFor(HptKind::RegBitmap), addr,
                    hptTag(HptKind::RegBitmap, domain, group), word,
                    out.stall)) {
        out.fault = FaultType::MemoryFault;
        ++faultCount;
        return out;
    }
    if (word & (1ull << HptLayout::regWriteBit(index))) {
        out.allowed = true; // full write privilege
        return out;
    }
    // No full write bit: a bit-maskable CSR may still permit writes
    // that only touch masked bits.
    CsrIndex mask_index = isa_.csrMaskIndex(csr_addr);
    if (mask_index == invalidCsrIndex) {
        out.fault = FaultType::CsrPrivilege;
        ++faultCount;
        return out;
    }
    ++maskChecks;
    Addr mask_addr = hpt.maskAddr(gridRegs[idx(GridReg::CsrBitMask)],
                                  domain, mask_index);
    std::uint64_t mask = 0;
    if (!cachedWord(hptCacheFor(HptKind::BitMask), mask_addr,
                    hptTag(HptKind::BitMask, domain, mask_index), mask,
                    out.stall)) {
        out.fault = FaultType::MemoryFault;
        ++faultCount;
    } else if (HptLayout::maskPermits(old_value, new_value, mask)) {
        out.allowed = true;
    } else {
        out.fault = FaultType::CsrMaskViolation;
        ++faultCount;
    }
    return out;
}

void
PrivilegeCheckUnit::switchDomain(DomainId dest)
{
    DomainId source = currentDomain();
    gridRegs[idx(GridReg::PDomain)] = source;
    gridRegs[idx(GridReg::Domain)] = dest;
    bypassValid = false;
    ++switchCount;
    // Emitted after the registers move so the event's sampled domain
    // field already carries the destination (the validateTrace domain-
    // continuity invariant).
    ISAGRID_TRACE_EVENT(trace_, TraceKind::DomainSwitch, dest, source,
                        0);
}

GateOutcome
PrivilegeCheckUnit::gateCall(GateId gate, Addr gate_pc, bool extended,
                             Addr return_pc)
{
    GateOutcome out = gateCallImpl(gate, gate_pc, extended, return_pc);
    if (out.ok)
        switchLatency.sample(out.stall);
    ISAGRID_TRACE_EVENT(trace_, TraceKind::GateCall, gate, out.stall,
                        std::uint16_t((out.ok ? 1 : 0) |
                                      (extended ? 2 : 0)));
    return out;
}

GateOutcome
PrivilegeCheckUnit::gateCallImpl(GateId gate, Addr gate_pc, bool extended,
                                 Addr return_pc)
{
    GateOutcome out;
    if (gate >= gridRegs[idx(GridReg::GateNr)]) {
        out.fault = FaultType::GateFault;
        ++faultCount;
        return out;
    }
    // Fetch the SGT entry, through the SGT cache when configured.
    Addr table = gridRegs[idx(GridReg::GateAddr)];
    SgtEntry entry;
    bool hit = sgtCache_.numEntries() > 0 && sgtCache_.lookup(gate, entry);
    accountDomainProbe(hit);
    if (!hit) {
        Addr entry_addr = sgtEntryAddr(table, gate);
        out.stall += fillLatency(entry_addr);
        if (!onBus(entry_addr, SgtEntry::sizeBytes)) {
            out.fault = FaultType::MemoryFault;
            ++faultCount;
            return out;
        }
        entry = sgtRead(mem, table, gate);
        if (sgtCache_.numEntries() > 0)
            sgtCache_.fill(gate, entry);
    }
    // Gate property (i): the gate only fires at its registered address.
    if (entry.gate_addr != gate_pc) {
        out.fault = FaultType::GateFault;
        ++faultCount;
        return out;
    }
    // The dest_domain field is a raw 64-bit guest-memory word: when the
    // table is corrupted (or misconfigured to lie outside trusted
    // memory and overwritten), it can hold any value. Switching into an
    // unconfigured domain would read that domain's HPT rows from
    // unrelated memory — and a huge id would overflow the
    // privilege-cache tag field. Out-of-range destinations fault.
    DomainId domains = gridRegs[idx(GridReg::DomainNr)];
    if (domains != 0 && entry.dest_domain >= domains) {
        out.fault = FaultType::GateFault;
        ++faultCount;
        return out;
    }
    if (extended) {
        // Push (return address, source domain) onto the trusted stack.
        RegVal sp = gridRegs[idx(GridReg::Hcsp)];
        if (sp < gridRegs[idx(GridReg::Hcsb)] ||
            sp + 16 > gridRegs[idx(GridReg::Hcsl)]) {
            out.fault = FaultType::TrustedStackFault;
            ++faultCount;
            return out;
        }
        out.stall += fillLatency(sp);
        if (!onBus(sp, 16)) {
            out.fault = FaultType::MemoryFault;
            ++faultCount;
            return out;
        }
        mem.write64(sp, return_pc);
        mem.write64(sp + 8, currentDomain());
        gridRegs[idx(GridReg::Hcsp)] = sp + 16;
        ++extendedCallCount;
        ISAGRID_TRACE_EVENT(trace_, TraceKind::StackPush, sp + 16,
                            return_pc, 0);
    }
    switchDomain(entry.dest_domain);
    out.ok = true;
    out.dest_pc = entry.dest_addr;
    out.dest_domain = entry.dest_domain;
    return out;
}

GateOutcome
PrivilegeCheckUnit::gateReturn()
{
    GateOutcome out = gateReturnImpl();
    if (out.ok)
        switchLatency.sample(out.stall);
    ISAGRID_TRACE_EVENT(trace_, TraceKind::GateRet, out.dest_pc,
                        out.stall, out.ok ? 1 : 0);
    return out;
}

GateOutcome
PrivilegeCheckUnit::gateReturnImpl()
{
    GateOutcome out;
    RegVal sp = gridRegs[idx(GridReg::Hcsp)];
    if (sp < gridRegs[idx(GridReg::Hcsb)] + 16) {
        out.fault = FaultType::TrustedStackFault;
        ++faultCount;
        return out;
    }
    sp -= 16;
    out.stall += fillLatency(sp);
    if (!onBus(sp, 16)) {
        out.fault = FaultType::MemoryFault;
        ++faultCount;
        return out;
    }
    Addr return_pc = mem.read64(sp);
    DomainId return_domain = mem.read64(sp + 8);
    // hcrets may never re-enter domain-0 (Section 4.4): domain-0 owns
    // every privilege and an attacker-controlled return would otherwise
    // land there with a non-registered destination.
    if (return_domain == 0) {
        out.fault = FaultType::GateFault;
        ++faultCount;
        return out;
    }
    // Same range validation as gateCall: a forged or corrupted frame
    // must not switch into a domain that was never configured.
    DomainId domains = gridRegs[idx(GridReg::DomainNr)];
    if (domains != 0 && return_domain >= domains) {
        out.fault = FaultType::GateFault;
        ++faultCount;
        return out;
    }
    gridRegs[idx(GridReg::Hcsp)] = sp;
    ISAGRID_TRACE_EVENT(trace_, TraceKind::StackPop, sp, return_pc, 0);
    switchDomain(return_domain);
    out.ok = true;
    out.dest_pc = return_pc;
    out.dest_domain = return_domain;
    return out;
}

CheckOutcome
PrivilegeCheckUnit::prefetch(std::uint64_t csr_selector)
{
    // Prefetch fills are issued at low priority (Section 4.3): they do
    // not stall the pipeline, so the cost returned is zero; the fills
    // themselves are visible in the cache statistics. A fill off the
    // bus is the exception: it faults precisely, charged one fill.
    CheckOutcome out;
    out.allowed = true;
    DomainId domain = currentDomain();
    Addr reg_base = gridRegs[idx(GridReg::CsrCap)];
    Addr mask_base = gridRegs[idx(GridReg::CsrBitMask)];

    auto fill = [&](PcuCache<std::uint64_t> &cache, std::uint64_t tag,
                    Addr addr) {
        if (!out.allowed)
            return;
        if (!onBus(addr, 8)) {
            out.allowed = false;
            out.fault = FaultType::MemoryFault;
            out.stall += fillLatency(addr);
            ++faultCount;
            return;
        }
        cache.fill(tag, mem.read64(addr));
        ++prefetchFills;
    };
    auto fill_reg_group = [&](std::uint32_t group) {
        auto &cache = hptCacheFor(HptKind::RegBitmap);
        std::uint64_t tag = hptTag(HptKind::RegBitmap, domain, group);
        if (cache.numEntries() == 0 || cache.contains(tag))
            return;
        fill(cache, tag, hpt.regWordAddr(reg_base, domain, group));
    };
    auto fill_mask = [&](CsrIndex mask_index) {
        auto &cache = hptCacheFor(HptKind::BitMask);
        std::uint64_t tag = hptTag(HptKind::BitMask, domain,
                                   mask_index);
        if (cache.numEntries() == 0 || cache.contains(tag))
            return;
        fill(cache, tag, hpt.maskAddr(mask_base, domain, mask_index));
    };

    if (csr_selector == 0) {
        for (std::uint32_t g = 0; g < hpt.numRegGroups(); ++g)
            fill_reg_group(g);
        for (CsrIndex m = 0; m < hpt.numMaskEntries(); ++m)
            fill_mask(m);
        return out;
    }
    auto csr_addr = static_cast<std::uint32_t>(csr_selector);
    CsrIndex index = isa_.csrBitmapIndex(csr_addr);
    if (index != invalidCsrIndex)
        fill_reg_group(HptLayout::regGroupOf(index));
    CsrIndex mask_index = isa_.csrMaskIndex(csr_addr);
    if (mask_index != invalidCsrIndex)
        fill_mask(mask_index);
    return out;
}

void
PrivilegeCheckUnit::flushBuffers(PcuBuffer buffer)
{
    switch (buffer) {
      case PcuBuffer::All:
        instBitmapCache.flushAll();
        regBitmapCache.flushAll();
        bitMaskCache.flushAll();
        sgtCache_.flushAll();
        legalCache_.flushAll();
        bypassValid = false;
        break;
      case PcuBuffer::InstCache:
        instBitmapCache.flushAll();
        legalCache_.flushAll();
        bypassValid = false;
        break;
      case PcuBuffer::RegCache:
        hptCacheFor(HptKind::RegBitmap).flushAll();
        // The unified array also holds instruction entries whose
        // bypass snapshot must not outlive them.
        if (config_.unified_hpt_cache)
            bypassValid = false;
        break;
      case PcuBuffer::MaskCache:
        hptCacheFor(HptKind::BitMask).flushAll();
        if (config_.unified_hpt_cache)
            bypassValid = false;
        break;
      case PcuBuffer::SgtCache:
        sgtCache_.flushAll();
        break;
    }
}

CheckOutcome
PrivilegeCheckUnit::readGridReg(GridReg reg, RegVal &value) const
{
    CheckOutcome out;
    bool public_reg = reg == GridReg::Domain || reg == GridReg::PDomain;
    if (!public_reg && currentDomain() != 0) {
        out.fault = FaultType::CsrPrivilege;
        return out;
    }
    value = gridRegs[idx(reg)];
    out.allowed = true;
    return out;
}

CheckOutcome
PrivilegeCheckUnit::writeGridReg(GridReg reg, RegVal value)
{
    CheckOutcome out;
    // domain/pdomain are moved only by the switching engine; normal CSR
    // writes can never change them, even from domain-0 (Section 5.1).
    if (reg == GridReg::Domain || reg == GridReg::PDomain) {
        out.fault = FaultType::CsrPrivilege;
        ++faultCount;
        return out;
    }
    if (currentDomain() != 0) {
        out.fault = FaultType::CsrPrivilege;
        ++faultCount;
        return out;
    }
    setGridReg(reg, value);
    out.allowed = true;
    return out;
}

void
PrivilegeCheckUnit::setGridReg(GridReg reg, RegVal value)
{
    gridRegs[idx(reg)] = value;
    if (reg == GridReg::Tmemb || reg == GridReg::Tmeml) {
        RegVal base = gridRegs[idx(GridReg::Tmemb)];
        RegVal limit = gridRegs[idx(GridReg::Tmeml)];
        // The two bounds are written one CSR at a time; the region only
        // takes effect once they describe a valid range.
        if (limit > base)
            tmem.configure(base, limit);
    }
}

std::size_t
PrivilegeCheckUnit::trustedStackFrames(PerfFrame *out,
                                       std::size_t max) const
{
    const RegVal base = gridRegs[idx(GridReg::Hcsb)];
    const RegVal sp = gridRegs[idx(GridReg::Hcsp)];
    // An unconfigured or corrupt stack yields no chain rather than a
    // bogus one: frames are 16 bytes and must all lie inside memory.
    if (sp <= base || (sp - base) % 16 != 0 || !onBus(base, sp - base))
        return 0;
    std::size_t frames = static_cast<std::size_t>((sp - base) / 16);
    std::size_t first = frames > max ? frames - max : 0;
    std::size_t depth = 0;
    for (std::size_t f = first; f < frames; ++f) {
        Addr addr = base + 16 * f;
        out[depth].return_pc = mem.read64(addr);
        out[depth].domain =
            static_cast<std::uint32_t>(mem.read64(addr + 8));
        ++depth;
    }
    return depth;
}

void
PrivilegeCheckUnit::domainCacheValues(
    std::map<std::string, double> &out) const
{
    for (const auto &[domain, counts] : domainCacheCounts_) {
        std::string prefix =
            "pcu.domain." + std::to_string(domain) + ".";
        double total = double(counts.hits + counts.misses);
        out[prefix + "cache_hits"] = double(counts.hits);
        out[prefix + "cache_misses"] = double(counts.misses);
        out[prefix + "cache_hit_rate"] =
            total == 0 ? 0.0 : double(counts.hits) / total;
    }
}

} // namespace isagrid
