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
        return timing->accessRef(addr, false, fillRefs_[addr]);
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
    CachedWalk walk{*this, out.stall};
    settle(out, rules::instruction(walk, currentDomain(), type).fault);
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
    ++csrReadChecks;
    CheckOutcome out;
    CachedWalk walk{*this, out.stall};
    settle(out, rules::csrRead(walk, currentDomain(),
                               isa_.csrBitmapIndex(csr_addr))
                    .fault);
    ISAGRID_TRACE_EVENT(trace_, TraceKind::CsrReadCheck, csr_addr,
                        out.stall, out.allowed ? 1 : 0);
    return out;
}

CheckOutcome
PrivilegeCheckUnit::checkCsrWrite(std::uint32_t csr_addr, RegVal old_value,
                                  RegVal new_value)
{
    ++csrWriteChecks;
    CheckOutcome out;
    CachedWalk walk{*this, out.stall};
    settle(out, rules::csrWrite(walk, currentDomain(),
                                isa_.csrBitmapIndex(csr_addr),
                                isa_.csrMaskIndex(csr_addr))
                    .write(old_value, new_value));
    ISAGRID_TRACE_EVENT(trace_, TraceKind::CsrWriteCheck, csr_addr,
                        out.stall, out.allowed ? 1 : 0);
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

bool
PrivilegeCheckUnit::CachedWalk::entry(GateId gate, Addr addr,
                                      SgtEntry &out)
{
    bool hit = pcu.sgtCache_.numEntries() > 0 &&
               pcu.sgtCache_.lookup(gate, out);
    pcu.accountDomainProbe(hit);
    if (hit)
        return true;
    stall += pcu.fillLatency(addr);
    if (!pcu.onBus(addr, SgtEntry::sizeBytes))
        return false;
    out = {pcu.mem.read64(addr), pcu.mem.read64(addr + 8),
           pcu.mem.read64(addr + 16)};
    if (pcu.sgtCache_.numEntries() > 0)
        pcu.sgtCache_.fill(gate, out);
    return true;
}

GateOutcome
PrivilegeCheckUnit::gateCallImpl(GateId gate, Addr gate_pc, bool extended,
                                 Addr return_pc)
{
    GateOutcome out;
    CachedWalk walk{*this, out.stall};
    const Verdict v = rules::gateCall(walk, gate, gate_pc);
    if (v.fault != FaultType::None) {
        out.fault = v.fault;
        ++faultCount;
        return out;
    }
    const SgtEntry &entry = v.entry;
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
    CachedWalk walk{*this, out.stall};
    out.fault = rules::frameReturn(walk, return_domain).fault;
    if (out.fault != FaultType::None) {
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
    out.fault = rules::gridReg(currentDomain(), reg, false).fault;
    out.allowed = out.fault == FaultType::None;
    if (out.allowed)
        value = gridRegs[idx(reg)];
    return out;
}

CheckOutcome
PrivilegeCheckUnit::writeGridReg(GridReg reg, RegVal value)
{
    CheckOutcome out;
    settle(out, rules::gridReg(currentDomain(), reg, true).fault);
    if (out.allowed)
        setGridReg(reg, value);
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
