#include "cpu/block/block_engine.hh"

#include <algorithm>
#include <cstring>

namespace isagrid {

BlockEngine::BlockEngine(const IsaModel &isa, PhysMem &mem,
                         const PrivilegeCheckUnit &pcu,
                         std::uint32_t hot_threshold)
    : isa_(isa), mem(mem), pcu_(pcu),
      hotThreshold_(std::max<std::uint32_t>(hot_threshold, 1)),
      slots_(ZeroPages<Slot>::reuse(std::size_t{1} << kSlotBits)),
      heat_(ZeroPages<HeatSlot>::reuse(std::size_t{1} << kHeatBits))
{
}

BlockEngine::~BlockEngine()
{
    slots_.recycle();
    heat_.recycle();
}

void
BlockEngine::setSlot(Addr pc, TransBlock *block)
{
    std::size_t i = slotIndex(pc);
    slots_.markWritten(i);
    slots_[i] = Slot{~pc, block};
}

TransBlock *
BlockEngine::findCold(Addr pc)
{
    auto it = blocks_.find(pc);
    if (it == blocks_.end())
        return nullptr;
    setSlot(pc, &it->second);
    return &it->second;
}

TransBlock *
BlockEngine::heat(Addr pc)
{
    std::size_t i = heatIndex(pc);
    HeatSlot &h = heat_[i];
    if (h.tag != ~pc || pc == ~Addr{0}) {
        // Collisions just replace the counter: a displaced pc only
        // re-earns its heat, delaying (never preventing) translation.
        // Only a new tag can be a slot's first write; pc ~0, whose tag
        // reads as empty, never counts (it lies past any memory).
        heat_.markWritten(i);
        h.tag = ~pc;
        h.count = 1;
        return nullptr;
    }
    if (++h.count < hotThreshold_)
        return nullptr;
    h.count = 0;
    return translate(pc);
}

std::vector<Addr>
BlockEngine::blockPcs() const
{
    std::vector<Addr> pcs;
    pcs.reserve(blocks_.size());
    for (const auto &[pc, b] : blocks_)
        if (!b.dead)
            pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());
    return pcs;
}

void
BlockEngine::flushAll()
{
    // No TransBlock pointer is live here: translation only runs from
    // the top of the core's block loop (never while a block executes),
    // and chain pointers die with the blocks that hold them. Every
    // filled lookup slot points at a block, so clearing the blocks'
    // own slots empties the table without touching its other pages.
    for (const auto &[pc, b] : blocks_)
        slots_[slotIndex(pc)] = Slot{};
    // An empty map holds no arena memory, so once the old one is
    // gone the arena can go back whole.
    decltype(blocks_)(&arena_).swap(blocks_);
    arena_.release();
}

bool
BlockEngine::eligible(const DecodedInst &inst) const
{
    // Only instructions whose stepOne path is pure
    // execute + memory + retire, or a gate, may join a block: anything
    // touching CSRs, traps, the PCU buffers or the halt/syscall exits
    // terminates translation and stays with the interpreter.
    switch (inst.cls) {
      case InstClass::IntAlu:
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::Nop:
      case InstClass::SimMark:
      case InstClass::GateCall:
      case InstClass::GateCallS:
      case InstClass::GateRet:
        break;
      default:
        return false;
    }
    return !inst.isCsrAccess() && !inst.csr_dynamic &&
           inst.csr_addr == ~std::uint32_t{0};
}

void
BlockEngine::translateInto(TransBlock &b)
{
    // Decode into a scratch list, so the block's own arrays are sized
    // once (the arena never reuses what a grown vector drops).
    std::vector<BlockOp> &ops = scratch_;
    ops.clear();
    b.need_words.assign(pcu_.layout().numInstGroups(), 0);
    b.memo_epoch = 0;
    b.any_privileged = false;

    const std::size_t max_inst = isa_.maxInstBytes();
    Addr pc = b.start;
    while (ops.size() < kMaxOps && pc - b.start < kMaxBytes) {
        if (pc >= mem.size())
            break;
        std::uint8_t buf[16] = {};
        std::size_t avail =
            std::min<std::size_t>(max_inst, mem.size() - pc);
        mem.readBlock(pc, buf, avail);
        DecodedInst inst = isa_.decode(buf, avail, pc);
        if (!inst.valid || !eligible(inst))
            break;
        b.any_privileged |= isa_.instPrivileged(inst);
        b.need_words[HptLayout::instGroupOf(inst.type)] |=
            std::uint64_t{1} << HptLayout::instBitOf(inst.type);
        bool terminator = inst.cls == InstClass::Branch ||
                          inst.cls == InstClass::Jump ||
                          isGateClass(inst.cls);
        pc += inst.length;
        ops.push_back(BlockOp{pc - inst.length, std::move(inst)});
        if (terminator)
            break;
    }
    b.byte_end = pc;
    b.ops.assign(ops.begin(), ops.end());
    if (b.ops.empty()) {
        b.dead = true;
        ++stats_.dead_blocks;
        return;
    }
    b.bytes.resize(b.byte_end - b.start);
    mem.readBlock(b.start, b.bytes.data(), b.bytes.size());
    b.line_gens.resize((b.byte_end - b.firstLine() + 63) / 64);
    for (std::size_t i = 0; i < b.line_gens.size(); ++i)
        b.line_gens[i] = mem.lineGen(b.firstLine() + 64 * i);
}

TransBlock *
BlockEngine::translate(Addr pc)
{
    if (blocks_.size() >= kMaxBlocks) {
        ++stats_.flushes;
        flushAll();
    }
    TransBlock &b = blocks_.try_emplace(pc).first->second;
    b.start = pc;
    translateInto(b);
    if (!b.dead)
        ++stats_.translations;
    setSlot(pc, &b);
    return &b;
}

BlockEngine::Revalidation
BlockEngine::revalidate(TransBlock &b)
{
    bool stale = false;
    Addr line = b.firstLine();
    for (std::size_t i = 0; i < b.line_gens.size(); ++i, line += 64) {
        if (mem.lineGen(line) != b.line_gens[i]) {
            stale = true;
            break;
        }
    }
    if (!stale) [[likely]]
        return Revalidation::Valid;

    // A store touched a covered line. Distinguish a data write that
    // merely shares the line (bytes intact: refresh the generations
    // and keep the translation) from a real code patch.
    std::vector<std::uint8_t> now(b.bytes.size());
    mem.readBlock(b.start, now.data(), now.size());
    if (std::equal(now.begin(), now.end(), b.bytes.begin(), b.bytes.end())) {
        line = b.firstLine();
        for (std::size_t i = 0; i < b.line_gens.size(); ++i, line += 64)
            b.line_gens[i] = mem.lineGen(line);
        ++stats_.gen_refreshes;
        return Revalidation::Refreshed;
    }

    ++stats_.invalidations;
    if (++b.invalidations > kMaxInvalidations) {
        // Pathologically self-patching code: stop burning translation
        // work and leave this region to the interpreter for good.
        b.dead = true;
        b.ops.clear();
        b.ops.shrink_to_fit();
        b.bytes.clear();
        b.bytes.shrink_to_fit();
        ++stats_.dead_blocks;
        return Revalidation::Dead;
    }
    // Rebuild in place: the object (and chain pointers to it) stays
    // valid; the new code may translate to a different op sequence or
    // prove untranslatable (dead).
    translateInto(b);
    if (b.dead)
        return Revalidation::Dead;
    ++stats_.retranslations;
    return Revalidation::Retranslated;
}

} // namespace isagrid
