#include "fuzz/artifact.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "isa/grid_regs.hh"
#include "isagrid/pcu.hh"
#include "sim/logging.hh"

namespace isagrid {

namespace {

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(tok.c_str(), &end, 0);
    return errno == 0 && end && *end == '\0';
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::uint8_t
FuzzArtifact::read8(Addr addr) const
{
    for (const MemChunk &c : chunks) {
        if (addr >= c.base && addr < c.base + c.bytes.size())
            return c.bytes[addr - c.base];
    }
    return 0;
}

std::uint64_t
FuzzArtifact::read64(Addr addr) const
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(read8(addr + i)) << (8 * i);
    return v;
}

void
FuzzArtifact::write8(Addr addr, std::uint8_t value)
{
    // Inside an existing chunk: plain store.
    for (MemChunk &c : chunks) {
        if (addr >= c.base && addr < c.base + c.bytes.size()) {
            c.bytes[addr - c.base] = value;
            return;
        }
    }
    // In a gap, which reads as zero: writing zero is a no-op, so the
    // chunk list stays canonical under redundant writes.
    if (value == 0)
        return;
    MemChunk fresh{addr, {value}};
    auto it = std::upper_bound(
        chunks.begin(), chunks.end(), fresh,
        [](const MemChunk &a, const MemChunk &b) { return a.base < b.base; });
    it = chunks.insert(it, std::move(fresh));
    // Coalesce with adjacent neighbours to keep serialization stable.
    if (it != chunks.begin()) {
        auto prev = std::prev(it);
        if (prev->base + prev->bytes.size() == it->base) {
            prev->bytes.push_back(it->bytes[0]);
            it = chunks.erase(it);
            it = std::prev(it);
        }
    }
    auto next = std::next(it);
    if (next != chunks.end() &&
        it->base + it->bytes.size() == next->base) {
        it->bytes.insert(it->bytes.end(), next->bytes.begin(),
                         next->bytes.end());
        chunks.erase(next);
    }
}

void
FuzzArtifact::write64(Addr addr, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

std::string
FuzzArtifact::serialize() const
{
    std::string out = "isagrid-fuzz-artifact v1\n";
    out += "arch ";
    out += x86 ? "x86" : "riscv";
    out += '\n';
    out += "name " + name + '\n';
    out += "start " + hex(start_pc);
    if (startsAtReset())
        out += " reset\n";
    else
        out += " domain " + std::to_string(start_domain) + '\n';
    for (Addr e : entries)
        out += "entry " + hex(e) + '\n';
    for (std::uint8_t r = 0; r < numGridRegs; ++r) {
        out += "reg ";
        out += gridRegName(static_cast<GridReg>(r));
        out += ' ' + hex(snapshot.regs[r]) + '\n';
    }
    for (const CodeRegion &region : regions) {
        out += "region " + hex(region.base) + ' ' + hex(region.limit) +
               ' ' + std::to_string(region.domain) + ' ' + region.name +
               '\n';
    }
    for (const MemChunk &chunk : chunks) {
        out += "mem " + hex(chunk.base) + ' ';
        out.reserve(out.size() + 2 * chunk.bytes.size() + 8);
        static const char digits[] = "0123456789abcdef";
        for (std::uint8_t b : chunk.bytes) {
            out += digits[b >> 4];
            out += digits[b & 0xf];
        }
        out += '\n';
    }
    out += "end\n";
    return out;
}

bool
FuzzArtifact::parse(const std::string &text, FuzzArtifact &out,
                    std::string &error)
{
    out = FuzzArtifact{};
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != "isagrid-fuzz-artifact v1") {
        error = "missing artifact header";
        return false;
    }
    bool saw_end = false;
    std::size_t lineno = 1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        auto fail = [&](const std::string &what) {
            error = "line " + std::to_string(lineno) + ": " + what;
            return false;
        };
        if (key == "end") {
            saw_end = true;
            break;
        } else if (key == "arch") {
            std::string arch;
            ls >> arch;
            if (arch == "x86")
                out.x86 = true;
            else if (arch != "riscv")
                return fail("unknown arch '" + arch + "'");
        } else if (key == "name") {
            std::string rest;
            std::getline(ls, rest);
            if (!rest.empty() && rest.front() == ' ')
                rest.erase(rest.begin());
            out.name = rest;
        } else if (key == "start") {
            std::string pc, mode;
            ls >> pc >> mode;
            std::uint64_t v = 0;
            if (!parseU64(pc, v))
                return fail("bad start pc");
            out.start_pc = v;
            if (mode == "reset") {
                out.start_domain = ~DomainId{0};
            } else if (mode == "domain") {
                std::string dom;
                ls >> dom;
                if (!parseU64(dom, v))
                    return fail("bad start domain");
                out.start_domain = static_cast<DomainId>(v);
            } else {
                return fail("bad start mode '" + mode + "'");
            }
        } else if (key == "entry") {
            std::string tok;
            ls >> tok;
            std::uint64_t v = 0;
            if (!parseU64(tok, v))
                return fail("bad entry");
            out.entries.push_back(v);
        } else if (key == "reg") {
            std::string rname, tok;
            ls >> rname >> tok;
            std::uint64_t v = 0;
            if (!parseU64(tok, v))
                return fail("bad reg value");
            bool found = false;
            for (std::uint8_t r = 0; r < numGridRegs; ++r) {
                if (rname == gridRegName(static_cast<GridReg>(r))) {
                    out.snapshot.regs[r] = v;
                    found = true;
                    break;
                }
            }
            if (!found)
                return fail("unknown grid register '" + rname + "'");
        } else if (key == "region") {
            std::string base, limit, dom, rest;
            ls >> base >> limit >> dom;
            std::getline(ls, rest);
            if (!rest.empty() && rest.front() == ' ')
                rest.erase(rest.begin());
            CodeRegion region;
            std::uint64_t v = 0;
            if (!parseU64(base, v))
                return fail("bad region base");
            region.base = v;
            if (!parseU64(limit, v))
                return fail("bad region limit");
            region.limit = v;
            if (!parseU64(dom, v))
                return fail("bad region domain");
            region.domain = static_cast<DomainId>(v);
            region.name = rest;
            out.regions.push_back(std::move(region));
        } else if (key == "mem") {
            std::string base, data;
            ls >> base >> data;
            std::uint64_t v = 0;
            if (!parseU64(base, v))
                return fail("bad mem base");
            if (data.empty() || data.size() % 2 != 0)
                return fail("bad mem data");
            MemChunk chunk;
            chunk.base = v;
            chunk.bytes.reserve(data.size() / 2);
            for (std::size_t i = 0; i < data.size(); i += 2) {
                int hi = hexNibble(data[i]);
                int lo = hexNibble(data[i + 1]);
                if (hi < 0 || lo < 0)
                    return fail("bad mem hex digit");
                chunk.bytes.push_back(
                    static_cast<std::uint8_t>(hi << 4 | lo));
            }
            if (!out.chunks.empty()) {
                const MemChunk &last = out.chunks.back();
                if (chunk.base < last.base + last.bytes.size())
                    return fail("mem chunks not sorted/disjoint");
            }
            out.chunks.push_back(std::move(chunk));
        } else {
            return fail("unknown key '" + key + "'");
        }
    }
    if (!saw_end) {
        error = "missing end marker (truncated artifact)";
        return false;
    }
    return true;
}

std::unique_ptr<Machine>
FuzzArtifact::restore(bool block_engine) const
{
    MachineConfig config;
    config.block_engine = block_engine;
    auto machine = x86 ? Machine::gem5x86(config) : Machine::rocket(config);
    PhysMem &mem = machine->mem();
    for (const MemChunk &chunk : chunks) {
        // Clamp instead of panicking: a parsed (or mutated) artifact
        // may address past the fixed guest memory; those bytes are
        // unreachable by the core anyway (fetch/access bounds-fault).
        if (chunk.base >= mem.size())
            continue;
        std::size_t len = std::min<std::size_t>(
            chunk.bytes.size(), mem.size() - chunk.base);
        mem.writeBlock(chunk.base, chunk.bytes.data(), len);
    }
    for (std::uint8_t r = 0; r < numGridRegs; ++r) {
        machine->pcu().setGridReg(static_cast<GridReg>(r),
                                  snapshot.regs[r]);
    }
    machine->pcu().flushBuffers(PcuBuffer::All);
    return machine;
}

void
FuzzArtifact::position(Machine &machine) const
{
    machine.core().reset(start_pc);
    if (!startsAtReset())
        machine.pcu().setGridReg(GridReg::Domain, start_domain);
}

FuzzArtifact
captureArtifact(Machine &machine, bool x86, std::string name,
                Addr start_pc, DomainId start_domain,
                std::vector<Addr> entries,
                std::vector<CodeRegion> regions)
{
    FuzzArtifact artifact;
    artifact.x86 = x86;
    artifact.name = std::move(name);
    artifact.start_pc = start_pc;
    artifact.start_domain = start_domain;
    artifact.entries = std::move(entries);
    artifact.snapshot = PolicySnapshot::fromPcu(machine.pcu());
    artifact.regions = std::move(regions);

    const PhysMem &mem = machine.mem();
    constexpr std::size_t line = PhysMem::kLineBytes;
    std::vector<std::uint8_t> buf(line);
    MemChunk current;
    bool open = false;
    auto flush = [&]() {
        if (!open)
            return;
        // Trim leading/trailing zero bytes so the canonical form does
        // not depend on line granularity.
        std::size_t lo = 0, hi = current.bytes.size();
        while (lo < hi && current.bytes[lo] == 0)
            ++lo;
        while (hi > lo && current.bytes[hi - 1] == 0)
            --hi;
        if (hi > lo) {
            MemChunk trimmed;
            trimmed.base = current.base + lo;
            trimmed.bytes.assign(current.bytes.begin() + lo,
                                 current.bytes.begin() + hi);
            artifact.chunks.push_back(std::move(trimmed));
        }
        current = MemChunk{};
        open = false;
    };
    for (Addr addr = 0; addr < mem.size(); addr += line) {
        // A never-written page still reads as zeros: skip it whole,
        // without touching its bytes or its line generations.
        if (addr % PhysMem::kPageBytes == 0 && !mem.pageWritten(addr)) {
            flush();
            addr += PhysMem::kPageBytes - line;
            continue;
        }
        // Likewise an unwritten line within a written page.
        bool live = mem.lineGen(addr) != 0;
        if (live) {
            mem.readBlock(addr, buf.data(), line);
            live = std::any_of(buf.begin(), buf.end(),
                               [](std::uint8_t b) { return b != 0; });
        }
        if (!live) {
            flush();
            continue;
        }
        if (!open) {
            current.base = addr;
            open = true;
        }
        current.bytes.insert(current.bytes.end(), buf.begin(), buf.end());
    }
    flush();
    return artifact;
}

} // namespace isagrid
