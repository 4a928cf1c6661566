/**
 * @file
 * FuzzArtifact round-trip and sparse-memory semantics.
 *
 * The fuzzer's whole determinism story rests on the artifact being a
 * canonical value: serialize∘parse must be the identity on bytes,
 * capture∘restore must be the identity on configurations, and the
 * sparse read/write helpers must keep the chunk list sorted and
 * coalesced no matter the write order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/artifact.hh"
#include "fuzz/fuzz.hh"

using namespace isagrid;

namespace {

FuzzArtifact
firstSeed(bool x86)
{
    std::vector<FuzzArtifact> seeds = builtinSeeds(x86);
    EXPECT_FALSE(seeds.empty());
    return seeds.front();
}

FuzzArtifact
recapture(Machine &machine, const FuzzArtifact &like)
{
    return captureArtifact(machine, like.x86, like.name, like.start_pc,
                           like.start_domain, like.entries, like.regions);
}

/**
 * The chunks captureArtifact must produce, found by brute force: read
 * every line of memory, join runs of lines holding a non-zero byte,
 * trim zero bytes off both ends of each run.
 */
std::vector<MemChunk>
scanChunks(const PhysMem &mem)
{
    std::vector<MemChunk> chunks;
    std::vector<std::uint8_t> line(PhysMem::kLineBytes);
    MemChunk run;
    auto close = [&]() {
        auto lo = std::find_if(run.bytes.begin(), run.bytes.end(),
                               [](std::uint8_t b) { return b != 0; });
        auto hi = std::find_if(run.bytes.rbegin(), run.bytes.rend(),
                               [](std::uint8_t b) { return b != 0; });
        if (lo != run.bytes.end()) {
            MemChunk trimmed;
            trimmed.base = run.base + (lo - run.bytes.begin());
            trimmed.bytes.assign(lo, hi.base());
            chunks.push_back(std::move(trimmed));
        }
        run = MemChunk{};
    };
    for (Addr addr = 0; addr < mem.size(); addr += line.size()) {
        mem.readBlock(addr, line.data(), line.size());
        if (std::all_of(line.begin(), line.end(),
                        [](std::uint8_t b) { return b == 0; })) {
            close();
            continue;
        }
        if (run.bytes.empty())
            run.base = addr;
        run.bytes.insert(run.bytes.end(), line.begin(), line.end());
    }
    close();
    return chunks;
}

} // namespace

class ArtifactBothIsas : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Isas, ArtifactBothIsas,
                         ::testing::Values(false, true),
                         [](const auto &info) {
                             return info.param ? "x86" : "riscv";
                         });

TEST_P(ArtifactBothIsas, SerializeParseRoundTripIsIdentity)
{
    for (const FuzzArtifact &seed : builtinSeeds(GetParam())) {
        std::string text = seed.serialize();
        FuzzArtifact parsed;
        std::string error;
        ASSERT_TRUE(FuzzArtifact::parse(text, parsed, error))
            << seed.name << ": " << error;
        EXPECT_EQ(parsed.serialize(), text) << seed.name;
        EXPECT_EQ(parsed.name, seed.name);
        EXPECT_EQ(parsed.x86, seed.x86);
        EXPECT_EQ(parsed.start_pc, seed.start_pc);
        EXPECT_EQ(parsed.start_domain, seed.start_domain);
        EXPECT_EQ(parsed.entries, seed.entries);
        EXPECT_EQ(parsed.chunks, seed.chunks);
        for (std::uint8_t r = 0; r < numGridRegs; ++r) {
            EXPECT_EQ(parsed.snapshot.regs[r], seed.snapshot.regs[r])
                << seed.name << " grid reg " << unsigned(r);
        }
    }
}

TEST_P(ArtifactBothIsas, CaptureRestoreIsIdentity)
{
    FuzzArtifact seed = firstSeed(GetParam());
    std::unique_ptr<Machine> machine = seed.restore();
    EXPECT_EQ(recapture(*machine, seed).serialize(), seed.serialize());
}

TEST_P(ArtifactBothIsas, CaptureMatchesAByteScan)
{
    FuzzArtifact seed = firstSeed(GetParam());
    std::unique_ptr<Machine> machine = seed.restore();
    PhysMem &mem = machine->mem();
    const Addr page = PhysMem::kPageBytes;

    mem.write64(0x40 * page - 4, 0x1122334455667788ull); // two pages
    mem.write8(0x50 * page - 1, 0x5a);  // last byte of a page
    mem.write8(0x60 * page, 0xa5);      // first byte of the next one
    std::vector<std::uint8_t> block(page + 200, 0x33);
    mem.writeBlock(0x80 * page - 100, block.data(), block.size());
    mem.write32(0x90 * page + 16, 0);   // written, then trimmed
    mem.write8(mem.size() - 1, 0x77);   // the last byte of memory

    FuzzArtifact got = recapture(*machine, seed);
    EXPECT_EQ(got.chunks, scanChunks(mem));
    EXPECT_TRUE(mem.pageWritten(0x90 * page));
    EXPECT_EQ(got.read8(0x50 * page - 1), 0x5a);
    EXPECT_EQ(got.read8(mem.size() - 1), 0x77);
    EXPECT_EQ(got.read8(0x81 * page + 99), 0x33);
}

// A mutated artifact need not be in captured form (a chunk may hold
// zero lines), so the corpus is checked twice: each file re-serializes
// to its own bytes, and capturing its restored machine finds exactly
// the chunks a byte scan finds.
TEST(Artifact, CommittedCorpusReserializesAndRecaptures)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(
             std::string(TEST_DATA_DIR) + "/fuzz_corpus")) {
        if (e.path().extension() == ".art")
            files.push_back(e.path());
    }
    ASSERT_FALSE(files.empty());
    for (const auto &path : files) {
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        FuzzArtifact artifact;
        std::string error;
        ASSERT_TRUE(FuzzArtifact::parse(buf.str(), artifact, error))
            << path << ": " << error;
        EXPECT_EQ(artifact.serialize(), buf.str()) << path;
        std::unique_ptr<Machine> machine = artifact.restore();
        EXPECT_EQ(recapture(*machine, artifact).chunks,
                  scanChunks(machine->mem()))
            << path;
    }
}

TEST_P(ArtifactBothIsas, RestoredMachinesRunIdentically)
{
    FuzzArtifact seed = firstSeed(GetParam());
    std::unique_ptr<Machine> a = seed.restore();
    std::unique_ptr<Machine> b = seed.restore();
    seed.position(*a);
    seed.position(*b);
    RunResult ra = a->core().run(5000);
    RunResult rb = b->core().run(5000);
    EXPECT_EQ(ra.reason, rb.reason);
    EXPECT_EQ(ra.halt_code, rb.halt_code);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.fault, rb.fault);
}

TEST(Artifact, SparseWritesStaySortedAndCoalesced)
{
    FuzzArtifact a;

    // Reads from gaps are zero.
    EXPECT_EQ(a.read64(0x1000), 0u);
    EXPECT_EQ(a.read8(0x1000), 0u);

    // Writing zero into a gap stays a no-op (canonical form keeps
    // untouched memory implicit).
    a.write8(0x1000, 0);
    EXPECT_TRUE(a.chunks.empty());

    // Out-of-order writes land sorted.
    a.write64(0x2000, 0x1122334455667788ull);
    a.write64(0x1000, 0xaabbccddeeff1122ull);
    ASSERT_EQ(a.chunks.size(), 2u);
    EXPECT_EQ(a.chunks[0].base, 0x1000u);
    EXPECT_EQ(a.chunks[1].base, 0x2000u);
    EXPECT_EQ(a.read64(0x1000), 0xaabbccddeeff1122ull);
    EXPECT_EQ(a.read64(0x2000), 0x1122334455667788ull);

    // Filling the bytes in between coalesces into one chunk.
    for (Addr addr = 0x1008; addr < 0x2000; addr += 8)
        a.write64(addr, 0x0101010101010101ull);
    ASSERT_EQ(a.chunks.size(), 1u);
    EXPECT_EQ(a.chunks[0].base, 0x1000u);
    EXPECT_EQ(a.chunks[0].bytes.size(), 0x1008u);

    // Unaligned word access straddling a chunk boundary.
    a.write64(0x2004, 0x0807060504030201ull);
    EXPECT_EQ(a.read64(0x2004), 0x0807060504030201ull);
}

TEST(Artifact, ParseRejectsMalformedInput)
{
    FuzzArtifact seed = firstSeed(false);
    std::string good = seed.serialize();
    FuzzArtifact out;
    std::string error;

    EXPECT_FALSE(FuzzArtifact::parse("not an artifact", out, error));
    EXPECT_FALSE(error.empty());

    // Truncation (missing "end") must be detected: a partially
    // written corpus file must never load as a shorter artifact.
    std::string truncated = good.substr(0, good.size() / 2);
    EXPECT_FALSE(FuzzArtifact::parse(truncated, out, error));

    std::string no_end = good;
    auto pos = no_end.rfind("end\n");
    ASSERT_NE(pos, std::string::npos);
    no_end.erase(pos);
    EXPECT_FALSE(FuzzArtifact::parse(no_end, out, error));

    // Garbage after a valid line.
    std::string garbage = good;
    garbage.insert(garbage.find('\n') + 1, "bogus line\n");
    EXPECT_FALSE(FuzzArtifact::parse(garbage, out, error));
}
