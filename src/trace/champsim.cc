// External wire-format ingestion is a designated raw boundary.
// hopp-analyze: allow-file(raw, page-shift)

#include "trace/champsim.hh"

#include <cstdio>
#include <cstring>

#include "common/flat_map.hh"
#include "trace/trace_file.hh"

namespace hopp::trace
{

namespace
{

// ChampSim's trace_instr_format: 2 destination + 4 source operands.
constexpr unsigned champDst = 2;
constexpr unsigned champSrc = 4;

struct ChampSimInstr
{
    std::uint64_t ip;
    std::uint8_t isBranch;
    std::uint8_t branchTaken;
    std::uint8_t destinationRegisters[champDst];
    std::uint8_t sourceRegisters[champSrc];
    std::uint64_t destinationMemory[champDst];
    std::uint64_t sourceMemory[champSrc];
};
static_assert(sizeof(ChampSimInstr) == 64,
              "ChampSim trace_instr_format is 64 bytes");

} // namespace

ChampSimImport
importChampSim(const std::string &in_path, const std::string &out_path,
               const ChampSimOptions &opt)
{
    ChampSimImport result;
    std::FILE *in = std::fopen(in_path.c_str(), "rb");
    if (!in) {
        result.status = TraceIoStatus::OpenFailed;
        return result;
    }
    TraceWriter out(out_path);
    if (!out.ok()) {
        std::fclose(in);
        result.status = TraceIoStatus::WriteFailed;
        return result;
    }
    FlatU64Map<std::uint8_t> seenPages;
    Tick now;
    ChampSimInstr instr;
    std::size_t got;
    auto emit = [&](std::uint64_t vaddr, bool is_write) {
        std::uint64_t page = vaddr >> pageShift;
        if (!seenPages.find(page)) {
            seenPages[page] = 1;
            ReplayRecord pte;
            pte.kind = ReplayKind::PteSet;
            pte.pid = Pid{opt.pid};
            pte.vpn = Vpn{page};
            pte.ppn = Ppn{page}; // identity: ChampSim has no phys map
            pte.tick = now;
            out.append(pte);
            ++result.pages;
        }
        ReplayRecord mc;
        mc.kind = ReplayKind::Mc;
        mc.isWrite = is_write;
        mc.pa = PhysAddr{vaddr};
        mc.tick = now;
        out.append(mc);
        ++result.accesses;
    };
    while ((got = std::fread(&instr, 1, sizeof(instr), in)) ==
           sizeof(instr)) {
        ++result.instructions;
        for (unsigned i = 0; i < champSrc; ++i) {
            if (instr.sourceMemory[i] != 0)
                emit(instr.sourceMemory[i], false);
        }
        for (unsigned i = 0; i < champDst; ++i) {
            if (instr.destinationMemory[i] != 0)
                emit(instr.destinationMemory[i], true);
        }
        now += opt.tickPerInstr;
    }
    bool in_ok = got == 0 && !std::ferror(in);
    std::fclose(in);
    if (!out.finish()) {
        result.status = TraceIoStatus::WriteFailed;
        return result;
    }
    if (!in_ok) {
        // Trailing partial instruction: the input is damaged (or not a
        // ChampSim trace). The records already converted stand.
        result.status = TraceIoStatus::Truncated;
    }
    return result;
}

} // namespace hopp::trace
