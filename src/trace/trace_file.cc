// Trace container framing is a designated raw boundary.
// hopp-analyze: allow-file(raw, page-shift)

#include "trace/trace_file.hh"

#include <algorithm>
#include <cstring>

namespace hopp::trace
{

namespace
{

constexpr char traceMagic[8] = {'H', 'O', 'P', 'P', 'T', 'R', 'C', '1'};

struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t codec;
};
static_assert(sizeof(FileHeader) == 16);

struct BlockHeader
{
    std::uint32_t nRecords;
    std::uint32_t payloadBytes;
};
static_assert(sizeof(BlockHeader) == 8);

constexpr std::size_t rawRecordBytes = 16;

/** Largest payload any legal block can carry, across both codecs. */
constexpr std::size_t maxBlockPayload =
    static_cast<std::size_t>(maxBlockRecords) *
    std::max(maxEncodedRecordBytes, rawRecordBytes);

} // namespace

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok:
        return "ok";
      case TraceIoStatus::OpenFailed:
        return "open failed";
      case TraceIoStatus::WriteFailed:
        return "write failed";
      case TraceIoStatus::BadHeader:
        return "bad header";
      case TraceIoStatus::Truncated:
        return "truncated";
      case TraceIoStatus::Corrupt:
        return "corrupt";
    }
    return "unknown";
}

// ---------------------------------------------------------------- writer

TraceWriter::TraceWriter(const std::string &path, Options opt)
    : opt_(opt)
{
    opt_.blockRecords =
        std::clamp<std::uint32_t>(opt_.blockRecords, 1, maxBlockRecords);
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return;
    ok_ = true;
    FileHeader h{};
    std::memcpy(h.magic, traceMagic, sizeof(traceMagic));
    h.version = traceFormatVersion;
    h.codec = static_cast<std::uint32_t>(opt_.codec);
    put(&h, sizeof(h));
    // One reservation covers the worst-case block; append never grows.
    block_.reserve(static_cast<std::size_t>(opt_.blockRecords) *
                   std::max(maxEncodedRecordBytes, rawRecordBytes));
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::put(const void *p, std::size_t n)
{
    if (!ok_)
        return;
    if (std::fwrite(p, 1, n, file_) != n) {
        ok_ = false;
        return;
    }
    bytesWritten_ += n;
}

void
TraceWriter::append(const ReplayRecord &r)
{
    if (!file_)
        return;
    if (opt_.codec == TraceCodec::Raw16) {
        if (r.kind != ReplayKind::Mc) {
            ++pteDropped_;
            return;
        }
        HmttRecord raw;
        raw.seq = rawSeq_++;
        raw.timestamp = static_cast<std::uint8_t>(r.tick.raw() / 100);
        raw.isWrite = r.isWrite;
        raw.addr29 = toAddr29(r.pa);
        raw.fullTime = r.tick;
        raw.fullAddr = r.pa;
        appendRaw(raw);
        return;
    }
    encodeRecord(block_, delta_, r);
    ++records_;
    if (++blockCount_ >= opt_.blockRecords)
        flushBlock();
}

void
TraceWriter::appendRaw(const HmttRecord &r)
{
    hopp_assert(opt_.codec == TraceCodec::Raw16,
                "appendRaw requires the Raw16 codec");
    if (!file_)
        return;
    std::uint64_t words[2] = {r.pack(), r.fullTime.raw()};
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(words);
    block_.insert(block_.end(), bytes, bytes + sizeof(words));
    ++records_;
    if (++blockCount_ >= opt_.blockRecords)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (blockCount_ == 0)
        return;
    BlockHeader bh{blockCount_,
                   static_cast<std::uint32_t>(block_.size())};
    put(&bh, sizeof(bh));
    put(block_.data(), block_.size());
    block_.clear();
    blockCount_ = 0;
    delta_ = DeltaState{};
}

bool
TraceWriter::finish()
{
    if (finished_)
        return ok_;
    finished_ = true;
    if (file_) {
        flushBlock();
        if (std::fclose(file_) != 0)
            ok_ = false;
        file_ = nullptr;
    }
    return ok_;
}

// ---------------------------------------------------------------- reader

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

TraceIoStatus
TraceReader::open(const std::string &path)
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    decoded_ = 0;
    blockLeft_ = 0;
    pos_ = end_ = nullptr;
    eof_ = false;
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return status_ = TraceIoStatus::OpenFailed;
    FileHeader h;
    if (std::fread(&h, sizeof(h), 1, file_) != 1)
        return status_ = TraceIoStatus::BadHeader;
    if (std::memcmp(h.magic, traceMagic, sizeof(traceMagic)) != 0 ||
        h.version != traceFormatVersion ||
        h.codec > static_cast<std::uint32_t>(TraceCodec::Raw16)) {
        return status_ = TraceIoStatus::BadHeader;
    }
    codec_ = static_cast<TraceCodec>(h.codec);
    // The one allocation: size the block buffer for the worst legal
    // block, so the decode loop below never grows anything.
    buf_.resize(maxBlockPayload);
    return status_ = TraceIoStatus::Ok;
}

bool
TraceReader::loadBlock()
{
    BlockHeader bh;
    // Framed refill of the pre-sized block buffer.
    std::size_t got = // hopp-analyze: allow(hotpath-io) trace decode IS file input
        std::fread(&bh, 1, sizeof(bh), file_);
    if (got == 0) {
        eof_ = true;
        return false;
    }
    if (got != sizeof(bh)) {
        status_ = TraceIoStatus::Truncated;
        return false;
    }
    std::size_t per = codec_ == TraceCodec::Raw16
                          ? rawRecordBytes
                          : maxEncodedRecordBytes;
    if (bh.nRecords == 0 || bh.nRecords > maxBlockRecords ||
        bh.payloadBytes > bh.nRecords * per ||
        (codec_ == TraceCodec::Raw16 &&
         bh.payloadBytes != bh.nRecords * rawRecordBytes)) {
        status_ = TraceIoStatus::Corrupt;
        return false;
    }
    if (std::fread(buf_.data(), 1, bh.payloadBytes, file_) != // hopp-analyze: allow(hotpath-io) trace decode IS file input
        bh.payloadBytes) {
        status_ = TraceIoStatus::Truncated;
        return false;
    }
    pos_ = buf_.data();
    end_ = buf_.data() + bh.payloadBytes;
    blockLeft_ = bh.nRecords;
    delta_ = DeltaState{};
    return true;
}

std::size_t
TraceReader::nextBatch(ReplayRecord *out, std::size_t max)
{
    if (status_ != TraceIoStatus::Ok || eof_)
        return 0;
    std::size_t n = 0;
    while (n < max) {
        if (blockLeft_ == 0) {
            if (pos_ != end_) {
                // Payload bytes left over after the last record:
                // the block lied about one of its counts.
                status_ = TraceIoStatus::Corrupt;
                return n;
            }
            if (!loadBlock())
                return n;
        }
        ReplayRecord &r = out[n];
        if (codec_ == TraceCodec::Raw16) {
            std::uint64_t words[2];
            std::memcpy(words, pos_, sizeof(words));
            pos_ += sizeof(words);
            HmttRecord raw = HmttRecord::unpack(words[0]);
            r.kind = ReplayKind::Mc;
            r.isWrite = raw.isWrite;
            r.shared = false;
            r.huge = false;
            r.pid = Pid{};
            r.vpn = Vpn{};
            r.ppn = Ppn{};
            r.pa = PhysAddr{static_cast<std::uint64_t>(raw.addr29)
                            << lineShift};
            r.tick = Tick{words[1]};
        } else if (!decodeRecord(pos_, end_, delta_, r)) {
            status_ = TraceIoStatus::Corrupt;
            return n;
        }
        --blockLeft_;
        ++n;
        ++decoded_;
    }
    return n;
}

TraceIoStatus
TraceReader::skipBlocks(std::uint64_t n)
{
    if (status_ != TraceIoStatus::Ok)
        return status_;
    hopp_assert(blockLeft_ == 0,
                "skipBlocks mid-block: not at a block boundary");
    for (std::uint64_t i = 0; i < n && !eof_; ++i) {
        BlockHeader bh;
        std::size_t got = std::fread(&bh, 1, sizeof(bh), file_);
        if (got == 0) {
            eof_ = true;
            break;
        }
        if (got != sizeof(bh))
            return status_ = TraceIoStatus::Truncated;
        if (std::fseek(file_, static_cast<long>(bh.payloadBytes),
                       SEEK_CUR) != 0) {
            return status_ = TraceIoStatus::Truncated;
        }
    }
    return status_;
}

} // namespace hopp::trace
