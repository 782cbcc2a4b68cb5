#include "tracestore/format.hpp"

#include <cstring>

#include "util/logging.hpp"

namespace bpnsp {
namespace {

// Per-record fixed prefix: a flag byte (class nibble + hasDst/taken
// bits), then numSrc, dst, and all three src slots. Encoding every
// register slot unconditionally keeps the codec lossless for records
// whose "unused" fields carry data (property tests exercise this).
constexpr uint8_t kClsMask = 0x0f;
constexpr uint8_t kHasDstBit = 0x10;
constexpr uint8_t kTakenBit = 0x20;

constexpr unsigned kMaxVarintBytes = 10;

} // namespace

void
putVarint(std::vector<uint8_t> &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

bool
getVarint(const uint8_t *data, size_t len, size_t *pos, uint64_t *value)
{
    uint64_t result = 0;
    unsigned shift = 0;
    for (unsigned i = 0; i < kMaxVarintBytes; ++i) {
        if (*pos >= len)
            return false;
        const uint8_t byte = data[(*pos)++];
        result |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            // The 10th byte may only contribute the top bit.
            if (i == kMaxVarintBytes - 1 && byte > 1)
                return false;
            *value = result;
            return true;
        }
        shift += 7;
    }
    return false;   // unterminated varint
}

void
encodeChunk(const TraceRecord *records, size_t count,
            std::vector<uint8_t> &out)
{
    uint64_t prevIp = 0;
    uint64_t prevMem = 0;
    for (size_t i = 0; i < count; ++i) {
        const TraceRecord &rec = records[i];
        const auto cls = static_cast<uint8_t>(rec.cls);
        BPNSP_ASSERT(cls <= kClsMask, "instruction class out of range");
        out.push_back(cls | (rec.hasDst ? kHasDstBit : 0) |
                      (rec.taken ? kTakenBit : 0));
        out.push_back(rec.numSrc);
        out.push_back(rec.dst);
        out.push_back(rec.src[0]);
        out.push_back(rec.src[1]);
        out.push_back(rec.src[2]);
        putVarint(out, zigzag(static_cast<int64_t>(rec.ip - prevIp)));
        putVarint(out, zigzag(static_cast<int64_t>(rec.fallthrough -
                                                   rec.ip)));
        putVarint(out, zigzag(static_cast<int64_t>(rec.target -
                                                   rec.ip)));
        putVarint(out, zigzag(static_cast<int64_t>(rec.memAddr -
                                                   prevMem)));
        putVarint(out, rec.writtenValue);
        prevIp = rec.ip;
        prevMem = rec.memAddr;
    }
}

Status
decodeChunk(const uint8_t *data, size_t len, size_t count,
            std::vector<TraceRecord> &out)
{
    auto fail = [](const char *what) {
        return Status::corruptData(what);
    };

    size_t pos = 0;
    uint64_t prevIp = 0;
    uint64_t prevMem = 0;
    out.reserve(out.size() + count);
    for (size_t i = 0; i < count; ++i) {
        if (pos + 6 > len)
            return fail("chunk payload truncated in record prefix");
        const uint8_t flags = data[pos++];
        const uint8_t cls = flags & kClsMask;
        if (cls > kMaxInstrClass)
            return fail("invalid instruction class in chunk payload");

        TraceRecord rec;
        rec.cls = static_cast<InstrClass>(cls);
        rec.hasDst = (flags & kHasDstBit) != 0;
        rec.taken = (flags & kTakenBit) != 0;
        rec.numSrc = data[pos++];
        rec.dst = data[pos++];
        rec.src[0] = data[pos++];
        rec.src[1] = data[pos++];
        rec.src[2] = data[pos++];

        uint64_t v = 0;
        if (!getVarint(data, len, &pos, &v))
            return fail("chunk payload truncated in ip field");
        rec.ip = prevIp + static_cast<uint64_t>(unzigzag(v));
        if (!getVarint(data, len, &pos, &v))
            return fail("chunk payload truncated in fallthrough field");
        rec.fallthrough = rec.ip + static_cast<uint64_t>(unzigzag(v));
        if (!getVarint(data, len, &pos, &v))
            return fail("chunk payload truncated in target field");
        rec.target = rec.ip + static_cast<uint64_t>(unzigzag(v));
        if (!getVarint(data, len, &pos, &v))
            return fail("chunk payload truncated in memAddr field");
        rec.memAddr = prevMem + static_cast<uint64_t>(unzigzag(v));
        if (!getVarint(data, len, &pos, &v))
            return fail("chunk payload truncated in writtenValue field");
        if (v > UINT32_MAX)
            return fail("writtenValue overflows 32 bits");
        rec.writtenValue = static_cast<uint32_t>(v);

        prevIp = rec.ip;
        prevMem = rec.memAddr;
        out.push_back(rec);
    }
    if (pos != len)
        return fail("trailing bytes after last record in chunk");
    return Status();
}

void
DigestSink::onRecord(const TraceRecord &rec)
{
    // Hash a canonical fixed-width image of every field; the in-memory
    // struct has padding, so hashing the struct directly would be UB.
    uint8_t image[44];
    size_t n = 0;
    auto put64 = [&](uint64_t v) {
        std::memcpy(image + n, &v, sizeof(v));
        n += sizeof(v);
    };
    put64(rec.ip);
    put64(rec.memAddr);
    put64(rec.target);
    put64(rec.fallthrough);
    std::memcpy(image + n, &rec.writtenValue, 4);
    n += 4;
    image[n++] = static_cast<uint8_t>(rec.cls);
    image[n++] = rec.numSrc;
    image[n++] = rec.src[0];
    image[n++] = rec.src[1];
    image[n++] = rec.src[2];
    image[n++] = rec.dst;
    image[n++] = rec.hasDst ? 1 : 0;
    image[n++] = rec.taken ? 1 : 0;
    BPNSP_ASSERT(n == sizeof(image));
    hash = checksum64(image, n, hash);
    ++seen;
}

} // namespace bpnsp
