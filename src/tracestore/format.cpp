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

/**
 * Varint read with no bounds check: the caller guarantees that
 * kMaxVarintBytes bytes are readable at p. Accepts and rejects
 * exactly what getVarint does.
 */
inline bool
getVarintUnchecked(const uint8_t *&p, uint64_t *value)
{
    uint64_t byte = p[0];
    if (byte < 0x80) {
        *value = byte;
        ++p;
        return true;
    }
    uint64_t result = byte & 0x7f;
    for (unsigned i = 1; i < kMaxVarintBytes; ++i) {
        byte = p[i];
        result |= (byte & 0x7f) << (7 * i);
        if (byte < 0x80) {
            // The 10th byte may only contribute the top bit.
            if (i == kMaxVarintBytes - 1 && byte > 1)
                return false;
            *value = result;
            p += i + 1;
            return true;
        }
    }
    return false;   // unterminated varint
}

/**
 * Decode one record at p, advancing p past it. kChecked selects the
 * careful path (every byte bounds-checked against end); otherwise the
 * caller guarantees kMaxRecordBytes readable bytes. Returns nullptr or
 * the diagnostic of the first malformed field.
 */
template <bool kChecked>
inline const char *
decodeRecord(const uint8_t *&p, const uint8_t *end, uint64_t &prevIp,
             uint64_t &prevMem, TraceRecord &rec)
{
    auto varint = [&p, end](uint64_t *value) {
        if constexpr (kChecked) {
            size_t pos = 0;
            if (!getVarint(p, static_cast<size_t>(end - p), &pos, value))
                return false;
            p += pos;
            return true;
        } else {
            return getVarintUnchecked(p, value);
        }
    };

    if (kChecked && end - p < 6)
        return "chunk payload truncated in record prefix";
    const uint8_t flags = p[0];
    const uint8_t cls = flags & kClsMask;
    if (cls > kMaxInstrClass)
        return "invalid instruction class in chunk payload";
    rec.cls = static_cast<InstrClass>(cls);
    rec.hasDst = (flags & kHasDstBit) != 0;
    rec.taken = (flags & kTakenBit) != 0;
    rec.numSrc = p[1];
    rec.dst = p[2];
    rec.src[0] = p[3];
    rec.src[1] = p[4];
    rec.src[2] = p[5];
    p += 6;

    uint64_t v = 0;
    if (!varint(&v))
        return "chunk payload truncated in ip field";
    const uint64_t ip = prevIp + static_cast<uint64_t>(unzigzag(v));
    rec.ip = ip;
    if (!varint(&v))
        return "chunk payload truncated in fallthrough field";
    rec.fallthrough = ip + static_cast<uint64_t>(unzigzag(v));
    if (!varint(&v))
        return "chunk payload truncated in target field";
    rec.target = ip + static_cast<uint64_t>(unzigzag(v));
    if (!varint(&v))
        return "chunk payload truncated in memAddr field";
    const uint64_t mem = prevMem + static_cast<uint64_t>(unzigzag(v));
    rec.memAddr = mem;
    if (!varint(&v))
        return "chunk payload truncated in writtenValue field";
    if (v > UINT32_MAX)
        return "writtenValue overflows 32 bits";
    rec.writtenValue = static_cast<uint32_t>(v);

    prevIp = ip;
    prevMem = mem;
    return nullptr;
}

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
ChunkDecoder::next(TraceRecord *out, size_t max, size_t *got)
{
    const size_t want = max < left ? max : left;
    const uint8_t *p = data + pos;
    const uint8_t *const end = data + len;
    // Locals, not members: stores into `out` could otherwise alias
    // the decoder's own fields and force a reload per record.
    uint64_t ip = prevIp;
    uint64_t mem = prevMem;
    const char *error = nullptr;
    size_t i = 0;
    for (; i < want && static_cast<size_t>(end - p) >= kMaxRecordBytes;
         ++i) {
        error = decodeRecord<false>(p, end, ip, mem, out[i]);
        if (error != nullptr)
            break;
    }
    for (; error == nullptr && i < want; ++i) {
        error = decodeRecord<true>(p, end, ip, mem, out[i]);
        if (error != nullptr)
            break;
    }
    if (error == nullptr && i == left && p != end)
        error = "trailing bytes after last record in chunk";
    pos = static_cast<size_t>(p - data);
    prevIp = ip;
    prevMem = mem;
    left -= i;
    *got = i;
    return error == nullptr ? Status() : Status::corruptData(error);
}

Status
decodeChunk(const uint8_t *data, size_t len, size_t count,
            std::vector<TraceRecord> &out)
{
    const size_t base = out.size();
    out.resize(base + count);
    ChunkDecoder decoder(data, len, count);
    size_t got = 0;
    const Status st = decoder.next(out.data() + base, count, &got);
    if (!st.ok())
        out.resize(base + got);
    return st;
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
