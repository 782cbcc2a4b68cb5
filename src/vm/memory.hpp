/**
 * @file
 * Sparse paged data memory for the micro-ISA VM.
 *
 * Word-oriented: loads and stores move 64-bit values at arbitrary byte
 * addresses (internally aligned down to 8 bytes). Pages are allocated on
 * first touch, so workloads may use large, scattered address spaces.
 */

#ifndef BPNSP_VM_MEMORY_HPP
#define BPNSP_VM_MEMORY_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>

namespace bpnsp {

/**
 * Sparse 64-bit-word memory with 512-byte pages: small enough that a
 * program's scattered initialised words do not each pin a 4 KiB page
 * in every concurrent VM.
 */
class Memory
{
  public:
    static constexpr uint64_t kPageBytes = 512;
    static constexpr uint64_t kWordsPerPage = kPageBytes / 8;

    /** Read the 64-bit word containing byte address addr (0 if untouched). */
    uint64_t
    read(uint64_t addr) const
    {
        const auto it = pages.find(pageOf(addr));
        if (it == pages.end())
            return 0;
        return it->second->words[wordOf(addr)];
    }

    /** Write the 64-bit word containing byte address addr. */
    void
    write(uint64_t addr, uint64_t value)
    {
        auto &page = pages[pageOf(addr)];
        if (!page)
            page = std::make_unique<Page>();
        page->words[wordOf(addr)] = value;
    }

    /** Number of pages touched (writes only). */
    size_t pageCount() const { return pages.size(); }

    /** Drop all contents. */
    void clear() { pages.clear(); }

  private:
    struct Page
    {
        uint64_t words[kWordsPerPage] = {};
    };

    static uint64_t pageOf(uint64_t addr) { return addr / kPageBytes; }

    static uint64_t
    wordOf(uint64_t addr)
    {
        return (addr % kPageBytes) / 8;
    }

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages;
};

} // namespace bpnsp

#endif // BPNSP_VM_MEMORY_HPP
