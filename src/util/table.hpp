/**
 * @file
 * Text table rendering for bench harness output. Every experiment binary
 * prints its results as tables shaped like the paper's tables/figures.
 */

#ifndef BPNSP_UTIL_TABLE_HPP
#define BPNSP_UTIL_TABLE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace bpnsp {

/** A simple column-aligned text table with an optional title. */
class TextTable
{
  public:
    explicit TextTable(std::string title = "") : tableTitle(std::move(title))
    {}

    /** Set the column headers (fixes the column count). */
    void setHeader(std::vector<std::string> names);

    /** Append a row; must match the header width if one was set. */
    void addRow(std::vector<std::string> cells);

    /** Begin a new row built cell-by-cell with cell(). */
    void beginRow();

    /** Append a string cell to the row started by beginRow(). */
    void cell(const std::string &s);

    /** Append a formatted double with the given precision. */
    void cell(double v, int precision = 3);

    /** Append an integer cell. */
    void cell(uint64_t v);
    void cell(int64_t v);
    void cell(int v) { cell(static_cast<int64_t>(v)); }

    /** Append a percentage cell, e.g. 0.553 -> "55.3%". */
    void percentCell(double fraction, int precision = 1);

    /** Render with box-drawing rules. */
    std::string render() const;

    size_t numRows() const { return rows.size(); }
    size_t numCols() const;

    /** Access a cell for testing. */
    const std::string &at(size_t row, size_t col) const;

  private:
    std::string tableTitle;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> pending;
    bool rowOpen = false;

    void flushPending();
};

/** Format a double with fixed precision. */
std::string fmtDouble(double v, int precision = 3);

/** Format a fraction as a percentage string. */
std::string fmtPercent(double fraction, int precision = 1);

/** Format an integer with thousands separators, e.g. 13865 -> "13,865". */
std::string fmtGrouped(uint64_t v);

} // namespace bpnsp

#endif // BPNSP_UTIL_TABLE_HPP
