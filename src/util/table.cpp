#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hpp"

namespace bpnsp {

std::string
fmtDouble(double v, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPercent(double fraction, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

std::string
fmtGrouped(uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int from_end = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it, ++from_end) {
        if (from_end > 0 && from_end % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

void
TextTable::setHeader(std::vector<std::string> names)
{
    BPNSP_ASSERT(rows.empty(), "header must be set before rows");
    header = std::move(names);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (!header.empty())
        BPNSP_ASSERT(cells.size() == header.size(), "row width mismatch");
    rows.push_back(std::move(cells));
}

void
TextTable::beginRow()
{
    flushPending();
    rowOpen = true;
}

void
TextTable::flushPending()
{
    if (rowOpen) {
        addRow(std::move(pending));
        pending.clear();
        rowOpen = false;
    }
}

void
TextTable::cell(const std::string &s)
{
    BPNSP_ASSERT(rowOpen, "cell() outside beginRow()");
    pending.push_back(s);
}

void
TextTable::cell(double v, int precision)
{
    cell(fmtDouble(v, precision));
}

void
TextTable::cell(uint64_t v)
{
    cell(std::to_string(v));
}

void
TextTable::cell(int64_t v)
{
    cell(std::to_string(v));
}

void
TextTable::percentCell(double fraction, int precision)
{
    cell(fmtPercent(fraction, precision));
}

size_t
TextTable::numCols() const
{
    if (!header.empty())
        return header.size();
    return rows.empty() ? 0 : rows.front().size();
}

const std::string &
TextTable::at(size_t row, size_t col) const
{
    return rows.at(row).at(col);
}

std::string
TextTable::render() const
{
    // A const view of the table including any still-pending row.
    std::vector<std::vector<std::string>> all = rows;
    if (rowOpen)
        all.push_back(pending);

    size_t cols = header.size();
    for (const auto &r : all)
        cols = std::max(cols, r.size());
    std::vector<size_t> width(cols, 0);
    for (size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &r : all)
        for (size_t c = 0; c < r.size(); ++c)
            width[c] = std::max(width[c], r[c].size());

    auto renderRow = [&](const std::vector<std::string> &r) {
        std::ostringstream line;
        for (size_t c = 0; c < cols; ++c) {
            const std::string &s = c < r.size() ? r[c] : std::string();
            line << "| " << s << std::string(width[c] - s.size() + 1, ' ');
        }
        line << "|\n";
        return line.str();
    };
    auto rule = [&]() {
        std::ostringstream line;
        for (size_t c = 0; c < cols; ++c)
            line << "+" << std::string(width[c] + 2, '-');
        line << "+\n";
        return line.str();
    };

    std::ostringstream oss;
    if (!tableTitle.empty())
        oss << tableTitle << "\n";
    oss << rule();
    if (!header.empty()) {
        oss << renderRow(header);
        oss << rule();
    }
    for (const auto &r : all)
        oss << renderRow(r);
    oss << rule();
    return oss.str();
}

} // namespace bpnsp
