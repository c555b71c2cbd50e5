#include "common/table.hh"

#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace tetris
{

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    TETRIS_ASSERT(cells.size() == headers_.size(),
                  "row arity mismatch: ", cells.size(), " vs ",
                  headers_.size());
    rows_.push_back(std::move(cells));
}

void
TablePrinter::print() const
{
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        width[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s", static_cast<int>(width[c] + 2),
                        row[c].c_str());
        }
        std::printf("\n");
    };

    print_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < width.size(); ++c)
        total += width[c] + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);
}

std::string
formatCount(double v)
{
    char buf[64];
    double a = std::fabs(v);
    if (a >= 1e6) {
        std::snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
    } else if (a >= 1e4) {
        std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    }
    return buf;
}

std::string
formatPercent(double fraction)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

std::string
formatDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace tetris
