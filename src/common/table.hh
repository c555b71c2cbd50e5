/**
 * @file
 * Aligned console table.
 *
 * The benchmark harness regenerates the paper's tables and figure data
 * as text. TablePrinter renders a column-aligned table on stdout; the
 * machine-readable copy is each bench's BENCH_*.json.
 */

#ifndef TETRIS_COMMON_TABLE_HH
#define TETRIS_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace tetris
{

/**
 * Collects rows of string cells and prints them with aligned columns.
 * All numeric formatting is done by the caller (see formatCount /
 * formatPercent helpers) so the table itself stays dumb.
 */
class TablePrinter
{
  public:
    /** Create a table with the given column headers. */
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append a row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render the table to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a count like the paper: 8064, "21.1k", "130.9M". */
std::string formatCount(double v);

/** Format a signed percentage with one decimal, e.g. "-31.3%". */
std::string formatPercent(double fraction);

/** Format a plain double with the given precision. */
std::string formatDouble(double v, int precision = 3);

} // namespace tetris

#endif // TETRIS_COMMON_TABLE_HH
