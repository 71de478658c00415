#ifndef OTIF_UTIL_TABLE_H_
#define OTIF_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace otif {

/// Column-aligned ASCII table used by the benchmark harnesses to print
/// paper-style tables (Table 2/3/4) and figure series.
class TextTable {
 public:
  /// Creates a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns and a header separator.
  std::string ToString() const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace otif

#endif  // OTIF_UTIL_TABLE_H_
