#include "util/table.h"

#include <algorithm>

#include "util/logging.h"

namespace otif {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  OTIF_CHECK(!headers_.empty());
}

void TextTable::AddRow(std::vector<std::string> cells) {
  OTIF_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      if (c + 1 < row.size()) {
        line.append(widths[c] - row[c].size() + 2, ' ');
      }
    }
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  size_t total = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace otif
