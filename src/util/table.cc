#include "src/util/table.h"

#include <algorithm>

#include "src/util/check.h"

namespace bundler {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::AddRow(std::vector<std::string> cells) {
  BUNDLER_CHECK_MSG(cells.size() == headers_.size(), "row has %zu cells, want %zu",
                    cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::Print(std::FILE* out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%s%-*s", c == 0 ? "| " : " | ", static_cast<int>(widths[c]),
                   row[c].c_str());
    }
    std::fprintf(out, " |\n");
  };
  print_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    std::fprintf(out, "%s%s", c == 0 ? "|-" : "-|-", std::string(widths[c], '-').c_str());
  }
  std::fprintf(out, "-|\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
}

}  // namespace bundler
