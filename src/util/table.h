// Console table printer: fixed-width, aligned columns in the style of the
// paper's reported tables.
#ifndef SRC_UTIL_TABLE_H_
#define SRC_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace bundler {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& AddRow(std::vector<std::string> cells);

  // Fixed-precision number formatting for cells.
  static std::string Num(double v, int precision = 2);

  void Print(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bundler

#endif  // SRC_UTIL_TABLE_H_
