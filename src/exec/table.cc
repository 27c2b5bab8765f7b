#include "exec/table.h"

#include <algorithm>

namespace mpq {

ColumnRep RepForColumn(const ExecColumn& col) {
  return col.encrypted ? ColumnRep::kEnc : RepForType(col.type);
}

Table::Table(std::vector<ExecColumn> columns) : columns_(std::move(columns)) {
  data_.reserve(columns_.size());
  for (const ExecColumn& c : columns_) {
    data_.push_back(std::make_shared<ColumnData>(RepForColumn(c)));
  }
}

int Table::ColIndex(AttrId attr) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].attr == attr) return static_cast<int>(i);
  }
  return -1;
}

void Table::AddColumn(ExecColumn col, ColumnData d) {
  AddColumn(std::move(col), std::make_shared<ColumnData>(std::move(d)));
}

void Table::AddColumn(ExecColumn col, std::shared_ptr<ColumnData> d) {
  assert((columns_.empty() || d->size() == num_rows_) &&
         "AddColumn: row count mismatch");
  if (columns_.empty()) num_rows_ = d->size();
  columns_.push_back(std::move(col));
  data_.push_back(std::move(d));
}

void Table::AddRow(std::vector<Cell> row) {
  assert(row.size() == columns_.size() && "AddRow: arity mismatch");
  for (size_t c = 0; c < data_.size(); ++c) {
    col_mut(c).Append(std::move(row[c]));
  }
  num_rows_++;
}

std::vector<Cell> Table::row(size_t i) const {
  std::vector<Cell> out;
  out.reserve(data_.size());
  for (const auto& col : data_) out.push_back(col->GetCell(i));
  return out;
}

void Table::AppendRowFrom(const Table& src, size_t r) {
  assert(src.num_columns() == num_columns());
  for (size_t c = 0; c < data_.size(); ++c) {
    col_mut(c).AppendFrom(*src.data_[c], r);
  }
  num_rows_++;
}

void Table::ReserveRows(size_t n) {
  for (size_t c = 0; c < data_.size(); ++c) col_mut(c).Reserve(n);
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (const auto& col : data_) total += col->ByteSize();
  return total;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i].name;
    if (columns_[i].encrypted) {
      out += "*";
    }
  }
  out += "\n";
  size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < data_.size(); ++c) {
      if (c > 0) out += " | ";
      out += data_[c]->GetCell(r).ToString();
    }
    out += "\n";
  }
  if (num_rows_ > n) {
    out += "... (" + std::to_string(num_rows_ - n) + " more rows)\n";
  }
  return out;
}

}  // namespace mpq
