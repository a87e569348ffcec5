#include "rel/relation.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace gyo {

int Relation::ColIndex(AttrId attr) const {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), attr);
  GYO_CHECK_MSG(it != attrs_.end() && *it == attr,
                "attribute %d not in relation schema", attr);
  return static_cast<int>(it - attrs_.begin());
}

bool Relation::RowLess(int64_t a, int64_t b) const {
  for (const std::vector<Value>& col : cols_) {
    const Value va = col[static_cast<size_t>(a)];
    const Value vb = col[static_cast<size_t>(b)];
    if (va != vb) return va < vb;
  }
  return false;
}

bool Relation::RowEq(int64_t a, int64_t b) const {
  for (const std::vector<Value>& col : cols_) {
    if (col[static_cast<size_t>(a)] != col[static_cast<size_t>(b)]) {
      return false;
    }
  }
  return true;
}

void Relation::Canonicalize() {
  if (canonical_) return;
  if (cols_.empty()) {
    // Arity-0 relations are TRUE (one empty tuple) or FALSE (none).
    num_rows_ = num_rows_ > 0 ? 1 : 0;
    canonical_ = true;
    return;
  }
  std::vector<int64_t> order(static_cast<size_t>(num_rows_));
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(),
            [this](int64_t a, int64_t b) { return RowLess(a, b); });
  // Drop adjacent duplicates from the permutation, then gather each column
  // through the surviving row ids in one contiguous pass.
  std::vector<int64_t> keep;
  keep.reserve(order.size());
  for (int64_t idx : order) {
    if (!keep.empty() && RowEq(keep.back(), idx)) continue;
    keep.push_back(idx);
  }
  for (std::vector<Value>& col : cols_) {
    std::vector<Value> sorted;
    sorted.reserve(keep.size());
    for (int64_t idx : keep) sorted.push_back(col[static_cast<size_t>(idx)]);
    col = std::move(sorted);
  }
  num_rows_ = static_cast<int64_t>(keep.size());
  canonical_ = true;
}

bool Relation::CheckCanonical() const {
  if (cols_.empty()) return num_rows_ <= 1;
  for (int64_t i = 0; i + 1 < num_rows_; ++i) {
    if (!RowLess(i, i + 1)) return false;
  }
  return true;
}

void Relation::EnsureCanonical() const {
  const_cast<Relation*>(this)->Canonicalize();
}

bool Relation::EqualsAsSet(const Relation& other) const {
  if (!(schema_ == other.schema_)) return false;
  EnsureCanonical();
  other.EnsureCanonical();
  return num_rows_ == other.num_rows_ && cols_ == other.cols_;
}

std::string Relation::Format(const Catalog& catalog, int max_rows) const {
  std::string out = catalog.Format(schema_) + " (" +
                    std::to_string(NumRows()) + " rows)\n";
  int shown = 0;
  for (RowRef row : Rows()) {
    if (shown++ == max_rows) {
      out += "  ...\n";
      break;
    }
    out += " ";
    for (Value v : row) out += " " + std::to_string(v);
    out += "\n";
  }
  return out;
}

}  // namespace gyo
