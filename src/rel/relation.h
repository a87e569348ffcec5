#ifndef GYO_REL_RELATION_H_
#define GYO_REL_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "schema/catalog.h"
#include "util/attr_set.h"
#include "util/check.h"

namespace gyo {

/// Attribute value. A single integer domain suffices for every experiment in
/// the paper (the theory is domain-agnostic).
using Value = int64_t;

class Relation;

/// A non-owning cursor view of one tuple of a Relation: the owning relation
/// plus a row index. Storage is column-major (see Relation), so the view
/// gathers values on demand — `row[c]` reads column c's arena at the row's
/// index. Cheap to copy; invalidated by any mutation of the owning relation
/// (AddRow/AppendRows/Reserve/Canonicalize).
class RowRef {
 public:
  RowRef(const Relation* rel, int64_t row) : rel_(rel), row_(row) {}

  inline Value operator[](int i) const;
  inline int size() const;

  /// Row-major materialization of the tuple (gathers every column).
  inline std::vector<Value> ToVector() const;

  /// Value iteration (`for (Value v : row)`) over the gathered tuple.
  class const_iterator {
   public:
    const_iterator(const Relation* rel, int64_t row, int col)
        : rel_(rel), row_(row), col_(col) {}
    inline Value operator*() const;
    const_iterator& operator++() {
      ++col_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return col_ == o.col_; }
    bool operator!=(const const_iterator& o) const { return col_ != o.col_; }

   private:
    const Relation* rel_;
    int64_t row_;
    int col_;
  };
  const_iterator begin() const { return const_iterator(rel_, row_, 0); }
  inline const_iterator end() const;

  friend bool operator==(const RowRef& a, const RowRef& b) {
    if (a.size() != b.size()) return false;
    for (int i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const RowRef& a, const RowRef& b) { return !(a == b); }
  friend bool operator<(const RowRef& a, const RowRef& b) {
    const int n = std::min(a.size(), b.size());
    for (int i = 0; i < n; ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return a.size() < b.size();
  }

 private:
  const Relation* rel_;
  int64_t row_;
};

/// A relation state: a set of tuples over a relation schema.
///
/// Storage is hybrid column-major: one contiguous `std::vector<Value>` arena
/// per attribute, all sharing a single row-count spine (`NumRows()`), so the
/// hash kernels in ops.cc stream whole key columns as flat `int64_t*` arrays
/// instead of striding over full tuples. Rows are viewed through RowRef
/// cursors (gather-on-demand) or assembled column-by-column via ColData().
///
/// Tuples are aligned with Attrs() (the schema's attributes in increasing id
/// order); column c of the storage is attribute Attrs()[c]. Relations are
/// logically sets; canonicalization (sort + dedupe) is *lazy*: mutations set
/// a dirty flag, and Canonicalize() runs only when set semantics are needed
/// — EqualsAsSet() canonicalizes both sides on demand. Physical row order is
/// therefore unspecified until Canonicalize() has run. The algebra operators
/// in ops.h always return duplicate-free (but not necessarily sorted)
/// relations, so NumRows() on their results is a set cardinality; after
/// hand-built AddRow sequences call Canonicalize() before relying on
/// NumRows() or row order.
class Relation {
 public:
  /// Creates an empty relation over `schema`.
  explicit Relation(const AttrSet& schema)
      : schema_(schema), attrs_(schema.ToVector()), cols_(attrs_.size()) {}

  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const AttrSet& Schema() const { return schema_; }
  const std::vector<AttrId>& Attrs() const { return attrs_; }
  int Arity() const { return static_cast<int>(cols_.size()); }
  /// Number of stored rows. 64-bit: generated states can exceed int range.
  int64_t NumRows() const { return num_rows_; }
  bool Empty() const { return num_rows_ == 0; }

  /// Pre-allocates arena capacity for `rows` additional rows in every
  /// column.
  void Reserve(int64_t rows) {
    GYO_DCHECK(rows >= 0);
    for (std::vector<Value>& col : cols_) {
      col.reserve(col.size() + static_cast<size_t>(rows));
    }
  }

  /// Appends `rows` rows whose values are all zero (the columns are resized,
  /// which value-initializes the new elements) to every column and returns
  /// the index of the first new row. Callers then overwrite the new range in
  /// place through ColData() — the parallel kernels compact per-morsel
  /// outputs into disjoint row ranges of the new block concurrently, one
  /// column at a time. Column pointers are invalidated like any other
  /// mutation.
  int64_t AppendRows(int64_t rows) {
    GYO_DCHECK(rows >= 0);
    for (std::vector<Value>& col : cols_) {
      col.resize(col.size() + static_cast<size_t>(rows));
    }
    const int64_t first = num_rows_;
    num_rows_ += rows;
    if (rows > 0) canonical_ = false;
    return first;
  }

  /// Appends a copy of the `Arity()` row-major values starting at `src`,
  /// scattering them into the column arenas.
  void AddRow(const Value* src, size_t n) {
    GYO_CHECK_MSG(n == cols_.size(), "row arity mismatch: got %zu, want %d", n,
                  Arity());
    for (size_t c = 0; c < cols_.size(); ++c) {
      // Copy before push_back: `src` may alias this relation's own arenas.
      const Value v = src[c];
      cols_[c].push_back(v);
    }
    ++num_rows_;
    canonical_ = false;
  }

  /// Appends a tuple; `row` must have Arity() values aligned with Attrs().
  void AddRow(std::initializer_list<Value> row) {
    AddRow(row.begin(), row.size());
  }
  void AddRow(const std::vector<Value>& row) { AddRow(row.data(), row.size()); }

  /// Gather view of row `i`. Invalidated by mutation of this relation.
  RowRef Row(int64_t i) const {
    GYO_DCHECK(i >= 0 && i < num_rows_);
    return RowRef(this, i);
  }

  /// Column `c`'s arena: NumRows() contiguous values of attribute
  /// Attrs()[c]. The flat array the vectorized kernels hash and gather
  /// over. Invalidated by mutation of this relation.
  const Value* ColData(int c) const {
    GYO_DCHECK(c >= 0 && static_cast<size_t>(c) < cols_.size());
    return cols_[static_cast<size_t>(c)].data();
  }
  Value* ColData(int c) {
    GYO_DCHECK(c >= 0 && static_cast<size_t>(c) < cols_.size());
    return cols_[static_cast<size_t>(c)].data();
  }

  /// Single-cell read: column `c` of row `i`.
  Value Cell(int64_t i, int c) const {
    GYO_DCHECK(i >= 0 && i < num_rows_);
    return ColData(c)[i];
  }

  /// Iterable range of RowRef views over all rows.
  class RowIterator {
   public:
    RowIterator(const Relation* rel, int64_t i) : rel_(rel), i_(i) {}
    RowRef operator*() const { return RowRef(rel_, i_); }
    RowIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const RowIterator& o) const { return i_ == o.i_; }
    bool operator!=(const RowIterator& o) const { return i_ != o.i_; }

   private:
    const Relation* rel_;
    int64_t i_;
  };
  class RowRange {
   public:
    RowRange(const Relation* rel, int64_t n) : rel_(rel), n_(n) {}
    RowIterator begin() const { return RowIterator(rel_, 0); }
    RowIterator end() const { return RowIterator(rel_, n_); }

   private:
    const Relation* rel_;
    int64_t n_;
  };
  RowRange Rows() const { return RowRange(this, num_rows_); }

  /// Total bytes of tuple data across all column arenas
  /// (NumRows() * Arity() * sizeof(Value)) — the state-retirement
  /// byte-accounting unit.
  int64_t ArenaBytes() const {
    return num_rows_ * static_cast<int64_t>(cols_.size()) *
           static_cast<int64_t>(sizeof(Value));
  }

  /// The column index of `attr` within rows; dies if absent.
  int ColIndex(AttrId attr) const;

  /// Value of `attr` in row `i`.
  Value At(int64_t i, AttrId attr) const { return Cell(i, ColIndex(attr)); }

  /// Sorts rows and removes duplicates (set semantics). Idempotent; a no-op
  /// when the relation is already canonical.
  void Canonicalize();

  /// True when rows are known to be sorted and duplicate-free.
  bool IsCanonical() const { return canonical_; }

  /// Asserts (cheaply in release, with a full scan in debug builds) that the
  /// rows are already sorted and duplicate-free. Operators use this to pass
  /// canonical form through without re-sorting (e.g. a semijoin of a
  /// canonical relation selects a subsequence, which stays canonical).
  void MarkCanonical() {
    GYO_DCHECK(CheckCanonical());
    canonical_ = true;
  }

  /// Set equality; both sides must have the same schema. Canonicalizes both
  /// sides on demand (which reorders rows — logically const under set
  /// semantics, hence allowed on const relations).
  bool EqualsAsSet(const Relation& other) const;

  /// Physical equality: same schema, same row count, same values in the
  /// same physical row order, same canonical flag. This is the
  /// bit-identity check the parallel-vs-serial property tests pin
  /// (EqualsAsSet, by contrast, canonicalizes away row order).
  bool IdenticalTo(const Relation& other) const {
    return schema_ == other.schema_ && num_rows_ == other.num_rows_ &&
           canonical_ == other.canonical_ && cols_ == other.cols_;
  }

  /// Renders a small relation for debugging.
  std::string Format(const Catalog& catalog, int max_rows = 20) const;

 private:
  bool CheckCanonical() const;
  void EnsureCanonical() const;
  // Lexicographic compare / equality of rows `a` and `b` across columns.
  bool RowLess(int64_t a, int64_t b) const;
  bool RowEq(int64_t a, int64_t b) const;

  AttrSet schema_;
  std::vector<AttrId> attrs_;
  // `mutable`: EqualsAsSet() canonicalizes lazily on const relations; under
  // set semantics a sort + dedupe does not change the logical value.
  mutable std::vector<std::vector<Value>> cols_;
  mutable int64_t num_rows_ = 0;
  mutable bool canonical_ = true;
};

inline Value RowRef::operator[](int i) const { return rel_->Cell(row_, i); }
inline int RowRef::size() const { return rel_->Arity(); }
inline std::vector<Value> RowRef::ToVector() const {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(size()));
  for (int i = 0; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}
inline Value RowRef::const_iterator::operator*() const {
  return rel_->Cell(row_, col_);
}
inline RowRef::const_iterator RowRef::end() const {
  return const_iterator(rel_, row_, size());
}

inline bool operator==(const RowRef& a, const std::vector<Value>& b) {
  if (static_cast<size_t>(a.size()) != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}
inline bool operator==(const std::vector<Value>& a, const RowRef& b) {
  return b == a;
}

}  // namespace gyo

#endif  // GYO_REL_RELATION_H_
