// Typed column storage for the columnar data plane.
//
// A Column owns one contiguous typed vector (int64, double or string) chosen
// by its FieldType; cells are accessed either through the typed vectors (the
// batch-kernel fast path) or through Value-based accessors that reproduce the
// row-of-variants semantics (hashing, ordering, byte accounting) exactly, so
// the engines' shuffle partitioning and the determinism contract carry over
// from the row representation bit for bit.

#ifndef MUSKETEER_SRC_RELATIONAL_COLUMN_H_
#define MUSKETEER_SRC_RELATIONAL_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/relational/value.h"

namespace musketeer {

class Column {
 public:
  Column() = default;
  explicit Column(FieldType type) : type_(type) {}

  FieldType type() const { return type_; }

  size_t size() const {
    switch (type_) {
      case FieldType::kInt64:
        return ints_.size();
      case FieldType::kDouble:
        return doubles_.size();
      case FieldType::kString:
        return strings_.size();
    }
    return 0;
  }

  void Reserve(size_t n) {
    switch (type_) {
      case FieldType::kInt64:
        ints_.reserve(n);
        return;
      case FieldType::kDouble:
        doubles_.reserve(n);
        return;
      case FieldType::kString:
        strings_.reserve(n);
        return;
    }
  }

  void Resize(size_t n) {
    switch (type_) {
      case FieldType::kInt64:
        ints_.resize(n);
        return;
      case FieldType::kDouble:
        doubles_.resize(n);
        return;
      case FieldType::kString:
        strings_.resize(n);
        return;
    }
  }

  void Clear() {
    ints_.clear();
    doubles_.clear();
    strings_.clear();
  }

  // Typed vector access; the caller must match type() (checked by assert).
  const std::vector<int64_t>& ints() const {
    assert(type_ == FieldType::kInt64);
    return ints_;
  }
  const std::vector<double>& doubles() const {
    assert(type_ == FieldType::kDouble);
    return doubles_;
  }
  const std::vector<std::string>& strings() const {
    assert(type_ == FieldType::kString);
    return strings_;
  }
  std::vector<int64_t>* mutable_ints() {
    assert(type_ == FieldType::kInt64);
    return &ints_;
  }
  std::vector<double>* mutable_doubles() {
    assert(type_ == FieldType::kDouble);
    return &doubles_;
  }
  std::vector<std::string>* mutable_strings() {
    assert(type_ == FieldType::kString);
    return &strings_;
  }

  Value ValueAt(size_t i) const {
    switch (type_) {
      case FieldType::kInt64:
        return ints_[i];
      case FieldType::kDouble:
        return doubles_[i];
      case FieldType::kString:
        return strings_[i];
    }
    return static_cast<int64_t>(0);
  }

  // Appends `v`, coercing across the numeric types (a double cell written
  // into an INT column truncates, like AsInt64). Returns false — and appends
  // nothing — when a string meets a numeric column or vice versa.
  bool Append(const Value& v);

  // Appends src[i]; src must have the same type (no coercion, assert-checked).
  void AppendFrom(const Column& src, size_t i) {
    assert(src.type_ == type_);
    switch (type_) {
      case FieldType::kInt64:
        ints_.push_back(src.ints_[i]);
        return;
      case FieldType::kDouble:
        doubles_.push_back(src.doubles_[i]);
        return;
      case FieldType::kString:
        strings_.push_back(src.strings_[i]);
        return;
    }
  }

  // Appends src rows [begin, end); same type required.
  void AppendRange(const Column& src, size_t begin, size_t end);

  // Splices the whole of `src` (moving strings) onto the end; same type.
  void AppendColumn(Column&& src);
  void AppendColumnCopy(const Column& src);

  // New column containing this column's cells at `idx`, in `idx` order.
  Column Gather(const std::vector<uint32_t>& idx) const;

  // New column containing rows [begin, end).
  Column Slice(size_t begin, size_t end) const;

  // Rows [begin, end) as a column of `type`: a plain Slice when the types
  // agree, else a numeric cast with Append's coercion (a double truncates
  // into INT). False, with `out` untouched, for a string/numeric mismatch.
  bool CastSlice(size_t begin, size_t end, FieldType type, Column* out) const;

  // Hash of cell i, identical to HashValue on the equivalent Value (ints
  // hash through their double representation so 3 and 3.0 agree).
  size_t HashAt(size_t i) const {
    switch (type_) {
      case FieldType::kInt64:
        return std::hash<double>{}(static_cast<double>(ints_[i]));
      case FieldType::kDouble:
        return std::hash<double>{}(doubles_[i]);
      case FieldType::kString:
        return std::hash<std::string>{}(strings_[i]);
    }
    return 0;
  }

  // Batch form of HashAt: out[k] = HashAt(begin + k) for rows [begin, end).
  // Hoists the type dispatch out of the loop so the per-row body is a tight
  // contiguous pass (the kernels' shuffle/partition hashing hot loop).
  void HashRange(size_t begin, size_t end, size_t* out) const {
    switch (type_) {
      case FieldType::kInt64: {
        const int64_t* v = ints_.data();
        std::hash<double> h;
        for (size_t i = begin; i < end; ++i) {
          *out++ = h(static_cast<double>(v[i]));
        }
        return;
      }
      case FieldType::kDouble: {
        const double* v = doubles_.data();
        std::hash<double> h;
        for (size_t i = begin; i < end; ++i) *out++ = h(v[i]);
        return;
      }
      case FieldType::kString: {
        std::hash<std::string> h;
        for (size_t i = begin; i < end; ++i) *out++ = h(strings_[i]);
        return;
      }
    }
  }

  // CompareValues on cells (works across numeric column types; numerics
  // order before strings).
  int CompareAt(size_t i, const Column& other, size_t j) const;

  bool EqualAt(size_t i, const Column& other, size_t j) const {
    return CompareAt(i, other, j) == 0;
  }

  // ValueBytes of cell i (8.0 for numerics, length + separator for strings).
  double BytesAt(size_t i) const {
    if (type_ == FieldType::kString) {
      return static_cast<double>(strings_[i].size()) + 1.0;
    }
    return 8.0;
  }

  // Exact equality: same type, same length, bit-identical cells (no
  // cross-numeric coercion). The columnar leg of Table::Identical.
  bool IdenticalTo(const Column& other) const {
    return type_ == other.type_ && ints_ == other.ints_ &&
           doubles_ == other.doubles_ && strings_ == other.strings_;
  }

 private:
  FieldType type_ = FieldType::kInt64;
  // Exactly one of these is active, selected by type_. The two idle vectors
  // cost three pointers each; keeping them as plain members avoids a variant
  // dispatch on every batch-kernel access.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_COLUMN_H_
