// Runtime value representation for tuples flowing through the simulator.

#ifndef OPD_STORAGE_VALUE_H_
#define OPD_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"

namespace opd::storage {

/// Column data types supported by the engine.
enum class DataType {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns a short lower-case type name ("int64", "string", ...).
const char* DataTypeName(DataType t);

/// \brief A dynamically-typed scalar cell.
///
/// Null is represented by the monostate alternative. Comparison follows SQL
/// semantics except that null compares equal to null (useful for grouping).
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  DataType type() const;

  bool as_bool() const { return std::get<bool>(v_); }
  int64_t as_int64() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric coercion: int64/double/bool to double; null -> 0.
  double ToDouble() const;

  /// Renders the value for debugging / CSV export.
  std::string ToString() const;

  /// Approximate serialized width in bytes (used for cost accounting).
  size_t ByteSize() const;

  /// Total order over values: null < bool < int < double < string, and
  /// within-type natural order (int/double compared numerically).
  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;

  /// Hash consistent with operator==.
  uint64_t Hash() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

/// A tuple of cells; schema lives alongside in the Table.
using Row = std::vector<Value>;

/// Approximate serialized width of a row.
size_t RowByteSize(const Row& row);

/// Hash functor over rows, consistent with `Row`'s operator== (which uses
/// `Value::operator==`, where 1 == 1.0 and null == null). This is the hash
/// used for shuffle partitioning and the hash-based join/agg operators.
struct RowHash {
  size_t operator()(const Row& row) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) HashCombine(&h, v.Hash());
    return static_cast<size_t>(h);
  }
};

}  // namespace opd::storage

#endif  // OPD_STORAGE_VALUE_H_
