// Package sqlengine implements a self-contained, in-memory SQL database
// engine: a lexer, a recursive-descent parser, a query planner and a
// materialising executor supporting joins, aggregation, subqueries and the
// scalar-function subset that the SEED reproduction needs. It stands in
// for SQLite in the paper's pipeline: SEED's sample-SQL-execution stage
// and the EX/VES evaluation metrics both run real queries through this
// engine.
//
// The engine is deliberately deterministic: repeated execution of the same
// statement over the same database yields identical rows and an identical
// Cost, the rows the plan touched (Result). The planner (Prepare, plan
// cache, hash equi-joins, predicate pushdown, point-lookup indexes; see
// planner.go) applies an optimisation only where it can prove rows, order
// and errors match the naive executor, which stays intact as the reference
// implementation (Stmt.ExecReference) and touches no fewer rows. The VES
// metric reads the reference's Cost, so every experiment table is
// independent of the plan.
package sqlengine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value. The engine follows SQLite's
// storage-class model: NULL, INTEGER, REAL and TEXT. (BLOB is not needed by
// any workload in this repository.)
type Kind uint8

// Value kinds, ordered so that the inter-kind ORDER BY precedence
// (NULL < numbers < text) matches SQLite's.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed SQL value. It is four machine words — Kind,
// one 64-bit word I and the string header S — so a materialised join row
// costs 32 bytes a column; a table and a query result store their cells in
// typed columns instead (vector.go).
// The zero Value is NULL, so uninitialised cells behave like SQL NULLs.
//
// The word I means what Kind says: an INTEGER's value, or a REAL's IEEE-754
// bits, which Real reads back. Because a REAL is stored as its bits, two
// REALs that are equal as numbers need not be == as structs: -0.0 and 0.0
// differ, and a NaN is == to itself. Compare values with Compare or
// DistinctEqual, never with ==.
type Value struct {
	Kind Kind
	I    int64 // INTEGER value, or a REAL's bits (see Real)
	S    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an INTEGER value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a REAL value.
func Float(f float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(f))} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{Kind: KindText, S: s} }

// Bool returns the engine's representation of a boolean: INTEGER 0 or 1,
// matching SQLite semantics.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Real returns the REAL a KindFloat value holds. On any other kind it
// returns I's bits read as a float64, which mean nothing; AsFloat converts.
func (v Value) Real() float64 { return math.Float64frombits(uint64(v.I)) }

// floatToInt converts f to int64 as SQLite's CAST does: toward zero, NaN to
// 0, and saturating at the int64 bounds. Go leaves int64(f) undefined out of
// range, and platforms differ there (amd64 yields MinInt64, arm64
// saturates), so every conversion of a float that may be out of range goes
// through here.
func floatToInt(f float64) int64 {
	switch {
	case f != f:
		return 0
	case f >= 0x1p63:
		return math.MaxInt64
	case f < -0x1p63:
		return math.MinInt64
	}
	return int64(f)
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether v is INTEGER or REAL.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// AsFloat converts a numeric value to float64. Text that parses as a number
// is coerced, mirroring SQLite's affinity rules; anything else yields 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.Real()
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsInt converts a value to int64 using SQLite-like coercion: a REAL, or
// text that is not an in-range integer, truncates toward zero and saturates
// at the int64 bounds (floatToInt).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.I
	case KindFloat:
		return floatToInt(v.Real())
	case KindText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err != nil {
			return floatToInt(v.AsFloat())
		}
		return i
	default:
		return 0
	}
}

// AsText renders the value as text: the bytes AppendText appends. NULL
// renders as the empty string; use IsNull to distinguish.
func (v Value) AsText() string {
	switch v.Kind {
	case KindInt:
		// Not through AppendText: strconv's small integers cost no allocation.
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		var buf [32]byte
		return string(v.AppendText(buf[:0]))
	case KindText:
		return v.S
	default:
		return ""
	}
}

// AppendText appends the value's text to dst: an INTEGER in decimal, a REAL
// as SQLite renders it (integral values below 1e15 get a trailing ".0" so
// REAL and INTEGER stay distinguishable; Inf, -Inf and NaN by name), TEXT
// as it is, NULL as nothing.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		switch f := v.Real(); {
		case math.IsInf(f, 1):
			return append(dst, "Inf"...)
		case math.IsInf(f, -1):
			return append(dst, "-Inf"...)
		case f == math.Trunc(f) && math.Abs(f) < 1e15:
			return strconv.AppendFloat(dst, f, 'f', 1, 64)
		default:
			return strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
	case KindText:
		return append(dst, v.S...)
	default:
		return dst
	}
}

// Truth reports the SQL three-valued truthiness of v: NULL is unknown
// (false here, with known=false); numbers are true when non-zero; text is
// true when it parses to a non-zero number (SQLite rule).
func (v Value) Truth() (truth, known bool) {
	switch v.Kind {
	case KindNull:
		return false, false
	case KindInt:
		return v.I != 0, true
	case KindFloat:
		return v.Real() != 0, true
	case KindText:
		return v.AsFloat() != 0, true
	default:
		return false, true
	}
}

// numericText reports whether s is numeric-looking text — the trigger for
// harmonise's affinity coercion — and returns the REAL value the coercion
// would produce. It is the single definition of "numeric-looking text"
// shared by the row interpreter (harmonise), the planner's coarse join
// keys (coarseKey) and the vectorized comparison kernels (kernels.go), so
// the three can never disagree on a boundary case.
func numericText(s string) (float64, bool) {
	ts := strings.TrimSpace(s)
	if !looksNumeric(ts) {
		return 0, false
	}
	f, err := strconv.ParseFloat(ts, 64)
	if err != nil {
		// Still coerced: AsFloat yields 0 for unparseable text, and the
		// coercion decision is looksNumeric's, not the parser's.
		return 0, true
	}
	return f, true
}

// String implements fmt.Stringer with SQL-literal-like rendering, used by
// tests and the sqlsh tool.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default:
		return v.AsText()
	}
}

// Compare orders two values using SQLite's cross-kind ordering:
// NULL < numeric < text. Numerics compare numerically across INTEGER/REAL;
// text compares byte-wise (case-sensitive — this is what makes the paper's
// case-sensitivity evidence defects genuinely fail at execution time).
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	// Two integers — what keys, ids and counts overwhelmingly are — need
	// neither the rank nor the float conversion below.
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	ra, rb := compareRank(a), compareRank(b)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // both numeric
		fa, fb := a.AsFloat(), b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	default: // both text
		return strings.Compare(a.S, b.S)
	}
}

func compareRank(v Value) int {
	switch v.Kind {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}

// Equal reports SQL equality with NULL treated as not equal to anything
// (including NULL). For result-set comparison that needs NULL==NULL, use
// DistinctEqual.
func Equal(a, b Value) (eq, known bool) {
	if a.IsNull() || b.IsNull() {
		return false, false
	}
	return Compare(a, b) == 0, true
}

// DistinctEqual implements the IS NOT DISTINCT FROM notion of equality:
// NULLs compare equal to each other. Used by GROUP BY, DISTINCT and the
// execution-accuracy metric.
func DistinctEqual(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a canonical string key for grouping and DISTINCT. Two values
// map to the same key iff DistinctEqual holds. Numeric values that are
// integral collapse across INTEGER/REAL, matching SQL equality.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// AppendKey appends the Key encoding of v to dst and returns the extended
// slice. Hot comparison paths (result-set keys, DISTINCT, hash joins) use it
// to build composite row keys in one reusable buffer instead of allocating a
// string per cell.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		return strconv.AppendInt(append(dst, 'i'), v.I, 10)
	case KindFloat:
		f := v.Real()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.AppendInt(append(dst, 'i'), int64(f), 10)
		}
		return strconv.AppendFloat(append(dst, 'f'), f, 'b', -1, 64)
	default:
		return append(append(dst, 't'), v.S...)
	}
}
