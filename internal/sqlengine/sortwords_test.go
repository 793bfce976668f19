package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// wordPalettes are the columns TestWordSortProperty sorts by: a declared type
// and the cells a column of it is drawn from. Words order the first two;
// NaN, NULL and a column mixing INTEGER and REAL are the comparator's.
var wordPalettes = []struct {
	typ   string
	cells []Value
}{
	{"INTEGER", []Value{Int(math.MinInt64), Int(math.MaxInt64), Int(0), Int(-1), Int(1), Int(7), Int(1 << 40), Int(-1 << 40)}},
	{"REAL", []Value{Float(math.Copysign(0, -1)), Float(0), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1.5), Float(-2.25), Float(1e300), Float(-5e-324), Float(3)}},
	{"REAL", []Value{Float(math.NaN()), Float(0), Float(1.5), Float(-1)}},
	{"INTEGER", []Value{Null(), Int(0), Int(2), Int(-3)}},
	{"INTEGER", []Value{Int(1), Float(1.5), Int(2), Float(-0.5), Int(math.MaxInt64)}},
}

// Property: over bulk-inserted columns of INTEGER (MinInt64 and MaxInt64
// among them), REAL (±0.0, ±Inf, NaN), NULL and mixed INTEGER/REAL cells,
// sorted ASC or DESC by one or two keys, the word path takes exactly the
// sorts words can order — every key's cells one kind, INTEGER or REAL, no
// NaN — and puts every row where a stable sort by Compare puts it; and the
// planned engine, words or heap, returns the naive executor's rows at k < n
// and k >= n alike. (A key holding NaN has no order for the naive executor
// to agree with: there the check is that words decline it.)
func TestWordSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pa, pb := wordPalettes[rng.Intn(len(wordPalettes))], wordPalettes[rng.Intn(len(wordPalettes))]
		n := 1 + rng.Intn(150)
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), pa.cells[rng.Intn(len(pa.cells))], pb.cells[rng.Intn(len(pb.cells))]}
		}
		build := func(planner bool) *Database {
			db := NewDatabase("words")
			db.MustExec(fmt.Sprintf("CREATE TABLE z (id INTEGER, a %s, b %s)", pa.typ, pb.typ))
			if _, err := db.BulkInsert("z", rows); err != nil {
				t.Fatal(err)
			}
			db.SetPlanner(planner)
			return db
		}
		planned := build(true)

		names := []string{"id", "a", "b"}
		keys := []orderKey{{col: 1 + rng.Intn(2), desc: rng.Intn(2) == 0}}
		if rng.Intn(2) == 0 {
			keys = append(keys, orderKey{col: rng.Intn(3), desc: rng.Intn(2) == 0})
		}
		terms := make([]string, len(keys))
		for i, k := range keys {
			terms[i] = names[k.col]
			if k.desc {
				terms[i] += " DESC"
			}
		}
		sql := "SELECT id FROM z ORDER BY " + strings.Join(terms, ", ") // NaN is unequal to itself: only id is compared
		switch rng.Intn(3) {
		case 1:
			sql += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(n)) // k <= n
		case 2:
			sql += fmt.Sprintf(" LIMIT %d", n+rng.Intn(3)) // k >= n
		}

		// The word path's decision and order, against the comparator's.
		tab, _ := planned.Table("z")
		s := selection{rows: tab.Rows, all: true}
		ks := make([]sortKey, len(keys))
		wordable, nan := true, false
		for i, k := range keys {
			ks[i] = sortKey{at: s.colAt(k.col), desc: k.desc}
			for _, row := range tab.Rows {
				v := row[k.col]
				nan = nan || (v.Kind == KindFloat && math.IsNaN(v.F))
				wordable = wordable && (v.Kind == KindInt || v.Kind == KindFloat) && v.Kind == tab.Rows[0][k.col].Kind
			}
		}
		wordable = wordable && !nan
		h := make([]int, n)
		if got := sortByWords(&s, ks, h); got != wordable {
			t.Fatalf("%s over %v: words took the sort = %v, want %v", sql, tab.Rows, got, wordable)
		}
		if wordable {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(x, y int) int {
				for _, k := range keys {
					if c := Compare(tab.Rows[x][k.col], tab.Rows[y][k.col]); c != 0 {
						if k.desc {
							return -c
						}
						return c
					}
				}
				return 0
			})
			if !slices.Equal(h, want) {
				t.Fatalf("%s over %v: words sorted %v, Compare %v", sql, tab.Rows, h, want)
			}
		}
		if !nan {
			crossCheck(t, planned, build(false), sql)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestSortWordOrder pins sortWord against Compare on the cells where the
// encoding is delicate: the ends of INTEGER, signed zeros, infinities and
// subnormals.
func TestSortWordOrder(t *testing.T) {
	for _, cells := range [][]Value{
		{Int(math.MinInt64), Int(math.MinInt64 + 1), Int(-1), Int(0), Int(1), Int(math.MaxInt64 - 1), Int(math.MaxInt64)},
		{Float(math.Inf(-1)), Float(-math.MaxFloat64), Float(-1), Float(-5e-324), Float(math.Copysign(0, -1)),
			Float(0), Float(5e-324), Float(1), Float(math.MaxFloat64), Float(math.Inf(1))},
	} {
		for _, a := range cells {
			for _, b := range cells {
				wa, oka := sortWord(a)
				wb, okb := sortWord(b)
				if c := cmp.Compare(wa, wb); !oka || !okb || c != Compare(a, b) {
					t.Errorf("sortWord(%v) = %#x, sortWord(%v) = %#x: order %d, Compare %d", a, wa, b, wb, c, Compare(a, b))
				}
			}
		}
	}
	for _, v := range []Value{Null(), Text("1"), Float(math.NaN())} {
		if _, ok := sortWord(v); ok {
			t.Errorf("sortWord(%v) ordered a cell words cannot", v)
		}
	}
}
