package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDB builds a deterministic pseudo-random single-table database from a
// seed, used by the executor property tests.
func randDB(seed int64, nRows int) *Database {
	rng := rand.New(rand.NewSource(seed))
	db := NewDatabase("prop")
	db.MustExec("CREATE TABLE t (id INTEGER, grp TEXT, num REAL, flag INTEGER)")
	groups := []string{"a", "b", "c", "d"}
	for i := 0; i < nRows; i++ {
		g := groups[rng.Intn(len(groups))]
		num := float64(rng.Intn(1000)) / 10
		flag := rng.Intn(2)
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', %g, %d)", i, g, num, flag))
	}
	return db
}

// Property: WHERE output is a subset of the unfiltered output, and adding a
// conjunct never grows the result.
func TestWhereSubsetProperty(t *testing.T) {
	f := func(seed int64, threshold uint8) bool {
		db := randDB(seed, 40)
		all, err := db.Query("SELECT id FROM t")
		if err != nil {
			return false
		}
		filtered, err := db.Query(fmt.Sprintf("SELECT id FROM t WHERE num > %d", int(threshold)%100))
		if err != nil {
			return false
		}
		narrower, err := db.Query(fmt.Sprintf("SELECT id FROM t WHERE num > %d AND flag = 1", int(threshold)%100))
		if err != nil {
			return false
		}
		ids := make(map[int64]bool)
		for _, r := range all.rowData() {
			ids[r[0].I] = true
		}
		for _, r := range filtered.rowData() {
			if !ids[r[0].I] {
				return false
			}
		}
		return narrower.Len() <= filtered.Len() && filtered.Len() <= all.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: COUNT(*) equals the number of rows the same predicate returns.
func TestCountMatchesRowsProperty(t *testing.T) {
	f := func(seed int64, threshold uint8) bool {
		db := randDB(seed, 30)
		pred := fmt.Sprintf("num <= %d", int(threshold)%100)
		rows, err := db.Query("SELECT id FROM t WHERE " + pred)
		if err != nil {
			return false
		}
		cnt, err := db.Query("SELECT COUNT(*) FROM t WHERE " + pred)
		if err != nil {
			return false
		}
		return cnt.Cell(0, 0).I == int64(rows.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: ORDER BY produces a non-decreasing (or non-increasing) sequence.
func TestOrderBySortedProperty(t *testing.T) {
	f := func(seed int64, desc bool) bool {
		db := randDB(seed, 35)
		dir := "ASC"
		if desc {
			dir = "DESC"
		}
		rows, err := db.Query("SELECT num FROM t ORDER BY num " + dir)
		if err != nil {
			return false
		}
		for i := 1; i < rows.Len(); i++ {
			c := Compare(rows.Cell(i-1, 0), rows.Cell(i, 0))
			if desc && c < 0 {
				return false
			}
			if !desc && c > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: DISTINCT output contains no duplicate rows and the same value
// set as the raw projection.
func TestDistinctProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := randDB(seed, 40)
		distinct, err := db.Query("SELECT DISTINCT grp FROM t")
		if err != nil {
			return false
		}
		raw, err := db.Query("SELECT grp FROM t")
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for _, r := range distinct.rowData() {
			k := r[0].Key()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		for _, r := range raw.rowData() {
			if !seen[r[0].Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: LIMIT n returns min(n, total) rows and is a prefix of the
// unlimited ordered result.
func TestLimitPrefixProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		db := randDB(seed, 25)
		n := int(nRaw % 30)
		full, err := db.Query("SELECT id FROM t ORDER BY id")
		if err != nil {
			return false
		}
		lim, err := db.Query(fmt.Sprintf("SELECT id FROM t ORDER BY id LIMIT %d", n))
		if err != nil {
			return false
		}
		want := n
		if full.Len() < n {
			want = full.Len()
		}
		if lim.Len() != want {
			return false
		}
		for i := range lim.rowData() {
			if Compare(lim.Cell(i, 0), full.Cell(i, 0)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: GROUP BY sums partition the overall sum.
func TestGroupBySumPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := randDB(seed, 40)
		total, err := db.Query("SELECT SUM(num) FROM t")
		if err != nil {
			return false
		}
		parts, err := db.Query("SELECT grp, SUM(num) FROM t GROUP BY grp")
		if err != nil {
			return false
		}
		var sum float64
		for _, r := range parts.rowData() {
			sum += r[1].AsFloat()
		}
		diff := sum - total.Cell(0, 0).AsFloat()
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every generated query produces identical rows (order included),
// the same error class and no greater Cost under the planner than under the
// naive executor — the planner's contract (planner.go).
func TestPlannerEquivalenceProperty(t *testing.T) {
	templates := []func(p1, p2 int) string{
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT t.id, g.label FROM t JOIN g ON t.grp = g.grp WHERE t.num > %d", p1)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT t.id, g.label FROM t LEFT JOIN g ON t.grp = g.grp WHERE t.num <= %d LIMIT %d", p1, p2)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp JOIN acc ON acc.t_id = t.id WHERE t.num BETWEEN %d AND %d", p1, p1+p2)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT t.id FROM t JOIN g ON t.num > g.weight WHERE t.id < %d", p2)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT g.label, SUM(t.num) FROM t JOIN g ON t.grp = g.grp GROUP BY g.label HAVING COUNT(*) > %d ORDER BY g.label", p2%4)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT id FROM t WHERE id = %d", p1)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT id FROM t WHERE grp IN (SELECT grp FROM g WHERE weight > %d)", p2)
		},
		func(p1, p2 int) string {
			return fmt.Sprintf("SELECT t.id FROM t JOIN acc ON t.id = acc.num_text WHERE acc.kind != 'q%d'", p1)
		},
	}
	f := func(seed int64, a, b uint8) bool {
		db := buildMultiDB(seed, 30)
		p1, p2 := int(a)%100, int(b)%20+1
		for _, tmpl := range templates {
			q := tmpl(p1, p2)
			pr, perr := db.Exec(q)
			nr, nerr := refExec(db, q)
			if msg := divergence(q, pr, perr, nr, nerr); msg != "" {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: INNER JOIN row count equals the number of matching pairs, and
// LEFT JOIN never returns fewer rows than the left table has.
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		db := randDB(seed, 20)
		db.MustExec("CREATE TABLE g (grp TEXT, label TEXT)")
		db.MustExec("INSERT INTO g VALUES ('a', 'A'), ('b', 'B')")
		left, err := db.Query("SELECT t.id FROM t LEFT JOIN g ON t.grp = g.grp")
		if err != nil {
			return false
		}
		base, err := db.Query("SELECT id FROM t")
		if err != nil {
			return false
		}
		inner, err := db.Query("SELECT t.id FROM t JOIN g ON t.grp = g.grp")
		if err != nil {
			return false
		}
		return left.Len() >= base.Len() && inner.Len() <= left.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
