// Package synth generates large synthetic databases from small fixtures.
// Given any schema.DB it introspects the foreign-key graph, infers a value
// model per column from the fixture rows and the description files, and
// materialises dependency-ordered, referentially consistent tables of
// arbitrary size — the instrument behind `cmd/dbgen` and the 100k-row
// corpora of bench/. Generation is deterministic: the
// same seed produces byte-identical tables and workloads, regardless of
// worker count, because every batch of rows is a pure function of
// (table, batch index, seed).
package synth

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// Options configures Generate.
type Options struct {
	// Seed drives every random choice. Same seed, same output — always.
	Seed uint64
	// Rows maps lower-cased table names to target row counts. Tables
	// absent from the map keep their fixture row count. Use
	// ProportionalRows to scale a whole database to a total budget.
	Rows map[string]int
	// Workers bounds concurrent batch generation. 0 means GOMAXPROCS.
	// The worker count never affects the generated bytes, only the
	// wall-clock time.
	Workers int
	// BatchSize is the number of rows generated per batch. 0 means 8192.
	BatchSize int
}

// mix64 is the splitmix64 finalizer. Batch and table seeds are derived
// through it rather than by plain addition because llm.Rand is itself a
// splitmix stream: adjacent raw seeds would yield overlapping shifted
// streams and near-duplicate batches.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Generate builds a fresh database with the same schema and docs as src
// and fills it with synthetic rows. Tables are generated in foreign-key
// dependency order so that child columns can sample keys that actually
// exist in their generated parents. The database is frozen once filled
// (sqlengine.Database.Freeze): it is only ever read.
func Generate(src *schema.DB, opts Options) (*schema.DB, error) {
	db, err := generate(src, opts)
	if err != nil {
		return nil, err
	}
	db.Engine.Freeze()
	return db, nil
}

// generate is Generate without the freeze.
func generate(src *schema.DB, opts Options) (*schema.DB, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8192
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	order, err := schema.DependencyOrder(src.Engine)
	if err != nil {
		return nil, err
	}

	// Fresh engine with the identical schema, created in the source's
	// declaration order so the schema DDL renders the same.
	dst := sqlengine.NewDatabase(src.Engine.Name)
	for _, t := range src.Engine.Tables() {
		if _, err := dst.Exec(schema.TableDDL(t)); err != nil {
			return nil, fmt.Errorf("synth: recreating %s: %w", t.Name, err)
		}
	}
	out := &schema.DB{Name: src.Name, Engine: dst, Docs: src.Docs}

	for _, srcT := range order {
		name := strings.ToLower(srcT.Name)
		n, ok := opts.Rows[name]
		if !ok {
			n = srcT.Len()
		}
		if n <= 0 {
			continue
		}
		dstT, _ := dst.Table(name)
		doc, _ := src.Doc(srcT.Name)

		// One model per column. Foreign-key child columns sample from the
		// already generated parent rows.
		models := make([]valueModel, len(srcT.Columns))
		for ci, col := range srcT.Columns {
			var fkPool []sqlengine.Value
			selfN := 0
			for _, fk := range srcT.ForeignKeys {
				if !strings.EqualFold(fk.Column, col.Name) {
					continue
				}
				if strings.EqualFold(fk.ParentTable, srcT.Name) {
					selfN = n
					break
				}
				parent, okP := dst.Table(fk.ParentTable)
				if !okP {
					return nil, fmt.Errorf("synth: %s references missing table %s", srcT.Name, fk.ParentTable)
				}
				pc := parent.ColumnIndex(fk.ParentColumn)
				if pc < 0 {
					return nil, fmt.Errorf("synth: %s.%s references missing column %s.%s",
						srcT.Name, col.Name, fk.ParentTable, fk.ParentColumn)
				}
				for ri := 0; ri < parent.Len(); ri++ {
					if v := parent.Cell(ri, pc); !v.IsNull() {
						fkPool = append(fkPool, v)
					}
				}
				if len(fkPool) == 0 {
					return nil, fmt.Errorf("synth: parent %s.%s has no keys for %s.%s (generate parents with at least one row)",
						fk.ParentTable, fk.ParentColumn, srcT.Name, col.Name)
				}
				break
			}
			models[ci] = buildModel(srcT, ci, doc, fkPool, selfN)
		}

		if err := generateTable(dst, dstT, models, n, opts, mix64(opts.Seed^mix64(fnvHash(name)))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generateTable fills one table: batches are produced concurrently (each
// row from its own deterministic stream) and appended in batch order
// through BulkInsert, so worker scheduling can never reorder rows.
func generateTable(db *sqlengine.Database, t *sqlengine.Table, models []valueModel, n int, opts Options, tableSeed uint64) error {
	nBatches := (n + opts.BatchSize - 1) / opts.BatchSize
	batches := make([][][]sqlengine.Value, nBatches)

	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for b := 0; b < nBatches; b++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(b int) {
			defer wg.Done()
			defer func() { <-sem }()
			lo := b * opts.BatchSize
			hi := lo + opts.BatchSize
			if hi > n {
				hi = n
			}
			rows := make([][]sqlengine.Value, hi-lo)
			for i := range rows {
				// A fresh stream per row makes each row a pure function of
				// (table seed, row index): neither the worker count nor the
				// batch size can change the generated bytes.
				rng := llm.NewRand(mix64(tableSeed + mix64(uint64(lo+i)+1)))
				row := make([]sqlengine.Value, len(models))
				for ci, m := range models {
					row[ci] = m.value(lo+i, rng)
				}
				rows[i] = row
			}
			batches[b] = rows
		}(b)
	}
	wg.Wait()

	for b, rows := range batches {
		if _, err := db.BulkInsert(t.Name, rows); err != nil {
			return fmt.Errorf("synth: loading %s batch %d: %w", t.Name, b, err)
		}
	}
	return nil
}

// dimensionCap bounds pure dimension tables in ProportionalRows. Two
// reasons: realism (there are only so many districts no matter how many
// accounts exist), and the naive reference executor, which charges every
// join its full |L|·|R| pair count against a 50M-row budget — a
// fact-to-dimension join at a million fact rows only stays executable there
// when the dimension side is this small.
const dimensionCap = 128

// ProportionalRows scales a database to roughly total rows, splitting the
// budget across tables in proportion to their fixture row counts. Pure
// dimension tables — referenced by others but referencing nothing
// themselves — are capped at dimensionCap rows. The largest uncapped
// table absorbs rounding so the counts sum to exactly total.
func ProportionalRows(src *schema.DB, total int) map[string]int {
	type ti struct {
		name    string
		fixture int
		dim     bool
	}
	referenced := make(map[string]bool)
	for _, t := range src.Engine.Tables() {
		for _, fk := range t.ForeignKeys {
			if !strings.EqualFold(fk.ParentTable, t.Name) {
				referenced[strings.ToLower(fk.ParentTable)] = true
			}
		}
	}
	var infos []ti
	fixtureTotal := 0
	for _, t := range src.Engine.Tables() {
		name := strings.ToLower(t.Name)
		fix := t.Len()
		if fix == 0 {
			fix = 1
		}
		infos = append(infos, ti{name: name, fixture: fix, dim: referenced[name] && len(t.ForeignKeys) == 0})
		fixtureTotal += fix
	}

	out := make(map[string]int, len(infos))
	// First pass: cap dimension tables.
	capped := 0
	uncappedFixture := 0
	for _, in := range infos {
		if in.dim {
			rows := total * in.fixture / fixtureTotal
			if rows > dimensionCap {
				rows = dimensionCap
			}
			if rows < 1 {
				rows = 1
			}
			out[in.name] = rows
			capped += rows
		} else {
			uncappedFixture += in.fixture
		}
	}
	// Second pass: split the rest proportionally, remainder to the largest.
	rest := total - capped
	if rest < 0 || uncappedFixture == 0 {
		rest = 0
	}
	largest, assigned := "", 0
	for _, in := range infos {
		if in.dim {
			continue
		}
		rows := rest * in.fixture / uncappedFixture
		if rows < 1 {
			rows = 1
		}
		out[in.name] = rows
		assigned += rows
		if largest == "" || out[in.name] > out[largest] {
			largest = in.name
		}
	}
	if largest != "" && rest > assigned {
		out[largest] += rest - assigned
	}
	return out
}

// VerifyFK checks referential consistency: every non-NULL child key must
// exist in its parent column. It returns the first violation found.
func VerifyFK(db *schema.DB) error {
	for _, t := range db.Engine.Tables() {
		for _, fk := range t.ForeignKeys {
			parent, ok := db.Engine.Table(fk.ParentTable)
			if !ok {
				return fmt.Errorf("synth: %s references missing table %s", t.Name, fk.ParentTable)
			}
			pc := parent.ColumnIndex(fk.ParentColumn)
			cc := t.ColumnIndex(fk.Column)
			if pc < 0 || cc < 0 {
				return fmt.Errorf("synth: dangling FK definition %s.%s -> %s.%s",
					t.Name, fk.Column, fk.ParentTable, fk.ParentColumn)
			}
			keys := make(map[string]struct{}, parent.Len())
			for ri := 0; ri < parent.Len(); ri++ {
				if v := parent.Cell(ri, pc); !v.IsNull() {
					keys[valueKey(v)] = struct{}{}
				}
			}
			for ri := 0; ri < t.Len(); ri++ {
				v := t.Cell(ri, cc)
				if v.IsNull() {
					continue
				}
				if _, ok := keys[valueKey(v)]; !ok {
					return fmt.Errorf("synth: %s row %d: %s=%s has no match in %s.%s",
						t.Name, ri, fk.Column, v.AsText(), fk.ParentTable, fk.ParentColumn)
				}
			}
		}
	}
	return nil
}

// Fingerprint hashes every table's schema and rows into one value. Two
// databases with identical contents — kinds and all — fingerprint equal,
// so a pinned fingerprint is a byte-identity regression test for the
// generator.
func Fingerprint(db *schema.DB) uint64 {
	h := fnv.New64a()
	names := db.Engine.TableNames()
	sort.Strings(names)
	for _, name := range names {
		t, _ := db.Engine.Table(name)
		fmt.Fprintf(h, "T:%s\n", strings.ToLower(t.Name))
		for _, c := range t.Columns {
			fmt.Fprintf(h, "C:%s:%s\n", strings.ToLower(c.Name), strings.ToUpper(c.Type))
		}
		for ri := 0; ri < t.Len(); ri++ {
			for ci := range t.Columns {
				v := t.Cell(ri, ci)
				fmt.Fprintf(h, "%d:%s|", int(v.Kind), v.AsText())
			}
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// valueKey renders a value as a comparison key for FK verification. Kinds
// matter: Int(1) and Text("1") are distinct — except Int/Float compare
// numerically, matching SQL equality across affinity boundaries.
func valueKey(v sqlengine.Value) string {
	switch v.Kind {
	case sqlengine.KindInt:
		return "n:" + fmt.Sprint(v.I)
	case sqlengine.KindFloat:
		if i := v.AsInt(); float64(i) == v.Real() {
			return "n:" + fmt.Sprint(i)
		}
		return "n:" + v.AsText()
	default:
		return "t:" + v.S
	}
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
