package synth

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/schema"
	"repro/internal/sqlengine"
)

// A valueModel produces the value of one column for one generated row. It
// must be a pure function of (idx, rng): models never share mutable state,
// so batches of rows can be generated concurrently and still come out
// byte-identical for a given seed. idx is the zero-based row index within
// the whole table; rng is the batch-local deterministic stream.
type valueModel interface {
	value(idx int, rng *llm.Rand) sqlengine.Value
}

// seqInt emits idx+1 — the model for INTEGER primary keys. Being a pure
// function of the row index (it never touches rng) keeps primary keys dense
// and predictable, which the foreign-key models and the workload
// synthesizer both exploit.
type seqInt struct{}

func (seqInt) value(idx int, _ *llm.Rand) sqlengine.Value { return sqlengine.Int(int64(idx) + 1) }

// seqText emits "<col>_<idx+1>" for TEXT primary keys.
type seqText struct{ col string }

func (m seqText) value(idx int, _ *llm.Rand) sqlengine.Value {
	return sqlengine.Text(fmt.Sprintf("%s_%d", m.col, idx+1))
}

// fkRef samples uniformly from the keys actually present in the generated
// parent table, so every child reference resolves by construction. Sampling
// from the materialised pool (with duplicates, if the parent column has
// them) rather than a deduplicated set is deliberate: it is deterministic
// and it skews child fan-out toward frequent parent keys the way real data
// does.
type fkRef struct {
	pool     []sqlengine.Value
	nullRate float64
}

func (m fkRef) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	return m.pool[rng.Intn(len(m.pool))]
}

// selfRef handles a table whose foreign key points at itself: the parent
// rows do not exist yet while the table is being generated, so it samples
// from the planned primary-key sequence 1..n instead.
type selfRef struct {
	n        int
	nullRate float64
}

func (m selfRef) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	return sqlengine.Int(int64(rng.Intn(m.n)) + 1)
}

// categorical samples from a fixed code set, weighted by how often each
// code appears in the fixture rows. Codes are kept sorted so the model is
// independent of map iteration order.
type categorical struct {
	codes    []string
	cum      []int // cumulative weights, same length as codes
	total    int
	nullRate float64
}

func (m categorical) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	r := rng.Intn(m.total)
	i := sort.SearchInts(m.cum, r+1)
	return sqlengine.Text(m.codes[i])
}

// intRange draws uniformly from the closed integer interval observed in
// the fixture rows.
type intRange struct {
	lo, hi   int64
	nullRate float64
}

func (m intRange) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	span := m.hi - m.lo + 1
	return sqlengine.Int(m.lo + int64(rng.Uint64()%uint64(span)))
}

// floatRange draws uniformly from the observed real interval, rounded to
// two decimals so values print compactly and compare stably.
type floatRange struct {
	lo, hi   float64
	nullRate float64
}

func (m floatRange) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	v := m.lo + rng.Float64()*(m.hi-m.lo)
	return sqlengine.Float(float64(int64(v*100+0.5)) / 100)
}

// dateRange draws ISO dates between the observed fixture years. Days cap
// at 28 so every generated date is valid in every month.
type dateRange struct {
	loYear, hiYear int
	nullRate       float64
}

func (m dateRange) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	y := m.loYear + rng.Intn(m.hiYear-m.loYear+1)
	return sqlengine.Text(fmt.Sprintf("%04d-%02d-%02d", y, 1+rng.Intn(12), 1+rng.Intn(28)))
}

// textSample mixes fixture reuse with synthesis: half the time it replays a
// fixture string (keeping realistic values queries can match on), half the
// time it mints "<col>_<N>" (growing the distinct-value count with the
// table, the way identifiers do).
type textSample struct {
	col      string
	samples  []string // sorted fixture values
	nullRate float64
}

func (m textSample) value(_ int, rng *llm.Rand) sqlengine.Value {
	if m.nullRate > 0 && rng.Chance(m.nullRate) {
		return sqlengine.Null()
	}
	if len(m.samples) > 0 && rng.Chance(0.5) {
		return sqlengine.Text(m.samples[rng.Intn(len(m.samples))])
	}
	return sqlengine.Text(fmt.Sprintf("%s_%d", m.col, rng.Intn(1_000_000)))
}

// isISODate reports whether s looks like YYYY-MM-DD.
func isISODate(s string) bool {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i, c := range []byte(s) {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// buildModel infers the generator for one column from the fixture rows,
// the column's documentation, and its role in the schema. fkPool is
// non-nil when the column is the child side of a foreign key; selfN is the
// planned row count when that foreign key is a self-reference.
func buildModel(t *sqlengine.Table, colIdx int, doc *schema.TableDoc, fkPool []sqlengine.Value, selfN int) valueModel {
	col := t.Columns[colIdx]

	// Observed fixture statistics.
	var nonNull, nInt, nFloat int
	var texts []string
	var loI, hiI int64
	var loF, hiF float64
	allDates := t.Len() > 0
	seenText := make(map[string]int)
	for ri := 0; ri < t.Len(); ri++ {
		v := t.Cell(ri, colIdx)
		if v.IsNull() {
			continue
		}
		nonNull++
		switch v.Kind {
		case sqlengine.KindInt:
			nInt++
			if nInt == 1 || v.I < loI {
				loI = v.I
			}
			if nInt == 1 || v.I > hiI {
				hiI = v.I
			}
		case sqlengine.KindFloat:
			nFloat++
			f := v.Real()
			if nFloat == 1 || f < loF {
				loF = f
			}
			if nFloat == 1 || f > hiF {
				hiF = f
			}
		case sqlengine.KindText:
			if _, ok := seenText[v.S]; !ok {
				texts = append(texts, v.S)
			}
			seenText[v.S]++
			if !isISODate(v.S) {
				allDates = false
			}
		}
	}
	nullRate := 0.0
	if !col.NotNull && t.Len() > 0 {
		nullRate = float64(t.Len()-nonNull) / float64(t.Len())
	}

	if selfN > 0 {
		return selfRef{n: selfN, nullRate: nullRate}
	}
	if fkPool != nil {
		return fkRef{pool: fkPool, nullRate: nullRate}
	}
	if col.PrimaryKey {
		if strings.EqualFold(col.Type, "TEXT") {
			return seqText{col: col.Name}
		}
		return seqInt{}
	}

	// Documented code sets become categorical models weighted by fixture
	// frequency (uniform when the fixture never uses a code).
	if doc != nil {
		if cd, ok := doc.ColumnDoc(col.Name); ok && len(cd.ValueMap) > 0 {
			codes := make([]string, 0, len(cd.ValueMap))
			for c := range cd.ValueMap {
				codes = append(codes, c)
			}
			sort.Strings(codes)
			cum := make([]int, len(codes))
			total := 0
			for i, c := range codes {
				w := seenText[c] + 1
				total += w
				cum[i] = total
			}
			return categorical{codes: codes, cum: cum, total: total, nullRate: nullRate}
		}
	}

	switch {
	case strings.EqualFold(col.Type, "INTEGER"):
		if nInt == 0 {
			loI, hiI = 1, 1000
		}
		return intRange{lo: loI, hi: hiI, nullRate: nullRate}
	case strings.EqualFold(col.Type, "REAL"):
		if nFloat == 0 {
			loF, hiF = 0, 1000
		}
		return floatRange{lo: loF, hi: hiF, nullRate: nullRate}
	default:
		if nonNull > 0 && allDates {
			lo, hi := 9999, 0
			for s := range seenText {
				y := (int(s[0]-'0')*1000 + int(s[1]-'0')*100 + int(s[2]-'0')*10 + int(s[3]-'0'))
				if y < lo {
					lo = y
				}
				if y > hi {
					hi = y
				}
			}
			return dateRange{loYear: lo, hiYear: hi, nullRate: nullRate}
		}
		sort.Strings(texts)
		return textSample{col: col.Name, samples: texts, nullRate: nullRate}
	}
}
