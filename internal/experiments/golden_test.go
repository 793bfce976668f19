package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenTables is the file holding the rendered bytes of Tables IV, V and
// VII (NewEnv(7); IV and VII on every 6th dev example, V on its full
// splits): the EX and VES columns of the paper's headline tables.
var goldenTables = filepath.Join("testdata", "paper_tables.golden")

// renderPaperTables renders the pinned tables in the order the golden file
// holds them.
func renderPaperTables(e *Env) string {
	return Table4(e, 6).Render() + "\n" + Table5(e).Render() + "\n" + Table7(e, 6).Render()
}

// TestPaperTablesGolden pins the rendered bytes of Tables IV, V and VII.
// Every EX and VES figure in them must stay byte-identical across engine
// and evaluation changes; a deliberate change to a table's code or to the
// simulator re-records the file with the new rendering, and says why.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: run without -short")
	}
	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderPaperTables(testEnv(t)); got != string(want) {
		t.Errorf("rendered tables differ from %s:\n--- got\n%s--- want\n%s", goldenTables, got, want)
	}
}
