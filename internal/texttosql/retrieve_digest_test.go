package texttosql

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
)

// retrieverDigests are SHA-256 sums of every FindFrag resolution over the
// full BIRD dev slice (seed 7), one per strategy: for each example, in
// split order, and each of its atoms, in slot order, the example ID, the
// atom's term, the fragment and whether it was found. They were recorded
// while each retriever still pulled and cached its own value inventories;
// a change to which values a retriever sees, or how it scores them, moves
// one of them.
var retrieverDigests = map[string]string{
	"scan": "845400272b579969e46276822565e69e4fcd4362b77e0e7150befdedfef2ab8b",
	"bm25": "00ac9e550c94700d6619d37b88a2ed7fc1304538bfd62a57d74f6ab0c58fbc2e",
}

// TestRetrieverDigestBIRDDev pins both retrievers' resolutions over the
// full BIRD dev slice; the value-grounding half of every baseline rests on
// them.
func TestRetrieverDigestBIRDDev(t *testing.T) {
	c := testCorpus(t)
	for name, strat := range map[string]Strategy{"scan": StrategyScan, "bm25": StrategyBM25} {
		r := NewRetriever(strat)
		h := sha256.New()
		found := 0
		for _, ex := range c.Dev {
			db := c.DBs[ex.DB]
			for _, a := range ex.Atoms {
				frag, ok := r.FindFrag(db, a)
				if ok {
					found++
				}
				for _, f := range []string{ex.ID, a.Term, frag, strconv.FormatBool(ok)} {
					h.Write([]byte(strconv.Itoa(len(f))))
					h.Write([]byte{':'})
					h.Write([]byte(f))
				}
			}
		}
		if found == 0 {
			t.Fatalf("%s: no atom of BIRD dev resolved", name)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != retrieverDigests[name] {
			t.Errorf("%s: FindFrag digest over BIRD dev = %s, want %s", name, got, retrieverDigests[name])
		}
	}
}
