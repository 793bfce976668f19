package seed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/llm"
)

// evidenceDigests are SHA-256 sums over the full BIRD dev slice (seed 7),
// recorded before the cold-path kernels replaced the string-pair matcher
// and the two-pass few-shot scorer. "evidence" hashes (example ID,
// evidence) per question; "samples" hashes every Sample that
// SampleExecution returns for the question's extracted keywords, with Sim
// as its exact float64 bits; "shots" hashes the exemplar questions
// SelectFewShots picks. Any change to matching, scoring order or prompt
// bytes moves one of them.
var evidenceDigests = map[string]string{
	"gpt/evidence":      "0ace08e9d59fab62b1d5823bf84bbaca20846273ff7293dcbdb48b32d730c230",
	"gpt/samples":       "21e6aec8e15cc6cd075eb81145c7c5f555b38f0d56f8dff2290092669995cb1a",
	"gpt/shots":         "72d8595344fc7a128c5c8157627432c6a26a8556970c80c3d2bb64940f19bdfd",
	"deepseek/evidence": "6222e0a0456454140a687ddb97ea75be8fd4bb5a801ef967a3025d0989c22cc1",
	"deepseek/samples":  "92beb334d2131dee90a78506b96ccf0e8e14cc3817b3a55bccd4e9b449a4b2fe",
	"deepseek/shots":    "72d8595344fc7a128c5c8157627432c6a26a8556970c80c3d2bb64940f19bdfd",
}

// TestEvidenceDigestBIRDDev pins the evidence bytes and the sample
// execution output of both variants over the full BIRD dev slice; a
// change to any stage moves one of these constants.
func TestEvidenceDigestBIRDDev(t *testing.T) {
	if testing.Short() {
		t.Skip("full BIRD dev digest sweep; skipped in -short")
	}
	c := testCorpus(t)
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"gpt", ConfigGPT()},
		{"deepseek", ConfigDeepSeek()},
	} {
		t.Run(v.name, func(t *testing.T) {
			p := New(v.cfg, llm.NewSimulator(), c)
			evH, smH, shH := sha256.New(), sha256.New(), sha256.New()
			for _, ex := range c.Dev {
				ev, err := p.GenerateEvidence(ex.DB, ex.Question)
				if err != nil {
					t.Fatalf("%s: %v", ex.ID, err)
				}
				writeField(evH, ex.ID)
				writeField(evH, ev)

				kws, _, err := p.extractKeywords(ex.Question)
				if err != nil {
					t.Fatalf("%s keywords: %v", ex.ID, err)
				}
				writeField(smH, ex.ID)
				for _, s := range p.SampleExecution(c.DBs[ex.DB], kws) {
					writeField(smH, s.Table)
					writeField(smH, s.Column)
					writeField(smH, s.Keyword)
					writeField(smH, s.Value)
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Sim))
					smH.Write(b[:])
				}

				writeField(shH, ex.ID)
				for _, sh := range p.SelectFewShots(ex.Question, ex.DB) {
					writeField(shH, sh.Question)
				}
			}
			for kind, h := range map[string]hash.Hash{"evidence": evH, "samples": smH, "shots": shH} {
				key := v.name + "/" + kind
				if got := hex.EncodeToString(h.Sum(nil)); got != evidenceDigests[key] {
					t.Errorf("%s digest = %s, want %s", key, got, evidenceDigests[key])
				}
			}
		})
	}
}

// writeField writes s length-prefixed, so adjacent fields cannot alias.
func writeField(h hash.Hash, s string) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
	h.Write(b[:])
	h.Write([]byte(s))
}
