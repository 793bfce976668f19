package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// FuzzReplayFrame feeds arbitrary bytes to the replay path of every log
// instance (Open → frame check → the instance's Decode) and checks the
// recovery contract the damage tables pin for hand-built cases:
//
//   - Open never panics and never errors on a damaged WAL — damage is
//     recovered from, not reported as failure;
//   - accounting is sane: live records plus dropped frames never exceed
//     the number of frames on disk;
//   - the recovered store accepts appends;
//   - a second Open is clean — recovery truncated the WAL to a valid
//     prefix, so no record is dropped twice and nothing is lost.
func FuzzReplayFrame(f *testing.F) {
	// Seed with what each instance really writes, whole and damaged.
	for _, k := range kinds {
		dir := f.TempDir()
		s, err := k.open(dir, wal.Options{CompactEvery: -1})
		if err != nil {
			f.Fatal(err)
		}
		if s.put(1, "evidence one") != nil || s.put(2, "evidence two") != nil || s.Close() != nil {
			f.Fatal("seeding")
		}
		data, err := os.ReadFile(filepath.Join(dir, k.wal))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-5]) // torn tail: the final frame lost its newline
		flipped := bytes.Clone(data)
		flipped[20] ^= 0x40 // CRC mismatch in the first payload
		f.Add(flipped)
		badHex := bytes.Clone(data)
		copy(badHex, "zzzzzzzz")
		f.Add(badHex)
		noSpace := bytes.Clone(data)
		noSpace[8] = '_'
		f.Add(noSpace)
		first := bytes.IndexByte(data, '\n') + 1
		f.Add(append(append(bytes.Clone(data[:first]), 0xff, 0x00, 0x7f, '\n'), data[first:]...))
	}
	f.Add([]byte{})
	f.Add([]byte("abc\n"))         // too short to hold a checksum
	f.Add([]byte("00000000 \n"))   // checksum of nothing, no payload
	f.Add([]byte("764dbd76 []\n")) // checksum valid, payload is no record
	f.Add([]byte("297bd0aa {}\n")) // checksum valid, record without a key

	f.Fuzz(func(t *testing.T, data []byte) {
		lines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++ // a torn trailer is one more frame
		}
		for _, k := range kinds {
			t.Logf("as a %s WAL", k.name)
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, k.wal), data)
			s, err := k.open(dir, wal.Options{CompactEvery: -1})
			if err != nil {
				t.Fatalf("Open failed on damaged WAL instead of recovering: %v", err)
			}
			st := s.Stats()
			if st.Records+st.TailDropped > lines {
				t.Fatalf("accounting: %d live + %d dropped > %d frames on disk", st.Records, st.TailDropped, lines)
			}
			_, held := s.get(100)
			if err := s.put(100, "fresh"); err != nil {
				t.Fatalf("recovered store rejected an append: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("closing recovered store: %v", err)
			}

			r, err := k.open(dir, wal.Options{CompactEvery: -1})
			if err != nil {
				t.Fatalf("reopen after recovery: %v", err)
			}
			st2 := r.Stats()
			if st2.TailDropped != 0 {
				t.Fatalf("second Open dropped %d frames — recovery left a corrupt prefix behind", st2.TailDropped)
			}
			want := st.Records + 1
			if held {
				want = st.Records // the fuzzer found the appended key itself
			}
			if st2.Records != want {
				t.Fatalf("records changed across clean reopen: %d then %d, want %d", st.Records, st2.Records, want)
			}
			if got, _ := r.get(100); got != "fresh" {
				t.Fatal("append made before the clean close did not survive reopen")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
