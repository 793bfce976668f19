package evstore

import (
	"bytes"
	"context"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/evserve"
	"repro/internal/wal"
)

// fuzzFrame renders one valid WAL frame for seeding the corpus.
func fuzzFrame(q, evidence string) []byte {
	return frame(evserve.KeyFor("db", "v", q), evserve.Entry{Evidence: evidence})
}

// FuzzReplayFrame feeds arbitrary bytes to the WAL replay path (Open →
// wal replay → codec.Decode) and checks the recovery contract the
// corruption tests pin for hand-built cases:
//
//   - Open never panics and never errors on a damaged WAL — damage is
//     recovered from, not reported as failure;
//   - accounting is sane: live records plus dropped frames never exceed
//     the number of frames on disk;
//   - the recovered store accepts appends;
//   - a second Open is clean — recovery truncated the WAL to a valid
//     prefix, so no record is dropped twice and nothing is lost.
func FuzzReplayFrame(f *testing.F) {
	a := fuzzFrame("question one", "evidence one")
	b := fuzzFrame("question two", "evidence two")

	f.Add([]byte{})
	f.Add(append(append([]byte{}, a...), b...))
	// Torn tail: final frame lost its last bytes and its newline.
	f.Add(append(append([]byte{}, a...), b[:len(b)-5]...))
	// CRC flip: one payload byte corrupted in place.
	flipped := append([]byte{}, a...)
	flipped[20] ^= 0x40
	f.Add(flipped)
	// Bad hex in the checksum field.
	badHex := append([]byte{}, a...)
	copy(badHex, "zzzzzzzz")
	f.Add(badHex)
	// Frame too short to hold a checksum, and a missing space separator.
	f.Add([]byte("abc\n"))
	noSpace := append([]byte{}, a...)
	noSpace[8] = '_'
	f.Add(noSpace)
	// Valid frame, then binary garbage, then another valid frame.
	mid := append(append([]byte{}, a...), 0xff, 0x00, 0x7f, '\n')
	f.Add(append(mid, b...))
	// Checksum valid but payload is not a record JSON object.
	f.Add([]byte("00000000 \n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, files.WAL), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("Open failed on damaged WAL instead of recovering: %v", err)
		}
		st := s.Stats()
		lines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++ // a torn trailer is one more frame
		}
		if st.Records+st.TailDropped > lines {
			t.Fatalf("accounting: %d live + %d dropped > %d frames on disk",
				st.Records, st.TailDropped, lines)
		}
		k := evserve.KeyFor("db", "v", "post-recovery append")
		if err := s.Append(k, evserve.Entry{Evidence: "fresh"}); err != nil {
			t.Fatalf("recovered store rejected an append: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("closing recovered store: %v", err)
		}

		s2, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer s2.Close()
		st2 := s2.Stats()
		if st2.TailDropped != 0 {
			t.Fatalf("second Open dropped %d frames — recovery left a corrupt prefix behind", st2.TailDropped)
		}
		if st2.Records != st.Records+1 {
			t.Fatalf("records changed across clean reopen: %d then %d (expected +1 for the appended key)",
				st.Records, st2.Records)
		}
		var got bool
		if err := s2.Load(func(lk evserve.Key, e evserve.Entry) {
			if lk == k && e.Evidence == "fresh" {
				got = true
			}
		}); err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatal("append made before the clean close did not survive reopen")
		}
	})
}

// validPrefix is the test's own reading of a replication body: the keys of
// the complete, CRC-valid, decodable frames at its head, and their length
// in bytes.
func validPrefix(body []byte) (keys []evserve.Key, n int) {
	for {
		nl := bytes.IndexByte(body[n:], '\n')
		if nl < 10 || body[n+8] != ' ' {
			return keys, n
		}
		want, err := strconv.ParseUint(string(body[n:n+8]), 16, 32)
		payload := body[n+9 : n+nl]
		if err != nil || crc32.Checksum(payload, castagnoli) != uint32(want) {
			return keys, n
		}
		k, _, ok := codec{}.Decode(payload)
		if !ok {
			return keys, n
		}
		keys = append(keys, k)
		n += nl + 1
	}
}

// FuzzTailerStream feeds arbitrary bytes to a follower as a replication
// response body — modeling a leader behind a hostile network (truncations,
// flipped bits, duplicated frames, outright garbage) — and checks the
// replication safety contract:
//
//   - Poll never panics, whatever the peer sends, and reports an error
//     only for a full dump that is not wholly valid frames;
//   - only CRC-valid frames reach the follower's store, and an identical
//     frame delivered twice is applied once (no double-apply);
//   - the follower's own WAL stays clean: a reopen drops nothing, so
//     network damage never became disk damage.
func FuzzTailerStream(f *testing.F) {
	a := fuzzFrame("replicated question one", "evidence one")
	b := fuzzFrame("replicated question two", "evidence two")

	f.Add([]byte{}, false)
	f.Add(append(append([]byte{}, a...), b...), false)
	// Torn tail: the second frame lost its last bytes mid-flight.
	f.Add(append(append([]byte{}, a...), b[:len(b)-5]...), false)
	// Duplicate frames: the same record delivered twice in one body.
	f.Add(append(append([]byte{}, a...), a...), false)
	// CRC flip inside the payload.
	flipped := append([]byte{}, a...)
	flipped[20] ^= 0x40
	f.Add(flipped, false)
	// Valid frame, garbage, valid frame — only the prefix may apply.
	mid := append(append([]byte{}, a...), 0xff, 0x00, '\n')
	f.Add(append(mid, b...), false)
	// The same bodies served as full dumps.
	f.Add(append(append([]byte{}, a...), b...), true)
	f.Add(append(append([]byte{}, a...), a...), true)

	f.Fuzz(func(t *testing.T, body []byte, full bool) {
		dir := t.TempDir()
		follower, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}

		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := w.Header()
			h.Set(wal.HeaderReplicateGen, "12345")
			h.Set(wal.HeaderReplicateNext, strconv.Itoa(len(body)))
			h.Set(wal.HeaderReplicateLen, strconv.Itoa(len(body)))
			if full {
				h.Set(wal.HeaderReplicateFull, "1")
			}
			_, _ = w.Write(body)
		}))
		defer srv.Close()

		// Poll twice, the second time from a fresh tailer so the identical
		// body is replayed from scratch: the second delivery must dedup
		// against the first, not double-apply.
		valid, validLen := validPrefix(body)
		// An incomplete full dump must fail the poll, so Run counts it;
		// anything else a hostile peer sends costs a re-poll, not an error.
		wantErr := full && validLen != len(body)
		tl, again := NewTailer(srv.URL, follower, nil, TailerOptions{}), NewTailer(srv.URL, follower, nil, TailerOptions{})
		if _, err := tl.Poll(context.Background()); (err != nil) != wantErr {
			t.Fatalf("first poll on hostile bytes (full=%v): err %v, want error %v", full, err, wantErr)
		}
		if _, err := again.Poll(context.Background()); (err != nil) != wantErr {
			t.Fatalf("second poll on hostile bytes (full=%v): err %v, want error %v", full, err, wantErr)
		}

		// Every applied record must correspond to a valid frame in the
		// body, and re-delivery must not have double-applied any of them.
		uniq := make(map[evserve.Key]bool)
		for _, k := range valid {
			uniq[k] = true
		}
		if applied := tl.Stats().Applied + again.Stats().Applied; int(applied) > len(valid) {
			t.Fatalf("applied %d records from a body holding %d valid frames", applied, len(valid))
		}
		if follower.Len() > len(uniq) {
			t.Fatalf("store holds %d keys from a body holding %d distinct valid keys", follower.Len(), len(uniq))
		}

		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{CompactEvery: -1})
		if err != nil {
			t.Fatalf("follower unopenable after hostile replication: %v", err)
		}
		defer re.Close()
		if re.Stats().TailDropped != 0 {
			t.Fatalf("hostile network bytes reached the follower's WAL: %d frames dropped on reopen", re.Stats().TailDropped)
		}
		if re.Len() != follower.Len() {
			t.Fatalf("follower lost records across reopen: %d then %d", follower.Len(), re.Len())
		}
	})
}
