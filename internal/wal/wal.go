// Package wal is the one crash-safe, append-only keyed log under every
// durable reuse layer of the stack: the evidence store (evstore) and the
// query-memory store (qmemory.Store). Each instance supplies a record
// Codec and its file names; flock, manifest stamp, framing, replay,
// sync, compaction, the replication byte feed and its Tailer live here
// once.
//
// On disk a log is one directory holding two files (plus a transient
// third while a compaction is in flight), named by the instance's Files:
//
//	WAL       append-only JSON-lines write-ahead log, one CRC-framed
//	          record per accepted append
//	Snapshot  the compacted live set (latest record per key), same
//	          framing, rewritten atomically by compaction
//	Tail      the previous WAL generation, rotated out at the start of a
//	          compaction; removed once the snapshot lands
//
// Every line is "crc8hex payload\n" where the CRC is the Castagnoli CRC-32
// of the payload bytes. Each append reaches the OS in one write before
// Append returns, so a SIGKILL loses at most the record being written. Open
// replays snapshot, then tail, then WAL, newest record per key winning;
// replay stops at the first torn or corrupt record, recovering the
// longest valid prefix, and Open truncates the WAL back to that prefix so
// subsequent appends never interleave with garbage.
//
// Compaction runs off the append path: crossing Options.CompactEvery
// rotates the WAL to the tail file under the lock (cheap) and writes the
// staged live set to a temp snapshot in the background, fsyncs, renames it
// over the old snapshot, and only then removes the tail. Every crash
// point is recoverable — the worst case is a surviving tail whose records
// the snapshot already holds, which the next Open replays idempotently
// and absorbs into a fresh snapshot.
//
// A Log is safe for concurrent use by one process. Two processes must
// not open the same directory at once — appends from separate file
// handles would interleave mid-frame — and the Lock file's flock refuses
// the second Open.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Files names the files of one log kind inside its directory. Tail exists
// only while a compaction is in flight (or after a crash interrupted
// one): it is the previous WAL generation, rotated out so appends
// continue into a fresh WAL while the snapshot is written in the
// background. Lock carries the advisory flock that enforces one process
// per directory, and Manifest stamps the corpus identity the records were
// built from. The names are part of the on-disk format: an instance
// passes constants, never configuration.
type Files struct {
	WAL, Tail, Snapshot, Lock, Manifest string
}

// Codec is what a Log needs to know about one record kind.
type Codec[K comparable, V any] interface {
	// Encode renders the record's payload (the bytes the frame's CRC
	// covers); it must not contain a newline.
	Encode(k K, v V) ([]byte, error)
	// Decode parses a CRC-verified payload. ok=false rejects it as a
	// corrupt frame: replay stops there, exactly as on a CRC mismatch.
	Decode(payload []byte) (k K, v V, ok bool)
	// Compare orders keys; snapshots, full dumps and Load all emit
	// records in this one order.
	Compare(a, b K) int
}

// ErrClosed is returned by Append, Flush, Compact and ReplicationRead
// after Close.
var ErrClosed = errors.New("wal: log closed")

// castagnoli is the CRC-32C table used to frame every record.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// CompactEvery triggers a snapshot compaction once this many records
	// have accumulated in the WAL; 0 defaults to 1024, negative disables
	// automatic compaction (Compact can still be called explicitly).
	CompactEvery int
	// Sync additionally fsyncs the WAL after every append and the log
	// directory after every rename/create/remove, extending durability
	// from process death to power loss. Off by default.
	Sync bool
	// Manifest identifies the corpus the records were generated from
	// (e.g. "corpus=bird seed=7"). A fresh log is stamped with it; a
	// re-opened log whose stamp differs refuses to open, because record
	// keys hash only question or SQL *text* — replaying a log built from a
	// different corpus generation would serve stale answers as hits.
	// Empty skips the check.
	Manifest string
}

// pair is one live record, the unit snapshots and dumps are staged in.
type pair[K comparable, V any] struct {
	k K
	v V
}

// Log is a durable keyed log. Construct with Open; the zero value is not
// usable.
type Log[K comparable, V any] struct {
	dir   string
	files Files
	codec Codec[K, V]
	opts  Options

	mu         sync.Mutex
	lock       *os.File // holds the directory flock for the log's lifetime
	wal        *os.File
	buf        []byte // frame scratch, reused by every Append under mu
	walRecords int    // records in the current WAL generation
	records    map[K]V
	closed     bool
	// werr is the first failed WAL write. A short write leaves a torn
	// frame at the end of the file, and replay would drop every record
	// behind it, so the log takes no further appends.
	werr error

	// walGen identifies the current WAL byte stream for replication: a
	// follower's byte offset is only meaningful against the generation it
	// was read from. Open stamps a fresh generation and every rotation
	// (compaction) bumps it, so a follower holding offsets into a file
	// that no longer exists detects the fact and resyncs from a full dump
	// instead of misreading reused offsets.
	walGen int64
	// walBytes counts bytes written to the OS in the current WAL — the
	// replication-visible prefix, which ends on a frame boundary. A failed
	// write is not counted: a follower must not get ahead of the leader's
	// own durability.
	walBytes int64

	// compactDone is the in-flight background compaction's completion
	// latch, non-nil exactly while one runs. A channel per generation
	// (rather than one reused WaitGroup) lets Flush, Compact and Close
	// wait outside l.mu without racing a concurrent Append's Add against a
	// returning Wait.
	compactDone chan struct{}

	appends         int64
	compactions     int64
	compactErrors   int64
	tailDropped     int
	snapshotRecords int
	snapshotAt      time.Time
	replay          time.Duration
}

// Open creates (or re-opens) the log rooted at dir, replaying snapshot,
// tail and WAL to rebuild the live set. A torn or corrupt WAL tail is
// truncated away so the file ends on a record boundary before any new
// append.
func Open[K comparable, V any](dir string, files Files, codec Codec[K, V], opts Options) (*Log[K, V], error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log[K, V]{
		dir:        dir,
		files:      files,
		codec:      codec,
		opts:       opts,
		records:    make(map[K]V),
		snapshotAt: time.Now(),
	}
	// One process per directory, enforced: two writers would interleave
	// WAL frames mid-record and the damage would surface only as silently
	// dropped records on the next replay. flock is advisory but released
	// by the kernel on any process death, so crash recovery never meets a
	// stale lock.
	lf, err := os.OpenFile(l.path(files.Lock), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := lockFile(lf); err != nil {
		lf.Close()
		return nil, fmt.Errorf("wal: %s is in use by another process (flock: %w)", dir, err)
	}
	l.lock = lf
	ok := false
	defer func() {
		if !ok {
			lf.Close() // releases the flock
		}
	}()
	if opts.Manifest != "" {
		existing, merr := os.ReadFile(l.path(files.Manifest))
		switch {
		case errors.Is(merr, os.ErrNotExist):
			if err := os.WriteFile(l.path(files.Manifest), []byte(opts.Manifest), 0o644); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		case merr != nil:
			return nil, fmt.Errorf("wal: %w", merr)
		case string(existing) != opts.Manifest:
			return nil, fmt.Errorf(
				"wal: manifest mismatch: %s holds records for %q but this process expects %q — serving them would return stale answers as hits; delete the directory to rebuild",
				dir, existing, opts.Manifest)
		}
	}
	start := time.Now()
	snapDropped, _, _, err := l.replayFile(files.Snapshot)
	if err != nil {
		return nil, err
	}
	l.snapshotRecords = len(l.records)
	if fi, err := os.Stat(l.path(files.Snapshot)); err == nil {
		l.snapshotAt = fi.ModTime()
	}
	// A tail WAL exists only when a crash interrupted a compaction: its
	// records are newer than the snapshot and older than the current WAL,
	// so it replays in between.
	tailDropped, _, _, err := l.replayFile(files.Tail)
	if err != nil {
		return nil, err
	}
	_, tailErr := os.Stat(l.path(files.Tail))
	tailExists := tailErr == nil
	walDropped, walValid, walValidLen, err := l.replayFile(files.WAL)
	if err != nil {
		return nil, err
	}
	l.walRecords = walValid
	l.tailDropped = snapDropped + tailDropped + walDropped
	l.replay = time.Since(start)

	f, err := os.OpenFile(l.path(files.WAL), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if walDropped > 0 {
		// Cut the corrupt tail so new appends start on a record boundary.
		if err := f.Truncate(walValidLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating corrupt WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.wal = f
	// The WAL now ends exactly at walValidLen (the corrupt tail, if any,
	// was truncated above). Replication offsets start there, under a fresh
	// generation: offsets handed out by a previous process are invalid —
	// the torn tail may have moved the boundary — so followers of the old
	// generation full-resync rather than resume.
	l.walGen = time.Now().UnixNano()
	l.walBytes = walValidLen
	if opts.Sync {
		// Cover the WAL's own directory entry when Open just created it.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	if tailExists {
		// Finish what the crashed compaction started: the replayed state
		// already includes the tail's records, so write them straight
		// into a fresh snapshot (writeSnapshot also removes the tail).
		// The WAL keeps its records — replaying them over the new
		// snapshot on the next Open is idempotent.
		if err := l.writeSnapshot(l.stageLocked()); err != nil {
			l.wal.Close()
			return nil, fmt.Errorf("wal: absorbing interrupted compaction: %w", err)
		}
		l.snapshotRecords = len(l.records)
		l.snapshotAt = time.Now()
		l.compactions++
	}
	ok = true
	return l, nil
}

func (l *Log[K, V]) path(name string) string { return filepath.Join(l.dir, name) }

// replayFile folds one framed file into the live set, stopping at the
// first invalid record. It returns how many trailing records (torn,
// CRC-mismatched, or undecodable — plus everything after them) were
// dropped, how many valid records were applied, and the byte length of
// the valid prefix they span. A missing file is an empty file.
func (l *Log[K, V]) replayFile(name string) (dropped, valid int, validLen int64, err error) {
	data, err := os.ReadFile(l.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	off := scanFrames(data, l.codec, func(k K, v V) error {
		l.records[k] = v
		valid++
		return nil
	})
	// Everything from the first torn or corrupt record on is untrusted,
	// because frames after a bad frame may themselves be mid-record
	// garbage: only the longest valid prefix is recovered.
	return countLines(data[off:]), valid, int64(off), nil
}

// scanFrames walks the complete, CRC-valid, decodable frames at the head
// of data, calling fn for each record. It returns how many bytes those
// frames span — a torn final frame (no newline yet), a corrupt frame or
// an fn error stops the scan without consuming the frame, so a caller
// resuming at the returned offset always lands on a frame boundary.
func scanFrames[K comparable, V any](data []byte, codec Codec[K, V], fn func(K, V) error) (consumed int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline made it
		}
		payload, ok := checkFrame(data[off : off+nl])
		if !ok {
			break
		}
		k, v, ok := codec.Decode(payload)
		if !ok || fn(k, v) != nil {
			break
		}
		off += nl + 1
	}
	return off
}

// syncDir fsyncs a directory, making renames, creations and removals
// inside it durable — fsyncing file contents alone does not cover the
// directory entries. Only the Sync option pays this cost.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// countLines counts newline-terminated chunks in data, counting a torn
// trailer as one more.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// frameHeaderLen is the "crc8hex " prefix of every frame.
const frameHeaderLen = 9

// appendFrame appends one framed record to dst: 8 lower-case hex CRC
// digits and a space (fmt's "%08x "), the payload, a newline.
func appendFrame(dst, payload []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// checkFrame parses one framed line (without its newline) and verifies
// the CRC before anything trusts the payload. It runs once per record on
// the startup replay path, so the parse avoids fmt's scan machinery.
func checkFrame(line []byte) (payload []byte, ok bool) {
	if len(line) < frameHeaderLen+1 || line[8] != ' ' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	payload = line[frameHeaderLen:]
	return payload, crc32.Checksum(payload, castagnoli) == uint32(want)
}

// Append persists one record write-through: it reaches the OS before
// Append returns, so a SIGKILL loses at most the record being written,
// and it triggers compaction when the WAL has grown past
// Options.CompactEvery records. Re-appending a key overwrites its
// live value, exactly like a cache Put.
func (l *Log[K, V]) Append(k K, v V) error {
	payload, err := l.codec.Encode(k, v)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.werr != nil {
		return l.werr
	}
	l.buf = appendFrame(l.buf[:0], payload)
	n, err := l.wal.Write(l.buf)
	if err != nil {
		l.werr = fmt.Errorf("wal: %w", err)
		return l.werr
	}
	l.walBytes += int64(n)
	l.records[k] = v
	l.appends++
	l.walRecords++
	if err := l.syncLocked(); err != nil {
		return err
	}
	if l.opts.CompactEvery > 0 && l.walRecords >= l.opts.CompactEvery && l.compactDone == nil {
		// Rotate under the lock (cheap: a rename and a fresh file), write
		// the snapshot in the background — the request that crossed the
		// threshold, and every concurrent Append, never waits for a full
		// live-set rewrite. A repeat trigger while one compaction runs is
		// skipped; the WAL simply grows until the next crossing.
		staged, done, err := l.beginCompactionLocked()
		if err != nil {
			return err
		}
		go l.finishCompaction(staged, done)
	}
	return nil
}

// stageLocked copies the live set out from under l.mu, unordered.
func (l *Log[K, V]) stageLocked() []pair[K, V] {
	staged := make([]pair[K, V], 0, len(l.records))
	for k, v := range l.records {
		staged = append(staged, pair[K, V]{k, v})
	}
	return staged
}

// sortPairs puts staged records into the codec's key order — the one
// ordering Load, snapshots and full dumps use.
func (l *Log[K, V]) sortPairs(ps []pair[K, V]) {
	slices.SortFunc(ps, func(a, b pair[K, V]) int { return l.codec.Compare(a.k, b.k) })
}

// Load streams every live record (latest per key) to fn, in the codec's
// key order. Owners use it to rebuild their in-memory state on startup.
func (l *Log[K, V]) Load(fn func(K, V)) {
	l.mu.Lock()
	ps := l.stageLocked()
	l.mu.Unlock()
	l.sortPairs(ps)
	for _, p := range ps {
		fn(p.k, p.v)
	}
}

// Flush reports a failed WAL write, fsyncs the WAL when Options.Sync is
// set, then waits for any in-flight background compaction — so Flush
// returning nil means the log's on-disk state is a complete, quiescent
// image of every accepted write.
func (l *Log[K, V]) Flush() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.syncLocked()
	done := l.compactDone
	l.mu.Unlock()
	// Outside the lock: finishCompaction re-acquires l.mu to publish its
	// counters, so waiting under it would deadlock.
	if done != nil {
		<-done
	}
	return err
}

// syncLocked returns the failed write that stopped the log, if any, and
// otherwise fsyncs the WAL when Options.Sync is set.
func (l *Log[K, V]) syncLocked() error {
	if l.werr != nil {
		return l.werr
	}
	if l.opts.Sync {
		if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// Compact rewrites the live set into a fresh snapshot and empties the
// WAL, synchronously. Safe to call at any time; Append triggers the same
// work in the background per Options.CompactEvery. When a background
// compaction is already running, Compact waits for it instead of
// starting another.
func (l *Log[K, V]) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if done := l.compactDone; done != nil {
		l.mu.Unlock()
		<-done
		return nil
	}
	staged, done, err := l.beginCompactionLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return l.finishCompaction(staged, done)
}

// beginCompactionLocked is the cheap, mutex-held half of a compaction:
// sync and rotate the current WAL to the tail file, open a fresh WAL for
// subsequent appends, and stage a point-in-time copy of the live set.
// The expensive snapshot write happens in finishCompaction, off the
// append path. Callers must hold l.mu and have checked that no compaction
// is running. The returned channel is this compaction generation's
// completion latch.
func (l *Log[K, V]) beginCompactionLocked() ([]pair[K, V], chan struct{}, error) {
	if err := l.syncLocked(); err != nil {
		return nil, nil, err
	}
	walPath, tailPath := l.path(l.files.WAL), l.path(l.files.Tail)
	if _, err := os.Stat(tailPath); err == nil {
		// A leftover tail from a failed compaction: renaming over it
		// would drop its records from disk, so fold the current WAL into
		// it instead (append, sync, then truncate the WAL — a crash in
		// between merely duplicates records, and replay is idempotent).
		data, err := os.ReadFile(walPath)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		tf, err := os.OpenFile(tailPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		_, werr := tf.Write(data)
		if serr := tf.Sync(); werr == nil {
			werr = serr
		}
		if cerr := tf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, nil, fmt.Errorf("wal: folding WAL into tail: %w", werr)
		}
		if err := l.wal.Truncate(0); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := l.wal.Seek(0, 0); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	} else {
		// Rename before closing: the open handle follows the renamed file,
		// so a rename failure leaves the log exactly as it was — still
		// holding a writable WAL.
		if err := os.Rename(walPath, tailPath); err != nil {
			return nil, nil, fmt.Errorf("wal: rotating WAL: %w", err)
		}
		if err := l.wal.Close(); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			// Roll the rotation back so the log keeps a writable WAL
			// instead of silently dropping durability until restart.
			if rerr := os.Rename(tailPath, walPath); rerr == nil {
				if rf, oerr := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644); oerr == nil {
					if _, serr := rf.Seek(0, 2); serr == nil {
						l.wal = rf
						return nil, nil, fmt.Errorf("wal: reopening WAL after rotation (rolled back): %w", err)
					}
					rf.Close()
				}
			}
			return nil, nil, fmt.Errorf("wal: WAL unavailable after failed rotation — log is no longer durable: %w", err)
		}
		l.wal = f
		if l.opts.Sync {
			// The rename and the fresh WAL's directory entry must be as
			// durable as the record fsyncs that follow.
			if err := syncDir(l.dir); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
	}
	l.walRecords = 0
	// The WAL byte stream just changed identity (emptied in place or
	// replaced by a fresh file): retire the replication generation so
	// follower offsets into the old stream full-resync instead of reading
	// new bytes at stale positions.
	l.walGen = time.Now().UnixNano()
	l.walBytes = 0
	done := make(chan struct{})
	l.compactDone = done
	return l.stageLocked(), done, nil
}

// finishCompaction is the slow half: write the staged live set to a temp
// snapshot, fsync, rename it over the snapshot, then remove the rotated
// tail WAL (every one of its records is in the new snapshot).
// Write-rename-remove ordering keeps every crash point recoverable: the
// worst case is a surviving tail file whose records the snapshot already
// holds, which the next Open replays idempotently and absorbs. On error
// the tail is likewise left in place — no data is lost, only the
// compaction is abandoned (counted in Stats.CompactErrors).
func (l *Log[K, V]) finishCompaction(staged []pair[K, V], done chan struct{}) error {
	defer close(done)
	err := l.writeSnapshot(staged)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactDone = nil
	if err != nil {
		l.compactErrors++
		return err
	}
	l.snapshotRecords = len(staged)
	l.snapshotAt = time.Now()
	l.compactions++
	return nil
}

// encodePairs sorts staged records and writes them framed to w.
func (l *Log[K, V]) encodePairs(w io.Writer, ps []pair[K, V]) error {
	l.sortPairs(ps)
	var line []byte
	for _, p := range ps {
		payload, err := l.codec.Encode(p.k, p.v)
		if err != nil {
			return err
		}
		line = appendFrame(line[:0], payload)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// writeSnapshot persists the staged live set and removes the tail WAL.
// It runs without l.mu — it touches only the staged copy and files no
// other path writes.
func (l *Log[K, V]) writeSnapshot(staged []pair[K, V]) error {
	tmp := l.path(l.files.Snapshot + ".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w := bufio.NewWriter(f)
	writeErr := l.encodePairs(w, staged)
	if writeErr == nil {
		writeErr = w.Flush()
	}
	if writeErr == nil {
		writeErr = f.Sync()
	}
	if cerr := f.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", writeErr)
	}
	if err := os.Rename(tmp, l.path(l.files.Snapshot)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Remove(l.path(l.files.Tail)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Sync {
		// Make the snapshot rename and tail removal themselves durable.
		if err := syncDir(l.dir); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// Close waits for any in-flight compaction, fsyncs and closes the WAL.
// Idempotent; Append and Flush fail with ErrClosed afterwards.
func (l *Log[K, V]) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.werr
	l.closed = true
	done := l.compactDone
	l.mu.Unlock()
	// Let the background snapshot finish before closing the WAL handle:
	// abandoning it mid-write would leave a tail file for the next Open
	// to absorb (safe, but needlessly). closed=true is already published,
	// so no new compaction can begin behind this wait.
	if done != nil {
		<-done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A clean shutdown leaves every accepted record on stable storage
	// whatever Options.Sync says: the fsync is paid once, not per append.
	if serr := l.wal.Sync(); err == nil {
		err = serr
	}
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	// Closing the lock file releases the flock, letting the next process
	// (or a test's reopen) take the directory.
	if cerr := l.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get returns the live record for a key, if any. Replication uses it to
// detect records a follower already holds (full-mesh shipping would
// otherwise echo every record back and forth forever).
func (l *Log[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.records[k]
	return v, ok
}

// Len returns the number of live records (latest per key).
func (l *Log[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Dir returns the log's directory.
func (l *Log[K, V]) Dir() string { return l.dir }

// Stats is a point-in-time snapshot of the log's counters, shaped for
// the /metrics endpoint.
type Stats struct {
	// Records is the live record count (latest per key).
	Records int `json:"records"`
	// SnapshotRecords is the live record count as of the last compaction
	// (or the snapshot replayed at Open).
	SnapshotRecords int `json:"snapshot_records"`
	// WALRecords counts records in the current WAL generation.
	WALRecords int `json:"wal_records"`
	// TailDropped counts torn or corrupt records dropped during the last
	// Open's replay.
	TailDropped int `json:"tail_dropped"`
	// Appends counts Append calls accepted since Open.
	Appends int64 `json:"appends"`
	// Compactions counts completed snapshot rewrites since Open.
	Compactions int64 `json:"compactions"`
	// CompactErrors counts abandoned compactions (snapshot write failed;
	// no data lost — the rotated WAL tail stays on disk for the next
	// attempt or Open to absorb).
	CompactErrors int64 `json:"compact_errors,omitempty"`
	// ReplayMicros is how long the Open-time snapshot+WAL replay took.
	ReplayMicros int64 `json:"replay_us"`
	// SnapshotAgeSeconds is the time since the last compaction (or since
	// Open when none has run).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// Stats snapshots the log's counters.
func (l *Log[K, V]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:            len(l.records),
		SnapshotRecords:    l.snapshotRecords,
		WALRecords:         l.walRecords,
		TailDropped:        l.tailDropped,
		Appends:            l.appends,
		Compactions:        l.compactions,
		CompactErrors:      l.compactErrors,
		ReplayMicros:       l.replay.Microseconds(),
		SnapshotAgeSeconds: time.Since(l.snapshotAt).Seconds(),
	}
}

// RegisterMetrics publishes the log's counters and gauges into reg as
// callbacks evaluated at scrape time, named prefix + "_records" and so
// on, so every instance exports the same set under its own name.
func (l *Log[K, V]) RegisterMetrics(reg *obs.Registry, prefix string, labels ...obs.Label) {
	if reg == nil {
		return
	}
	gauge := func(name, help string, get func(Stats) float64) {
		reg.GaugeFunc(prefix+name, help, func() float64 { return get(l.Stats()) }, labels...)
	}
	counter := func(name, help string, get func(Stats) int64) {
		reg.CounterFunc(prefix+name, help, func() int64 { return get(l.Stats()) }, labels...)
	}
	gauge("_records", "Live records (latest per key).", func(st Stats) float64 { return float64(st.Records) })
	gauge("_wal_records", "Records in the current WAL generation.", func(st Stats) float64 { return float64(st.WALRecords) })
	counter("_appends_total", "Accepted Append calls since Open.", func(st Stats) int64 { return st.Appends })
	counter("_compactions_total", "Completed snapshot rewrites since Open.", func(st Stats) int64 { return st.Compactions })
	counter("_compact_errors_total", "Abandoned compactions.", func(st Stats) int64 { return st.CompactErrors })
	gauge("_snapshot_age_seconds", "Seconds since the last compaction (or Open).", func(st Stats) float64 { return st.SnapshotAgeSeconds })
}
