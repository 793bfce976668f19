package sqlengine

import (
	"math"
	"math/bits"
)

// Sort keys as machine words. A full ORDER BY sort (positions.go,
// topPositions) reads the keys of each row as words whose unsigned order is
// Compare's, packs them with the row's index into one word per row — in the
// result slice the sort returns, so nothing else is allocated — and
// radix-sorts those in place: no Value is compared. Words order INTEGER and
// REAL cells, but not an INTEGER against a REAL (Compare converts to float64
// there, which is lossy), NULL, TEXT or NaN (Compare holds NaN equal to every
// number, which no total order does): a key with any such cell, or with cells
// of two kinds, leaves the whole sort to the comparator.

// sortKey is one ORDER BY key of a positions sort: where its cells are read,
// its direction, and — once a full sort has read every cell — the kind they
// share, the least and greatest of their words and the bits between the two.
type sortKey struct {
	at     colAt
	desc   bool
	kind   Kind
	lo, hi uint64
	width  int
}

// sortWord returns a word whose unsigned order is Compare's among cells of
// v's kind, or false when words cannot order v (NULL, TEXT, NaN). An INTEGER
// flips its sign bit. A REAL is the IEEE total-order trick — a negative
// number's bits complemented, a positive one's sign bit set — after -0.0 is
// read as +0.0, which Compare holds equal to it.
func sortWord(v Value) (uint64, bool) {
	switch v.Kind {
	case KindInt:
		return uint64(v.I) ^ 1<<63, true
	case KindFloat:
		f := v.Real()
		switch {
		case f != f:
			return 0, false
		case f == 0:
			return 1 << 63, true
		}
		b := math.Float64bits(f)
		if b>>63 != 0 {
			return ^b, true
		}
		return b | 1<<63, true
	}
	return 0, false
}

// word is sortWord for key k: complemented under DESC, so that a smaller
// word always sorts first.
func (k *sortKey) word(v Value) (uint64, bool) {
	w, ok := sortWord(v)
	if k.desc {
		w = ^w
	}
	return w, ok
}

// sortByWords sorts every row of s into h — h[j] is the row j'th in
// (keys, index) order — or reports false, with h untouched, when words cannot
// order some key (see above).
//
// A row's key is its keys' words minus each key's least, each at the width
// its greatest needs, first key most significant: unsigned order on keys is
// before's order on rows, the index aside. An entry of h is a chunk of the
// key, as many of its bits as fit above the row's index: its unsigned order
// is (chunk, index). When the key fits in one chunk — INTEGER keys of modest
// range do — one radix sort of h is the whole sort. When it does not, rows
// that tie on a chunk are sorted again, among themselves, on the next one.
func sortByWords(s *selection, ks []sortKey, h []int) bool {
	n := len(h)
	if bits.UintSize < 64 {
		return false // an int holds no 64-bit entry
	}
	for i := range n {
		l, r := s.row(i)
		for j := range ks {
			k := &ks[j]
			v := k.at.read(l, r)
			w, ok := k.word(v)
			switch {
			case !ok:
				return false
			case i == 0:
				k.kind, k.lo, k.hi = v.Kind, w, w
			case v.Kind != k.kind:
				return false
			default:
				k.lo, k.hi = min(k.lo, w), max(k.hi, w)
			}
		}
	}
	keyBits := 0
	for j := range ks {
		ks[j].width = bits.Len64(ks[j].hi - ks[j].lo)
		keyBits += ks[j].width
	}
	for i := range h {
		h[i] = i
	}
	idxBits := bits.Len(uint(n - 1))
	sortChunks(s, ks, h, 0, keyBits, idxBits)
	for i := range h {
		h[i] &= 1<<idxBits - 1
	}
	return true
}

// sortChunks sorts the entries of h — rows that tie on the key's bits before
// from, each entry holding its row's index in the low idxBits — by the key's
// bits from there on, then by index: it fills each entry with the next chunk
// of its row's key, radix-sorts h and hands each run that ties on that chunk
// to the chunk after it.
func sortChunks(s *selection, ks []sortKey, h []int, from, keyBits, idxBits int) {
	size, idx := 64-idxBits, 1<<idxBits-1
	for e, v := range h {
		l, r := s.row(v & idx)
		h[e] = int(keyChunk(ks, l, r, from, size)<<idxBits) | v&idx
	}
	radixSort(h, 0)
	if from+size >= keyBits {
		return
	}
	for lo := 0; lo < len(h); {
		hi := lo + 1
		for hi < len(h) && h[hi]&^idx == h[lo]&^idx {
			hi++
		}
		if hi-lo > 1 {
			sortChunks(s, ks, h[lo:hi], from+size, keyBits, idxBits)
		}
		lo = hi
	}
}

// keyChunk returns bits from..from+size of the key of row (l, r), counted
// from the key's most significant bit; bits past its end read as zeros.
func keyChunk(ks []sortKey, l, r, from, size int) uint64 {
	var c uint64
	pos := 0 // where key k starts
	for j := range ks {
		k := &ks[j]
		lo, hi := max(from, pos), min(from+size, pos+k.width)
		if lo < hi {
			w, _ := k.word(k.at.read(l, r))
			c |= ((w - k.lo) >> (pos + k.width - hi) & (1<<(hi-lo) - 1)) << (from + size - hi)
		}
		if pos += k.width; pos >= from+size {
			break
		}
	}
	return c
}

// radixMinRows is the run length at which radixSort hands over to insertion
// sort: a counting pass costs its 256 buckets whatever the run's length.
// Sorting 23k packed two-key entries took 1.34 ms handing over at 8, 0.77 at
// 16, 0.73 at 32, 0.72 at 64 and 0.76 at 96 (pdqsort: 1.64 ms), on a 2-core
// Xeon.
const radixMinRows = 32

// radixSort sorts the entries of h, read as unsigned words, from byte d
// onwards (byte 0 is the most significant): an in-place MSD radix sort that
// skips a byte every entry holds alike, permutes each byte's buckets in place
// (American flag sort) and leaves runs of at most radixMinRows entries to
// insertion sort. Entries are distinct, so two or more always have a byte
// that tells them apart.
func radixSort(h []int, d int) {
	for len(h) > radixMinRows {
		shift := 56 - 8*d
		var count [256]int
		for _, v := range h {
			count[byte(uint64(v)>>shift)]++
		}
		if count[byte(uint64(h[0])>>shift)] == len(h) {
			d++
			continue
		}
		var next, end [256]int
		p := 0
		for b, c := range count {
			next[b] = p
			p += c
			end[b] = p
		}
		for b := range count {
			for next[b] < end[b] {
				i := next[b]
				if db := byte(uint64(h[i]) >> shift); int(db) != b {
					h[i], h[next[db]] = h[next[db]], h[i]
					next[db]++
				} else {
					next[b]++
				}
			}
		}
		for b, c := range count {
			if c > 1 {
				radixSort(h[end[b]-c:end[b]], d+1)
			}
		}
		return
	}
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && uint64(h[j]) < uint64(h[j-1]); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}
