package ilu

import (
	"math/rand"
	"slices"
	"testing"
)

// intHeapRef is the hand-rolled min-heap of column indices that ordered
// the L part of ILUT's working row until ordSet replaced it, kept verbatim as the reference order: over
// unique members, whatever is inserted and whenever, a pop returns the
// smallest.
type intHeapRef []int

func (h *intHeapRef) init() {
	a := *h
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownIntRef(a, i)
	}
}

func (h *intHeapRef) push(x int) {
	a := append(*h, x)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *intHeapRef) pop() int {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	siftDownIntRef(a, 0)
	*h = a
	return top
}

func siftDownIntRef(a []int, i int) {
	n := len(a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && a[r] < a[l] {
			m = r
		}
		if a[i] <= a[m] {
			return
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
}

// opStream hands out the bytes of a fuzz input, then zeros.
type opStream struct{ data []byte }

func (s *opStream) byte() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *opStream) word() int { return s.byte()<<8 | s.byte() }

// checkOrdSetRounds drives one ordSet over [0, n) and the reference heap
// through the same rounds, each shaped like one row of ILUT: pick the
// row index end, scatter some positions below it, then pop — and after
// every pop insert a few positions above the one just popped, in the
// word being scanned, within the same summary word or anywhere up to end
// — until the set is empty. Every pop must agree with the heap's, and a
// drained set must be all zeros again, because the factorizations reuse
// it for the next row without clearing it.
func checkOrdSetRounds(t *testing.T, n int, ops *opStream) {
	t.Helper()
	set := newOrdSet(n)
	member := make([]bool, n)
	var ref intHeapRef
	for round := 0; round < 4 && (round == 0 || len(ops.data) > 0); round++ {
		end := n
		if b := ops.word(); b&1 == 1 {
			end = b >> 1 % (n + 1)
		}
		first := end
		ref = ref[:0]
		for k := ops.byte() % 40; k > 0 && end > 0; k-- {
			p := ops.word() % end
			switch ops.byte() % 4 {
			case 0:
				p %= 64 // word 0
			case 1:
				p = end - 1 - p%min(end, 64) // the last word in play
			}
			if !member[p] {
				member[p] = true
				set.add(p)
				ref = append(ref, p)
				first = min(first, p)
			}
		}
		ref.init()
		pops := 0
		for k := set.pop(first, end); k >= 0; k = set.pop(k, end) {
			if len(ref) == 0 {
				t.Fatalf("n %d round %d: pop %d returned %d from a set the heap holds empty", n, round, pops, k)
			}
			if want := ref.pop(); k != want {
				t.Fatalf("n %d round %d: pop %d returned %d, the heap %d", n, round, pops, k, want)
			}
			member[k] = false
			pops++
			room := end - k - 1
			for c := ops.byte() % 4; c > 0 && room > 0; c-- {
				off := ops.word()
				switch ops.byte() % 3 {
				case 0:
					off %= 64 // often the word being scanned
				case 1:
					off %= 4096 // often the same summary word
				}
				p := k + 1 + off%room
				if !member[p] {
					member[p] = true
					set.add(p)
					ref.push(p)
				}
			}
		}
		if len(ref) != 0 {
			t.Fatalf("n %d round %d: set empty after %d pops, the heap still holds %v", n, round, pops, ref)
		}
		for w, word := range set.word {
			if word != 0 {
				t.Fatalf("n %d round %d: word %d = %#x after the set was drained", n, round, w, word)
			}
		}
		for g, m := range set.sum {
			if m != 0 {
				t.Fatalf("n %d round %d: summary word %d = %#x after the set was drained", n, round, g, m)
			}
		}
	}
}

// ordSetSizes straddle the word (64) and summary-word (4096) boundaries.
var ordSetSizes = []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 8191, 8192, 8193, 3*4096 + 130}

// TestOrdSetMatchesHeap is the property behind the bit-identity of the
// factors: random interleavings of "insert above the last pop" and "pop"
// come out of the bit set in the heap's order.
func TestOrdSetMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range ordSetSizes {
		for trial := 0; trial < 150; trial++ {
			data := make([]byte, rng.Intn(600))
			rng.Read(data)
			checkOrdSetRounds(t, n, &opStream{data})
		}
	}
}

// TestOrdSetBoundaries walks the cases a scan can get wrong: members in
// word 0 and in the last word, an insertion into the word just popped
// from, one bit per summary word, a full set, and bounds as tight and as
// loose as the contract allows.
func TestOrdSetBoundaries(t *testing.T) {
	drain := func(set *ordSet, from, end int) (out []int) {
		for k := set.pop(from, end); k >= 0; k = set.pop(k, end) {
			out = append(out, k)
		}
		return out
	}
	equal := slices.Equal[[]int]
	const n = 3*4096 + 130
	set := newOrdSet(n)
	ends := []int{0, 63, 64, 4095, 4096, 4097, 8191, 8192, n - 1}
	for _, p := range ends {
		set.add(p)
	}
	if got := drain(&set, 0, n); !equal(got, ends) {
		t.Fatalf("boundary members came out as %v, want %v", got, ends)
	}
	// An insertion into the word being scanned, right above the pop.
	set.add(5)
	set.add(4100)
	if k := set.pop(0, n); k != 5 {
		t.Fatalf("pop = %d, want 5", k)
	}
	set.add(6)
	set.add(63)
	set.add(64)
	if got, want := drain(&set, 5, n), []int{6, 63, 64, 4100}; !equal(got, want) {
		t.Fatalf("after inserting beside the pop: %v, want %v", got, want)
	}
	// The tightest bounds the contract allows.
	set.add(4096)
	if k := set.pop(4096, 4097); k != 4096 {
		t.Fatalf("pop = %d, want 4096", k)
	}
	if k := set.pop(4096, 4097); k != -1 {
		t.Fatalf("pop = %d from the drained set, want -1", k)
	}
	// Everything.
	for p := 0; p < n; p++ {
		set.add(p)
	}
	for p := 0; p < n; p++ {
		if k := set.pop(max(p-1, 0), n); k != p {
			t.Fatalf("full set: pop %d returned %d", p, k)
		}
	}
	if k := set.pop(0, n); k != -1 {
		t.Fatalf("pop from the drained set = %d, want -1", k)
	}
	// Orders 0 and 1.
	empty := newOrdSet(0)
	if k := empty.pop(0, 0); k != -1 {
		t.Fatalf("pop from the set over [0, 0) = %d, want -1", k)
	}
	one := newOrdSet(1)
	one.add(0)
	if got := drain(&one, 0, 1); !equal(got, []int{0}) {
		t.Fatalf("set over [0, 1): %v, want [0]", got)
	}
}

// FuzzOrderedSet decodes the order of the set from the first two bytes
// and the rounds of checkOrdSetRounds from the rest.
func FuzzOrderedSet(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 65, 0, 0, 3, 0, 1, 0, 0, 40, 1, 0, 63, 2})
	f.Add([]byte{16, 1, 0, 0, 5, 0, 0, 0, 15, 255, 1, 16, 0, 2, 2, 0, 1, 0, 16, 0, 1})
	f.Add([]byte{48, 130, 97, 3, 39, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 3, 0, 5, 0, 0, 9, 1, 255, 255, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2000 {
			return
		}
		n := (int(data[0])<<8 | int(data[1])) % (3*4096 + 131)
		checkOrdSetRounds(t, n, &opStream{data[2:]})
	})
}
