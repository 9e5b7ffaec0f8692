package ilu

import "math/bits"

// ordSet is a set of ints in [0, n) that hands its members out in
// ascending order: one bit per int, and above every 64 words of those one
// summary word that says which of them are not zero, so that a pop steps
// over 4096 absent ints per word it reads. ILUT keeps the L part of the
// working row in it — the columns still to be eliminated — because
// elimination with pivot row k creates fill only at columns > k: every
// insertion lies above the last pop, so popping the lowest member again
// and again visits them in the ascending order a priority queue would, for
// a few bit operations each.
type ordSet struct {
	word []uint64 // bit p&63 of word[p>>6]: p is a member
	sum  []uint64 // bit w&63 of sum[w>>6]: word[w] != 0
}

func newOrdSet(n int) ordSet {
	words := (n + 63) >> 6
	return ordSet{word: make([]uint64, words), sum: make([]uint64, (words+63)>>6)}
}

func (s *ordSet) add(p int) {
	w := p >> 6
	s.word[w] |= 1 << (uint(p) & 63)
	s.sum[w>>6] |= 1 << (uint(w) & 63)
}

// pop removes and returns the smallest member, or −1 when the set is
// empty. The caller passes bounds it knows: no member lies below from or
// at or above end.
func (s *ordSet) pop(from, end int) int {
	for g := from >> 12; g<<12 < end; g++ {
		if m := s.sum[g]; m != 0 {
			w := g<<6 | bits.TrailingZeros64(m)
			word := s.word[w]
			rest := word & (word - 1)
			s.word[w] = rest
			if rest == 0 {
				s.sum[g] = m & (m - 1)
			}
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}
