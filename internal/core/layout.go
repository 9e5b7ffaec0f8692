package core

import (
	"math"
	"sync"

	"parapre/internal/dsys"
	"parapre/internal/grid"
	"parapre/internal/precond"
)

// layout is a row partition and the subdomain systems distributed by it:
// what set-up derives from a Problem before any preconditioner exists. Every
// session and cold solve that asks the same Problem for the same layoutKey
// shares it, so it is read-only and holds no right-hand side.
type layout struct {
	part    []int
	systems []*dsys.System
}

// layoutKey is what a layout depends on besides the problem. With Schwarz
// the box (M, Px, Py) takes the place of scheme and seed.
type layoutKey struct {
	p      int
	scheme PartitionScheme
	seed   int64
	box    [3]int
}

// layoutMemo holds a Problem's layouts, each built once under its own
// sync.Once, for as long as the Problem lives. from is the state of the
// Problem they were built from. Problem.Bytes counts them all.
type layoutMemo struct {
	mu      sync.Mutex
	from    fingerprint
	entries map[layoutKey]*layoutEntry
}

type layoutEntry struct {
	get func() (*layout, error)
	lay *layout // get's layout once it has returned one; under the memo's mu
}

// layouts returns the layouts built so far.
func (m *layoutMemo) layouts() []*layout {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := make([]*layout, 0, len(m.entries))
	for _, e := range m.entries {
		if e.lay != nil {
			ls = append(ls, e.lay)
		}
	}
	return ls
}

// fingerprint identifies what a layout reads of a Problem: Mesh by
// identity, A by content, one hash per array. A check against in-place
// edits, not against an adversary.
type fingerprint struct {
	mesh       *grid.Mesh
	dpn        int
	rows, cols int
	sum        [3]uint64
}

func (p *Problem) fingerprint() fingerprint {
	f := fingerprint{mesh: p.Mesh, dpn: p.DofsPerNode, rows: p.A.Rows, cols: p.A.Cols}
	for _, q := range p.A.RowPtr {
		f.sum[0] = mix(f.sum[0], uint64(q))
	}
	for k, j := range p.A.ColIdx {
		f.sum[1] = mix(f.sum[1], uint64(j))
		f.sum[2] = mix(f.sum[2], math.Float64bits(p.A.Val[k]))
	}
	return f
}

// mix folds v into the running sum h, a bijection in either argument (no
// edit of a single entry goes unseen). The multiplication carries a changed
// bit upwards only and the shift brings the high bits back down: without it
// a flipped sign stays in bit 63 and any two of them cancel.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// layout returns the partition and systems set-up under cfg starts from, and
// whether they were there already: the one place NewSession (Solve's too)
// and SolveRank get them. The matrix is re-read on every call and nothing built
// before an in-place edit is returned after it, so the result is always what
// a fresh Problem would give. A failed build is returned and not kept.
func (p *Problem) layout(cfg Config) (*layout, bool, error) {
	key := layoutKey{p: cfg.P, scheme: cfg.Scheme, seed: partSeed(cfg)}
	if sw := cfg.Schwarz; sw != nil {
		key = layoutKey{p: cfg.P, box: [3]int{sw.M, sw.Px, sw.Py}}
	}
	from := p.fingerprint()
	m := &p.memo
	m.mu.Lock()
	if m.entries == nil || m.from != from {
		m.from, m.entries = from, map[layoutKey]*layoutEntry{}
	}
	e, reused := m.entries[key]
	if !reused {
		e = &layoutEntry{get: sync.OnceValues(func() (*layout, error) {
			var part []int
			var err error
			if sw := cfg.Schwarz; sw != nil {
				// Additive Schwarz requires the rectangular ownership its
				// halo wiring is built around.
				part = precond.BoxPartition(sw.M, sw.Px, sw.Py)
			} else if part, err = Partition(p, cfg); err != nil {
				return nil, err
			}
			systems := dsys.Distribute(p.A, make([]float64, p.A.Rows), part, cfg.P)
			for _, s := range systems {
				s.B = nil // a reader fails at once instead of solving for zero
			}
			return &layout{part, systems}, nil
		})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	l, err := e.get()
	m.mu.Lock()
	if err == nil {
		e.lay = l
	} else if m.entries[key] == e {
		delete(m.entries, key)
	}
	m.mu.Unlock()
	return l, reused, err
}
