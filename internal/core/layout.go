package core

import (
	"math"
	"sync"

	"parapre/internal/dsys"
	"parapre/internal/grid"
	"parapre/internal/precond"
)

// layout is the subdomain systems a row partition distributes: what set-up
// derives from a Problem before any preconditioner exists. Every session
// and cold solve that asks the same Problem for the same layoutKey shares
// it, so it is read-only and holds no right-hand side. The partition itself
// is not kept: the systems' GlobalIDs say which rank owns each row.
type layout struct {
	systems []*dsys.System
}

// layoutKey is what a layout depends on besides the problem: P and what the
// partitioner reads of the rest of the configuration. The general
// partitioner reads its seed; the box partitioner of a problem with a mesh
// reads neither seed nor machine; a problem without a mesh is always
// partitioned by the general one, whatever the scheme. With Schwarz the box
// (M, Px, Py) takes the place of scheme and seed.
type layoutKey struct {
	p      int
	scheme PartitionScheme
	seed   int64
	box    [3]int
}

// layoutKey returns the key of the layout cfg asks p for.
func (p *Problem) layoutKey(cfg Config) layoutKey {
	switch {
	case cfg.Schwarz != nil:
		sw := cfg.Schwarz
		return layoutKey{p: cfg.P, box: [3]int{sw.M, sw.Px, sw.Py}}
	case cfg.Scheme == PartitionSimple && p.Mesh != nil:
		return layoutKey{p: cfg.P, scheme: PartitionSimple}
	}
	return layoutKey{p: cfg.P, scheme: PartitionGeneral, seed: partSeed(cfg)}
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
// gets them. The matrix is re-read on every call and nothing built
// before an in-place edit is returned after it, so the result is always what
// a fresh Problem would give. A failed build is returned and not kept.
func (p *Problem) layout(cfg Config) (*layout, bool, error) {
	key := p.layoutKey(cfg)
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
			return &layout{systems}, nil
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

// Systems returns the subdomain systems set-up under cfg distributes: the
// ones a solve or session on p under cfg has already built, or a new
// layout that the next one reuses. They are shared and read-only, and hold
// no right-hand side.
func (p *Problem) Systems(cfg Config) ([]*dsys.System, error) {
	l, _, err := p.layout(cfg)
	if err != nil {
		return nil, err
	}
	return l.systems, nil
}
