package lint

// A small forward-dataflow engine over the CFGs of cfg.go. The lattice is
// the powerset of opaque facts with union join — waitleak's fact is "this
// goroutine spawn has not been joined yet". Must-style analyses are expressed in the same
// engine by negating the question: a fact that reaches Exit on ANY path
// is a path on which the kill (the join, the check) did not happen.

// Facts is a set of analysis facts. Keys are opaque to the engine;
// analyses typically use types.Object or ast.Node values.
type Facts map[any]bool

// NewFacts builds a fact set from the given keys.
func NewFacts(keys ...any) Facts {
	f := make(Facts, len(keys))
	for _, k := range keys {
		f[k] = true
	}
	return f
}

// Clone returns an independent copy of f.
func (f Facts) Clone() Facts {
	g := make(Facts, len(f))
	for k := range f {
		g[k] = true
	}
	return g
}

// Union adds every fact of g to f and reports whether f changed.
func (f Facts) Union(g Facts) bool {
	changed := false
	for k := range g {
		if !f[k] {
			f[k] = true
			changed = true
		}
	}
	return changed
}

// Equal reports whether f and g hold exactly the same facts.
func (f Facts) Equal(g Facts) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if !g[k] {
			return false
		}
	}
	return true
}

// Transfer maps a block's entry fact set to its exit fact set. It must
// not mutate in; analyses return a fresh (possibly shared-on-no-change)
// set.
type Transfer func(b *Block, in Facts) Facts

// FlowResult holds the fixpoint of one forward run: the fact set at the
// entry and exit of every reachable block.
type FlowResult struct {
	In  map[*Block]Facts
	Out map[*Block]Facts
}

// Forward runs the forward worklist iteration: starting from boundary
// facts at cfg.Entry, propagate through transfer with union join at
// every merge point until nothing changes. Unreachable blocks keep empty
// sets. Termination: fact sets only grow and the universe is finite (the
// facts an analysis generates from a finite function body).
func Forward(cfg *CFG, boundary Facts, transfer Transfer) *FlowResult {
	res := &FlowResult{In: map[*Block]Facts{}, Out: map[*Block]Facts{}}
	reach := cfg.Reachable()

	res.In[cfg.Entry] = boundary.Clone()
	work := []*Block{cfg.Entry}
	queued := map[*Block]bool{cfg.Entry: true}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		in := res.In[b]
		if in == nil {
			in = Facts{}
			res.In[b] = in
		}
		out := transfer(b, in)
		if out == nil {
			out = Facts{}
		}
		if prev := res.Out[b]; prev != nil && prev.Equal(out) {
			continue
		}
		res.Out[b] = out

		for _, s := range b.Succs {
			if !reach[s] {
				continue
			}
			sin := res.In[s]
			if sin == nil {
				sin = Facts{}
				res.In[s] = sin
			}
			changed := sin.Union(out)
			if (changed || res.Out[s] == nil) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return res
}
