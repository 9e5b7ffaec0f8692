package core

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Bytes returns the heap the problem keeps alive, in bytes: its matrix,
// right-hand side and mesh and every layout (partition and subdomain
// systems) its memo holds — what every session on the problem shares, and
// what a cache that holds sessions on it is charged once for. It is a walk
// over everything reachable from those, not a sum a package has to keep up
// to date: slices count at their capacity, and an array reached twice
// counts once. Memory captured by a closure is out of its sight;
// TestSessionBytesMatchesHeap holds Bytes and Session.Bytes together to the
// measured heap. The value rises when a session or cold solve adds a layout.
func (p *Problem) Bytes() int64 {
	held, _ := footprint(p.roots()...)
	return held
}

// roots is what Problem.Bytes walks.
func (p *Problem) roots() []any {
	roots := []any{p.A, p.B, p.Mesh}
	for _, l := range p.memo.layouts() {
		roots = append(roots, l)
	}
	return roots
}

// Bytes returns the heap the session keeps alive beyond its problem's
// Bytes, in bytes: the per-rank preconditioners, walked with everything
// the problem holds already seen, so that an array a preconditioner shares
// with the matrix or a layout (the systems it points back to, a window onto
// a subdomain matrix) adds nothing. A session on a problem whose memo no
// longer holds its layout (the matrix was edited in place) is charged the
// layout too. What an Apply works in — inner Krylov bases, permuted and
// enlarged vectors — comes from pools the walk skips and lives only while
// a solve runs, and every halo's staging buffer is sized with its pattern,
// so the value is fixed once the session is built
// (TestSessionBytesSteadyAcrossSolves). The one exception is a product's
// row split with more than one worker, cached on its first parallel pass:
// tens of bytes per matrix of at least sparse.ParMinNNZ entries. Bytes
// waits for the session's running solves, which write the preconditioners'
// recorded exchange errors and lease the halo buffers.
func (s *Session) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := newWalker()
	base := w.count(s.prob.roots()...)
	return w.count(s.lay, s.pcs) - base
}

// footprint walks everything reachable from roots and returns the bytes it
// holds (slices at capacity) and the bytes of them in use (slices at
// length). Every object is an address range; the union of the ranges is the
// count, so aliases, sub-slices and pointers into a counted array add
// nothing. sync.Pool contents belong to the collector and are skipped;
// funcs, channels and unsafe pointers are opaque.
func footprint(roots ...any) (held, used int64) {
	w := newWalker()
	held = w.count(roots...)
	return held, union(w.used) + w.loose
}

func newWalker() *walker {
	return &walker{seen: map[visit]struct{}{}, ptrs: map[reflect.Type]bool{}}
}

// count walks roots on from where the walker stands and returns the bytes
// held by everything walked so far.
func (w *walker) count(roots ...any) int64 {
	for _, r := range roots {
		w.walk(reflect.ValueOf(r))
	}
	return union(w.held) + w.loose
}

type span struct{ lo, hi uintptr }

// visit identifies a walked object: its address, its type (a struct and
// its first field share an address) and, for a slice, its length.
type visit struct {
	p unsafe.Pointer
	t reflect.Type
	n int
}

type walker struct {
	held, used []span
	loose      int64 // storage without an address to merge by: map buckets, boxed values
	seen       map[visit]struct{}
	ptrs       map[reflect.Type]bool // hasPointers, memoized

	// slice, when set, sees every non-empty slice the walk reaches.
	slice func(reflect.Value)
}

func (w *walker) add(p unsafe.Pointer, held, used uintptr) {
	if held > 0 {
		w.held = append(w.held, span{uintptr(p), uintptr(p) + held})
	}
	if used > 0 {
		w.used = append(w.used, span{uintptr(p), uintptr(p) + used})
	}
}

// first reports whether the object has not been walked yet, and marks it.
func (w *walker) first(p unsafe.Pointer, t reflect.Type, n int) bool {
	k := visit{p, t, n}
	if _, ok := w.seen[k]; ok {
		return false
	}
	w.seen[k] = struct{}{}
	return true
}

var poolType = reflect.TypeOf(sync.Pool{})

func (w *walker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || !w.first(v.UnsafePointer(), v.Type(), 0) {
			return
		}
		size := v.Type().Elem().Size()
		w.add(v.UnsafePointer(), size, size)
		w.walk(v.Elem())
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		if w.slice != nil {
			w.slice(v)
		}
		es := v.Type().Elem().Size()
		w.add(v.UnsafePointer(), uintptr(v.Cap())*es, uintptr(v.Len())*es)
		if w.hasPointers(v.Type().Elem()) && w.first(v.UnsafePointer(), v.Type(), v.Len()) {
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i))
			}
		}
	case reflect.String:
		s := v.String()
		w.add(unsafe.Pointer(unsafe.StringData(s)), uintptr(len(s)), uintptr(len(s)))
	case reflect.Struct:
		t := v.Type()
		if t == poolType {
			return
		}
		if t.PkgPath() == "sync/atomic" && strings.HasPrefix(t.Name(), "Pointer[") {
			// atomic.Pointer[T] is {_ [0]*T; _ noCopy; v unsafe.Pointer}: the
			// first field names the type the last one points to (a runtime
			// that lays it out otherwise fails TestFootprintCountsEachByteOnce).
			// Loaded as its owner stores it: a lazily built cache may be filling.
			if t.NumField() != 3 || t.Field(0).Type.Kind() != reflect.Array || t.Field(2).Type.Kind() != reflect.UnsafePointer {
				return
			}
			var p unsafe.Pointer
			if v.CanAddr() {
				p = atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(v.Field(2).UnsafeAddr())))
			} else {
				p = v.Field(2).UnsafePointer() // a copy: nothing stores into it
			}
			if p != nil {
				w.walk(reflect.NewAt(t.Field(0).Type.Elem().Elem(), p))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	case reflect.Array:
		if w.hasPointers(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i))
			}
		}
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		e := v.Elem()
		switch e.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		default:
			w.loose += int64(e.Type().Size()) // boxed: a copy on the heap
		}
		w.walk(e)
	case reflect.Map:
		if v.IsNil() || !w.first(v.UnsafePointer(), v.Type(), 0) {
			return
		}
		// Keys, values and a control byte per slot at the runtime's 7/8
		// maximum load: an estimate, the runtime does not publish more.
		slot := int64(v.Type().Key().Size()+v.Type().Elem().Size()) + 1
		w.loose += slot * int64(v.Len()) * 8 / 7
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key())
			w.walk(it.Value())
		}
	}
}

func (w *walker) hasPointers(t reflect.Type) bool {
	if has, ok := w.ptrs[t]; ok {
		return has
	}
	has := true
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		has = false
	case reflect.Array:
		has = t.Len() > 0 && w.hasPointers(t.Elem())
	case reflect.Struct:
		has = false
		for i := 0; i < t.NumField() && !has; i++ {
			has = w.hasPointers(t.Field(i).Type)
		}
	}
	w.ptrs[t] = has
	return has
}

// union returns the total length of the union of the spans (reordered).
func union(s []span) int64 {
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	var total int64
	var end uintptr
	for _, x := range s {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			total += int64(x.hi - end)
			end = x.hi
		}
	}
	return total
}
