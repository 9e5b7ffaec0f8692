package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type fpNode struct {
	vals []float64
	next *fpNode
}

// The walk counts address ranges, not references: an array reached through
// two slices, a sub-slice, a pointer to one of its elements or a cycle is
// counted once, at its capacity; what hangs behind an atomic.Pointer or an
// interface is reached, what sits in a sync.Pool is not.
func TestFootprintCountsEachByteOnce(t *testing.T) {
	const word = int64(unsafe.Sizeof(uintptr(0)))
	arr := make([]float64, 60, 100)
	for _, tc := range []struct {
		name       string
		root       any
		held, used int64
	}{
		{"slice at capacity", arr, 800, 480},
		{"aliases", [][]float64{arr, arr[:10], arr[20:40]}, 800 + 3*3*word, 480 + 3*3*word},
		{"element pointer", struct {
			a []float64
			p *float64
		}{arr, &arr[5]}, 800, 480},
		{"nil and empty", struct {
			a []int
			p *fpNode
			m map[int]int
			i any
		}{}, 0, 0},
	} {
		held, used := footprint(tc.root)
		if held != tc.held || used != tc.used {
			t.Errorf("%s: held %d used %d, want %d and %d", tc.name, held, used, tc.held, tc.used)
		}
	}

	a, b := &fpNode{vals: make([]float64, 8)}, &fpNode{vals: make([]float64, 4)}
	a.next, b.next = b, a
	node := int64(unsafe.Sizeof(fpNode{}))
	if held, _ := footprint(a); held != 2*node+96 {
		t.Errorf("cycle: held %d, want %d", held, 2*node+96)
	}

	var cache struct {
		lazy atomic.Pointer[fpNode]
		pool sync.Pool
		box  any
	}
	cache.lazy.Store(a)
	cache.pool.Put(&fpNode{vals: make([]float64, 1000)})
	cache.box = [4]float64{}
	if held, _ := footprint(&cache); held != int64(unsafe.Sizeof(cache))+2*node+96+32 {
		t.Errorf("atomic.Pointer, sync.Pool, boxed value: held %d, want %d",
			held, int64(unsafe.Sizeof(cache))+2*node+96+32)
	}

	m := map[int][]float64{1: make([]float64, 10), 2: make([]float64, 20)}
	if held, _ := footprint(m); held < 240 || held > 240+256 {
		t.Errorf("map: held %d, want the 240 bytes of its values and a little for its slots", held)
	}
}
