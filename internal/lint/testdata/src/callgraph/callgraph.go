// Fixture for the call-graph builder unit test: the three call kinds,
// recursion, a resolved method call, a method value, and an indirect
// call through a parameter.
package callgraph

func Leaf() {}

// Rec recurses: a self edge.
func Rec(n int) {
	if n > 0 {
		Rec(n - 1)
	}
}

// Caller exercises the three call kinds against the same callee.
func Caller() {
	Leaf()
	defer Leaf()
	go Leaf()
}

type T struct{}

func (T) M() {}

// MethodCalls: a resolved method call, a method value, an indirect call.
func MethodCalls(t T, f func()) {
	t.M()
	g := t.M
	_ = g
	f()
}
