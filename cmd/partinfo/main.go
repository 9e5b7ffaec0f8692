// Command partinfo inspects grid partitions: it partitions a test case's
// grid with the general (Metis-style) and simple (box) schemes and
// reports balance, edge cut and interface sizes — the quantities that
// drive the preconditioner behavior studied in the paper.
//
// Usage:
//
//	partinfo -case tc1-poisson2d -p 8 -size 65 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"

	"parapre/internal/cases"
	"parapre/internal/partition"
)

func main() {
	var (
		name = flag.String("case", "tc1-poisson2d", "test case name")
		p    = flag.Int("p", 8, "number of subdomains")
		size = flag.Int("size", 0, "grid resolution parameter (0 = case default)")
		seed = flag.Int64("seed", 1, "general partitioner seed (the paper's machine-dependent RNG)")
	)
	flag.Parse()

	tc, err := cases.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "partinfo: unknown case %q\n", *name)
		os.Exit(2)
	}
	sz := tc.DefaultSize
	if *size > 0 {
		sz = *size
	}
	prob := tc.Build(sz)
	mesh := prob.Mesh
	ptr, adj := mesh.NodeGraph()
	g := &partition.Graph{Ptr: ptr, Adj: adj}

	fmt.Printf("case %s: %d nodes, %d elements, %d graph edges\n",
		*name, mesh.NumNodes(), mesh.NumElems(), len(adj)/2)

	report := func(label string, part []int) {
		cut := partition.EdgeCut(g, part)
		sizes := partition.Sizes(part, *p)
		min, max := sizes[0], sizes[0]
		for _, s := range sizes {
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		// Interface nodes: nodes with a neighbor in another part.
		iface := 0
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(v) {
				if part[w] != part[v] {
					iface++
					break
				}
			}
		}
		fmt.Printf("%-22s cut=%-7d sizes=[%d..%d] imbalance=%.3f interface nodes=%d (%.1f%%)\n",
			label, cut, min, max, partition.Imbalance(part, *p), iface,
			100*float64(iface)/float64(g.NumVertices()))
	}

	gen, err := partition.General(g, *p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partinfo:", err)
		os.Exit(1)
	}
	report(fmt.Sprintf("general (seed %d):", *seed), gen)
	report("simple (boxes):", partition.Simple(mesh.X, mesh.Dim, *p))
}
