// Package dist is the distributed-memory substrate standing in for the
// MPI runtimes of the paper's two parallel computers. Each "processor" is
// a goroutine holding a Comm handle; point-to-point messages travel over
// channels (with real blocking semantics, so protocol deadlocks would hang
// tests rather than pass silently), and collectives synchronize through a
// combining barrier.
//
// Because the reproduction host may have a single CPU core, wall-clock
// time cannot exhibit parallel speedup. Instead every Comm maintains a
// virtual clock in the standard LogP spirit: local computation advances
// the clock by flops/rate, a message advances the receiver to
// max(receiver, sender) + α + β·bytes, and a collective advances every
// participant to max(all) + ⌈log₂P⌉·(α + β·8). Iteration counts — the
// paper's primary metric — are unaffected by the model; only the reported
// times flow through it.
package dist

import (
	"math"
	"strings"
)

// Machine models one parallel computer: a per-process flop rate, the
// latency/bandwidth of its network, a background-load multiplier on
// compute time, and the partitioning seed (the paper notes the two
// machines produced different partitions from their different random
// number generators, changing the iteration counts; the seed reproduces
// that).
type Machine struct {
	Name     string
	FlopRate float64 // sustained sparse-kernel flops per second per process
	Latency  float64 // seconds per message (α)
	ByteTime float64 // seconds per byte (β)
	Load     float64 // compute-time multiplier ≥ 1; models a shared, loaded machine
	Seed     int64   // grid-partitioning seed used on this machine
}

// LinuxCluster models the paper's low-end cluster: Pentium III 1 GHz
// processors on fast (100 Mbit/s) Ethernet, used exclusively.
func LinuxCluster() *Machine {
	return &Machine{
		Name:     "LinuxCluster",
		FlopRate: 120e6,
		Latency:  80e-6,
		ByteTime: 80e-9, // ≈12.5 MB/s
		Load:     1,
		Seed:     1,
	}
}

// Origin3800 models the paper's high-end SGI Origin 3800: 500 MHz R14000
// processors on a fast NUMAlink interconnect, but heavily loaded during
// the experiments (the paper blames its poor wall-clock numbers on the
// load, not the hardware).
func Origin3800() *Machine {
	return &Machine{
		Name:     "Origin3800",
		FlopRate: 250e6,
		Latency:  4e-6,
		ByteTime: 3e-9, // ≈330 MB/s
		Load:     6,
		Seed:     2,
	}
}

// Origin3800Unloaded is the same hardware without the background load —
// what the paper says the machine "ought to" deliver. Used by ablation
// benches.
func Origin3800Unloaded() *Machine {
	m := Origin3800()
	m.Name = "Origin3800Unloaded"
	m.Load = 1
	return m
}

// machines lists the models under the spellings MachineByName accepts: the
// short one the CLIs document first, the model's own Name last.
var machines = []struct {
	names []string
	build func() *Machine
}{
	{[]string{"cluster", "LinuxCluster"}, LinuxCluster},
	{[]string{"origin", "Origin3800"}, Origin3800},
	{[]string{"Origin3800Unloaded"}, Origin3800Unloaded},
}

// MachineNames is every spelling MachineByName accepts, for a message or a
// flag's help.
func MachineNames() string {
	var all []string
	for _, m := range machines {
		all = append(all, strings.Join(m.names, " | "))
	}
	return strings.Join(all, ", ")
}

// MachineByName returns the machine model a user named — case is ignored —
// or an *UnknownMachineError that lists the names: a typo must not run on
// another model under the name it was given.
func MachineByName(name string) (*Machine, error) {
	for _, m := range machines {
		for _, n := range m.names {
			if strings.EqualFold(name, n) {
				return m.build(), nil
			}
		}
	}
	return nil, &UnknownMachineError{Name: name}
}

// computeTime returns the virtual seconds consumed by the given flop
// count on this machine.
func (m *Machine) computeTime(flops float64) float64 {
	return flops / m.FlopRate * m.Load
}

// messageTime returns the α + β·bytes cost of one message.
func (m *Machine) messageTime(bytes int) float64 {
	return m.Latency + float64(bytes)*m.ByteTime
}

// collectiveTime returns the cost of one reduction round over p processes
// carrying payload bytes.
func (m *Machine) collectiveTime(p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return rounds * (m.Latency + float64(bytes)*m.ByteTime)
}
