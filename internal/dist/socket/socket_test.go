package socket_test

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parapre/internal/cases"
	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/dist/socket"
)

// world starts a hub plus p connected clients over a unix socket and
// returns them ready for transport traffic.
func world(t *testing.T, p int, opt socket.HubOptions) (*socket.Hub, []*socket.Client) {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "hub.sock")
	hub, err := socket.NewHub("unix", addr, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Shutdown)
	clients := make([]*socket.Client, p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			clients[r], errs[r] = socket.Dial("unix", addr, p, r, socket.Options{OpTimeout: 5 * time.Second})
		}(r)
	}
	if err := hub.Accept(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dial rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range clients {
			c.Close()
		}
	})
	return hub, clients
}

func TestSendRecvPreservesOrderAndPayload(t *testing.T) {
	_, cl := world(t, 3, socket.HubOptions{})
	const msgs = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			m := dist.Message{Tag: i, Time: float64(i) / 8, FDelay: 0.25, Data: []float64{float64(i), -float64(i)}}
			if err := cl[0].Send(0, 2, m); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			m, err := cl[2].Recv(2, 0)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if m.Tag != i || m.Time != float64(i)/8 || m.FDelay != 0.25 ||
				len(m.Data) != 2 || m.Data[0] != float64(i) || m.Data[1] != -float64(i) {
				t.Errorf("recv %d: got %+v", i, m)
				return
			}
		}
	}()
	wg.Wait()
}

func TestReduceFoldsInRankOrder(t *testing.T) {
	const p = 4
	_, cl := world(t, p, socket.HubOptions{})
	// Contributions chosen so the fold order matters in floating point;
	// the hub must reproduce the serial rank-order fold exactly.
	contrib := func(r int) []float64 {
		return []float64{1e16 * float64(r%2), 1, float64(r) * 1e-8}
	}
	want := append([]float64(nil), contrib(0)...)
	op := dist.ReduceOp(dist.ReduceSum)
	for r := 1; r < p; r++ {
		op(want, contrib(r))
	}

	results := make([][]float64, p)
	clocks := make([]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vec := contrib(r)
			maxT, err := cl[r].Reduce(r, vec, float64(r)+0.5, dist.ReduceSum)
			if err != nil {
				t.Errorf("reduce rank %d: %v", r, err)
				return
			}
			results[r] = vec
			clocks[r] = maxT
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		for i := range want {
			if math.Float64bits(results[r][i]) != math.Float64bits(want[i]) {
				t.Fatalf("rank %d element %d: %v, want %v (fold order differs from in-process reducer)", r, i, results[r][i], want[i])
			}
		}
		if clocks[r] != float64(p-1)+0.5 {
			t.Fatalf("rank %d maxT = %v, want %v", r, clocks[r], float64(p-1)+0.5)
		}
	}
}

func TestPeerGoneDrainsThenFails(t *testing.T) {
	_, cl := world(t, 2, socket.HubOptions{})
	// Rank 0 sends one message, then crashes by plan.
	if err := cl[0].Send(0, 1, dist.Message{Tag: 7, Data: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	cl[0].MarkCrashed(0)
	// The queued message must still be delivered before the failure.
	deadline := time.After(5 * time.Second)
	for {
		m, err := cl[1].Recv(1, 0)
		if err == nil {
			if m.Tag != 7 {
				t.Fatalf("drained message tag %d, want 7", m.Tag)
			}
			continue
		}
		if !errors.Is(err, dist.ErrPeerGone) {
			t.Fatalf("after drain: %v, want ErrPeerGone", err)
		}
		break
	}
	select {
	case <-deadline:
		t.Fatal("timed out waiting for peer-gone")
	default:
	}
	// Collectives can never complete with a dead rank.
	if _, err := cl[1].Reduce(1, []float64{1}, 0, dist.ReduceSum); !errors.Is(err, dist.ErrPeerGone) {
		t.Fatalf("reduce with dead peer: %v, want ErrPeerGone", err)
	}
}

func TestAbortWakesBlockedOperations(t *testing.T) {
	_, cl := world(t, 2, socket.HubOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := cl[1].Recv(1, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cl[0].Abort()
	select {
	case err := <-done:
		if !errors.Is(err, dist.ErrWorldAborted) {
			t.Fatalf("blocked recv after abort: %v, want ErrWorldAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not wake the blocked recv")
	}
	if err := cl[1].Send(1, 0, dist.Message{}); !errors.Is(err, dist.ErrWorldAborted) {
		t.Fatalf("send after abort: %v, want ErrWorldAborted", err)
	}
}

func TestOpTimeoutIsTypedAndDeadlineBounded(t *testing.T) {
	_, cl := world(t, 2, socket.HubOptions{})
	short := cl[1]
	// No message will ever come: the recv must fail at ~OpTimeout with a
	// typed, timeout-flagged OpError — not hang.
	start := time.Now()
	_, err := short.Recv(1, 0)
	var oe *socket.OpError
	if !errors.As(err, &oe) || !oe.Timeout {
		t.Fatalf("recv with silent peer: %v, want timeout *OpError", err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Second || elapsed > 30*time.Second {
		t.Fatalf("timeout fired after %v, configured 5s", elapsed)
	}
}

func TestCleanCloseIsNotADeath(t *testing.T) {
	var mu sync.Mutex
	var deaths []int
	hub, cl := world(t, 2, socket.HubOptions{OnDeath: func(rank int, err error) {
		mu.Lock()
		deaths = append(deaths, rank)
		mu.Unlock()
	}})
	for _, c := range cl {
		c.Close()
	}
	time.Sleep(100 * time.Millisecond)
	hub.Shutdown()
	mu.Lock()
	defer mu.Unlock()
	if len(deaths) != 0 {
		t.Fatalf("clean closes reported as deaths of ranks %v", deaths)
	}
}

func TestDroppedConnectionFiresOnDeath(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "hub.sock")
	died := make(chan int, 2)
	hub, err := socket.NewHub("unix", addr, 2, socket.HubOptions{
		OnDeath: func(rank int, err error) { died <- rank },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Shutdown()

	// Rank 1 is a well-behaved client; rank 0 is a raw connection that
	// says hello and then vanishes without a goodbye — a process death.
	var cl *socket.Client
	var dialErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, dialErr = socket.Dial("unix", addr, 2, 1, socket.Options{OpTimeout: 5 * time.Second})
	}()
	raw, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{1, 0, 0, 0, 0} // fHello, u32 rank 0
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(hello)))
	if _, err := raw.Write(append(hdr[:], hello...)); err != nil {
		t.Fatal(err)
	}
	if err := hub.Accept(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if dialErr != nil {
		t.Fatal(dialErr)
	}
	defer cl.Close()

	raw.Close() // SIGKILL stand-in: the connection drops mid-world
	select {
	case r := <-died:
		if r != 0 {
			t.Fatalf("death reported for rank %d, want 0", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dropped connection never reported as a death")
	}
	// The survivor's next receive from the dead rank fails typed.
	if _, err := cl.Recv(1, 0); !errors.Is(err, dist.ErrPeerGone) {
		t.Fatalf("recv from dead rank: %v, want ErrPeerGone", err)
	}
}

// TestSocketSolveBitIdenticalToInProcess is the transport-refactor
// acceptance gate: the same solve over OS processes' transport (here: P
// in-process clients against a real unix-socket hub) must reproduce the
// in-process channel transport bit for bit — iterations, residuals,
// history, and modeled clocks — and the hub-side FileWriter must leave a
// loadable checkpoint behind.
func TestSocketSolveBitIdenticalToInProcess(t *testing.T) {
	const p = 4
	c, err := cases.ByName("tc7-jump")
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(17)

	cfg := core.DefaultConfig(p, "Schur 1")
	cfg.Solver.RecordHistory = true
	base, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(t.TempDir(), "solve.ckpt")
	hub, cl := world(t, p, socket.HubOptions{Sink: ckpt.NewFileWriter(ckptPath, p)})
	defer hub.Shutdown()

	scfg := cfg
	scfg.CheckpointEvery = 10
	iters := make([]int, p)
	finals := make([]uint64, p)
	clocks := make([]float64, p)
	histories := make([][]float64, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, st, err := core.SolveRank(prob, scfg, r, cl[r], cl[r])
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			iters[r] = res.Iterations
			finals[r] = math.Float64bits(res.Final / res.Initial)
			clocks[r] = st.Clock
			histories[r] = res.History
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for r := 0; r < p; r++ {
		if iters[r] != base.Iterations {
			t.Fatalf("rank %d: %d iterations over socket, %d in-process", r, iters[r], base.Iterations)
		}
		if finals[r] != math.Float64bits(base.Residual) {
			t.Fatalf("rank %d: socket residual bits differ from in-process", r)
		}
		if len(histories[r]) != len(base.History) {
			t.Fatalf("rank %d: history length %d vs %d", r, len(histories[r]), len(base.History))
		}
		for i := range base.History {
			if math.Float64bits(histories[r][i]) != math.Float64bits(base.History[i]) {
				t.Fatalf("rank %d: history[%d] differs over socket", r, i)
			}
		}
		// SolveRank's stats carry the rank's full virtual clock (setup +
		// barrier + solve), so the bitwise reference is the in-process
		// per-rank clock, not Result.SolveTime (which subtracts setup).
		if math.Float64bits(clocks[r]) != math.Float64bits(base.PerRank[r].Clock) {
			t.Fatalf("rank %d: socket modeled clock %v, in-process %v", r, clocks[r], base.PerRank[r].Clock)
		}
	}

	ck, err := ckpt.Load(ckptPath)
	if err != nil {
		t.Fatalf("hub-side checkpoint: %v", err)
	}
	if ck.P() != p || ck.Iter == 0 {
		t.Fatalf("hub-side checkpoint P=%d iter=%d", ck.P(), ck.Iter)
	}
}
