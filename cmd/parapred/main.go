// Command parapred is the solver-as-a-service daemon: an HTTP/JSON
// gateway over the repository's distributed solver core. Submit a
// problem spec, stream the solve over SSE, cancel mid-iteration; see
// DESIGN.md §18 and the README quickstart.
//
// Usage:
//
//	parapred [-addr :8080] [-workers 2] [-queue-depth 8] [-ckpt-dir DIR] [-session-mem 256]
//
// Built sessions are kept for the next job with the same spec up to
// -session-mem MiB, least recently used out first; a spec too large for
// that budget is refused at submission.
//
// SIGTERM/SIGINT drains gracefully: admission stops (503), queued and
// running jobs finish, then the listener closes. With -ckpt-dir, jobs
// that checkpoint survive a hard kill and resume on the next start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parapre/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent solver workers")
	queueDepth := flag.Int("queue-depth", 8, "per-tenant queue capacity")
	ckptDir := flag.String("ckpt-dir", "", "checkpoint directory (enables kill-and-resume)")
	sessionMem := flag.Int64("session-mem", 256, "session cache budget in MiB (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful shutdown budget")
	flag.Parse()

	srv, err := gateway.New(gateway.Options{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CkptDir:      *ckptDir,
		SessionBytes: *sessionMem << 20,
	})
	if err != nil {
		log.Fatalf("parapred: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("parapred: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("parapred listening on %s (workers=%d queue-depth=%d)\n",
		ln.Addr(), *workers, *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatalf("parapred: %v", err)
	case s := <-sig:
		fmt.Printf("parapred: %v — draining\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("parapred: drain: %v (checkpoints preserved)", err)
	}
	_ = hs.Shutdown(ctx)
}
