package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
)

// CPUProfileGuard arbitrates the process-wide CPU profiler between a
// -cpuprofile file and the live server's /debug/pprof/profile endpoint:
// runtime/pprof supports exactly one active CPU profile, and without the
// guard the loser gets a confusing mid-run error (or, worse, a caller
// that ignores it and ships a silently truncated profile). Whoever
// Acquires first owns the profiler; the endpoint answers 409 Conflict
// with the owner's name while a file profile is active.
type CPUProfileGuard struct {
	owner atomic.Pointer[string]
}

// Acquire claims the CPU profiler for the named owner. It returns an
// error naming the current owner when the profiler is already claimed.
func (g *CPUProfileGuard) Acquire(owner string) error {
	if g == nil {
		return nil
	}
	if !g.owner.CompareAndSwap(nil, &owner) {
		cur := "another profile"
		if p := g.owner.Load(); p != nil {
			cur = *p
		}
		return fmt.Errorf("obs: CPU profiler already in use by %s", cur)
	}
	return nil
}

// Release returns the profiler. Releasing an unclaimed guard is a no-op.
func (g *CPUProfileGuard) Release() {
	if g != nil {
		g.owner.Store(nil)
	}
}

// ServerConfig wires a Server's surfaces. Nil sources disable their
// endpoint (404), so one server type covers ivbench (sweep metrics +
// progress) and ivsim (published machine snapshots, no progress).
type ServerConfig struct {
	// Addr is the listen address (":9090", "127.0.0.1:0", ...).
	Addr string
	// Snapshot supplies /metrics. It is called on server goroutines, so
	// it must be safe for concurrent use — a locked telemetry.Registry
	// over atomic-backed sources, or a Publisher's Latest.
	Snapshot func() telemetry.Snapshot
	// Progress supplies /progress: the sweep ledger's report
	// (sweep.Metrics.Progress).
	Progress func() sweep.ProgressReport
	// Profiles guards /debug/pprof/profile against a concurrently active
	// -cpuprofile file; nil leaves the endpoint unguarded.
	Profiles *CPUProfileGuard
}

// Server is the live observability endpoint of a running harness — the
// seed of the future ivd daemon's control surface.
type Server struct {
	lis  net.Listener
	srv  *http.Server
	done chan struct{}
	err  error
}

// StartServer listens on cfg.Addr and serves in the background. The
// returned server reports the bound address (useful with ":0") and is
// shut down with Close.
func StartServer(cfg ServerConfig) (*Server, error) {
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", cfg.Addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if cfg.Snapshot != nil {
		snap := cfg.Snapshot
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			// WritePrometheus only fails on writer errors, and a failed
			// response write cannot be reported to the client anyway.
			//ivlint:allow errdrop — http response write failure has no recovery beyond dropping the response
			_ = WritePrometheus(w, snap())
		})
	}
	if cfg.Progress != nil {
		prog := cfg.Progress
		mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(prog())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	guard := cfg.Profiles
	mux.HandleFunc("/debug/pprof/profile", func(w http.ResponseWriter, r *http.Request) {
		// Claim the profiler for the duration of this request so a file
		// profile started mid-request errors cleanly instead of racing.
		if err := guard.Acquire("/debug/pprof/profile"); err != nil {
			http.Error(w, err.Error()+" — retry after it finishes, or run without the file-profile flag", http.StatusConflict)
			return
		}
		defer guard.Release()
		pprof.Profile(w, r)
	})

	s := &Server{
		lis:  lis,
		srv:  &http.Server{Handler: mux},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(lis); err != nil && err != http.ErrServerClosed {
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns "http://<addr>".
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down, waiting briefly for in-flight requests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.err
	}
	return err
}

// Publisher decouples a single-threaded metrics source from concurrent
// readers: the owning goroutine (the simulation loop, via an op hook)
// Publishes snapshots at its own cadence, and server handlers read the
// latest one without ever touching live simulation state.
type Publisher struct {
	mu   sync.RWMutex
	snap telemetry.Snapshot
}

// Publish stores snap as the latest snapshot.
func (p *Publisher) Publish(snap telemetry.Snapshot) {
	p.mu.Lock()
	p.snap = snap
	p.mu.Unlock()
}

// Latest returns the most recently published snapshot (zero before the
// first Publish).
func (p *Publisher) Latest() telemetry.Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.snap
}
