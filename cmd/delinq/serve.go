// The serve command: run the analysis daemon until SIGINT/SIGTERM,
// then drain gracefully — readiness flips immediately, in-flight
// requests get a grace period, stragglers are aborted via context
// cancellation at the drain deadline.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"delinq/internal/server"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxInflight := fs.Int("max-inflight", 8, "max concurrently executing requests")
	queue := fs.Int("queue", 32, "max requests waiting for a slot before shedding")
	reqTimeout := fs.Duration("req-timeout", 0, "per-request pipeline deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
	cacheEntries := fs.Int("cache-entries", 0, "result-cache entry cap (0 = default)")
	cacheBytes := fs.Int64("cache-bytes", 0, "result-cache byte cap (0 = default)")
	stateDir := fs.String("state-dir", "", "persist the result cache in this directory (crash-safe; empty = volatile)")
	isolate := fs.Bool("isolate", false, "execute analyze/run fills in sandboxed subprocess workers")
	workers := fs.Int("workers", 0, "sandbox worker count (0 = max-inflight; needs -isolate)")
	workerMem := fs.Int64("worker-mem", 0, "per-worker memory ceiling in bytes (0 = 512 MiB, -1 = none; needs -isolate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("serve takes no positional arguments")
	}
	if *maxInflight < 1 {
		return usagef("serve -max-inflight wants a positive count, got %d", *maxInflight)
	}
	if *queue < 0 {
		return usagef("serve -queue wants a non-negative count, got %d", *queue)
	}
	if *reqTimeout < 0 {
		return usagef("serve -req-timeout wants a non-negative duration, got %v", *reqTimeout)
	}
	if *drainTimeout <= 0 {
		// A zero grace period would abort every in-flight request the
		// instant a drain starts — never what an operator means.
		return usagef("serve -drain-timeout wants a positive duration, got %v", *drainTimeout)
	}
	if *cacheEntries < 0 {
		return usagef("serve -cache-entries wants a non-negative count, got %d", *cacheEntries)
	}
	if *cacheBytes < 0 {
		return usagef("serve -cache-bytes wants a non-negative size, got %d", *cacheBytes)
	}
	if !*isolate {
		if *workers != 0 {
			return usagef("serve -workers needs -isolate")
		}
		if *workerMem != 0 {
			return usagef("serve -worker-mem needs -isolate")
		}
	}
	if *workers < 0 {
		return usagef("serve -workers wants a non-negative count, got %d", *workers)
	}
	if *workerMem < -1 {
		return usagef("serve -worker-mem wants a size in bytes, 0 (default) or -1 (none), got %d", *workerMem)
	}

	cfgQueue := *queue
	if cfgQueue == 0 {
		cfgQueue = -1 // Config treats 0 as "use the default"; -1 means no queue
	}
	s := server.New(server.Config{
		Addr:         *addr,
		MaxInflight:  *maxInflight,
		Queue:        cfgQueue,
		ReqTimeout:   *reqTimeout,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		StateDir:     *stateDir,
		Isolate:      *isolate,
		Workers:      *workers,
		WorkerMem:    *workerMem,
	})
	if err := s.OpenState(); err != nil {
		return fmt.Errorf("serve: durable state: %w", err)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	errCh := make(chan error, 1)
	go func() {
		errCh <- s.ListenAndServe(func(a net.Addr) {
			fmt.Printf("delinq serve: listening on %s\n", a)
		})
	}()

	select {
	case err := <-errCh:
		// The listener died on its own (bad address, port in use).
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "delinq serve: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "delinq serve: drain deadline exceeded, stragglers aborted")
		}
		<-errCh // Serve returns nil after a graceful shutdown
		fmt.Fprintln(os.Stderr, "delinq serve: stopped")
		return nil
	}
}
