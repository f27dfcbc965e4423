// nmsld is the resident NMSL network-manager daemon: a multi-tenant
// check/rollout service with a versioned JSON API.
//
// Where nmslcheck compiles, checks and exits, nmsld keeps each
// tenant's compiled specification and warm result cache resident, so
// the incremental machinery (delta checks over fingerprinted verdict
// caches) pays off across requests instead of being rebuilt per
// invocation.
//
// Usage:
//
//	nmsld [-addr a] [-state dir] [-max-tenants n] [-rate rps] [-burst n]
//	      [-admission n] [-queue n] [-workers n] [-cache-max n]
//	      [-flush d] [-trace-out f]
//
// The API is versioned under /v1 (see api/v1 for the frozen wire
// types):
//
//	GET    /v1/tenants                  list tenants
//	GET    /v1/tenants/{id}             tenant summary
//	PUT    /v1/tenants/{id}/spec        install/replace a specification
//	DELETE /v1/tenants/{id}             evict a tenant
//	POST   /v1/tenants/{id}/check       full consistency check
//	POST   /v1/tenants/{id}/delta-check incremental re-check
//	POST   /v1/tenants/{id}/generate    derive per-agent configurations
//	POST   /v1/tenants/{id}/rollout     install configs at a fleet
//	POST   /v1/tenants/{id}/verify-change  dry-run a proposed revision
//	                                    against change contracts
//
// plus /healthz, /metrics (Prometheus text), /debug/vars and
// /debug/pprof on the same listener.
//
// -state dir makes tenant state (accepted spec sources and result
// caches) durable with fsync'd atomic replacement; on restart tenants
// recompile and their caches reload, so the first post-restart check
// is already warm. SIGINT/SIGTERM drain in-flight requests and flush
// dirty caches before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/obs"
	"nmsl/internal/service"
)

// Connection limits. A client has readHeaderTimeout to send its request
// headers and readTimeout to send the whole request, body included (a
// 64 MB spec PUT fits at well under 1 MB/s), so a slow or stalled
// client cannot hold a connection and its goroutine open. readTimeout
// bounds the read only: once the body is in, net/http clears the
// connection's read deadline before the read it keeps open to notice a
// departing client, so a check or rollout that outlasts readTimeout
// keeps a live request context. An idle keep-alive connection is closed after
// idleTimeout, far above the gap between a working client's requests,
// so reused connections are not reaped under it. There is no write
// timeout: a check or rollout runs as long as its request context
// allows.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 5 * time.Minute
)

// newServer wraps the daemon's handler in the connection limits and the
// panic guard.
func newServer(h http.Handler, logw io.Writer) *http.Server {
	return &http.Server{
		Handler:           recoverPanics(h, logw),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// recoverPanics answers a request whose handler panicked with a 500
// carrying the api/v1 error envelope, and logs the panic with its
// stack, where net/http alone would drop the connection without a
// response. http.ErrAbortHandler keeps its meaning and still aborts.
func recoverPanics(h http.Handler, logw io.Writer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			fmt.Fprintf(logw, "nmsld: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(apiv1.NewError(http.StatusInternalServerError, "internal error"))
		}()
		h.ServeHTTP(w, r)
	})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the daemon; ready (when non-nil) receives the bound
// address once listening — tests use it with -addr 127.0.0.1:0.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("nmsld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:9380", "listen address")
	state := fs.String("state", "", "persist tenant state under this directory")
	maxTenants := fs.Int("max-tenants", 0, "cap on resident tenants (0 = unlimited)")
	rate := fs.Float64("rate", 0, "per-tenant sustained requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 8, "per-tenant burst size")
	admission := fs.Int("admission", 0, "concurrently executing checks (0 = default 8)")
	queue := fs.Int("queue", 64, "admission wait-queue length")
	workers := fs.Int("workers", 1, "default worker pool per check")
	cacheMax := fs.Int("cache-max", 0, "per-tenant result-cache entry cap (0 = unbounded)")
	flush := fs.Duration("flush", 2*time.Second, "background cache-flush interval (0 = on demand only)")
	traceOut := fs.String("trace-out", "", "append tracing spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ocli, err := obs.StartCLI("", *traceOut, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "nmsld: %v\n", err)
		return 2
	}
	if ocli != nil {
		defer ocli.Close()
	}

	svc, err := service.New(
		service.WithStateDir(*state),
		service.WithMaxTenants(*maxTenants),
		service.WithRateLimit(*rate, *burst),
		service.WithAdmission(*admission, *queue),
		service.WithCheckWorkers(*workers),
		service.WithCacheMaxEntries(*cacheMax),
		service.WithFlushInterval(*flush),
	)
	if err != nil {
		fmt.Fprintf(stderr, "nmsld: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "nmsld: %v\n", err)
		return 2
	}
	srv := newServer(svc.Handler(), stderr)
	fmt.Fprintf(stdout, "nmsld: listening on http://%s (%d tenants resident)\n",
		ln.Addr(), len(svc.TenantIDs()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "nmsld: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "nmsld: shutdown: %v\n", err)
			code = 1
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "nmsld: %v\n", err)
			code = 1
		}
	}
	if err := svc.Close(); err != nil {
		fmt.Fprintf(stderr, "nmsld: flushing state: %v\n", err)
		code = 1
	}
	return code
}
