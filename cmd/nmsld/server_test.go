package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/netsim"
	"nmsl/internal/obs"
	"nmsl/internal/service"
)

// A slowloris client trickles header bytes to hold a connection open
// forever; the header deadline is absolute, so the daemon closes the
// connection once readHeaderTimeout has passed however steadily the
// client trickles, and keeps serving everyone else.
func TestDaemonDropsSlowlorisClient(t *testing.T) {
	base, done, errb := startDaemon(t)
	defer stopDaemon(t, done, errb)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\nHost: nmsld\r\n"); err != nil {
		t.Fatal(err)
	}
	stopTrickle := make(chan struct{})
	defer close(stopTrickle)
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopTrickle:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte("X-Slow: 1\r\n")); err != nil {
					return
				}
			}
		}
	}()
	limit := readHeaderTimeout + 5*time.Second
	if err := conn.SetReadDeadline(time.Now().Add(limit)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the read
	// side must end well before the test's own deadline.
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection still open after %v of trickled headers", limit)
			}
			break
		}
	}
	if held := time.Since(start); held < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", held, readHeaderTimeout)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz after slowloris: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after slowloris = %d", resp.StatusCode)
	}
}

// shortReadServer serves h through the daemon's own server (limits and
// panic guard) with the request read deadline shortened to d.
func shortReadServer(t *testing.T, h http.Handler, d time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newServer(h, io.Discard)
	if ts.Config.ReadTimeout != readTimeout {
		t.Fatalf("daemon ReadTimeout %v, want %v", ts.Config.ReadTimeout, readTimeout)
	}
	ts.Config.ReadTimeout = d
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// readTimeout bounds reading the request only. A handler that runs far
// past it — a rollout over a slow fleet, a check queued for admission —
// keeps a live request context, whether or not the request had a body.
func TestHandlerOutlivesReadTimeout(t *testing.T) {
	const d = 100 * time.Millisecond
	ts := shortReadServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
			http.Error(w, "context ended: "+r.Context().Err().Error(), http.StatusServiceUnavailable)
		case <-time.After(5 * d):
			w.WriteHeader(http.StatusOK)
		}
	}), d)
	for _, body := range []string{`{"workers": 2}`, ""} {
		resp, err := ts.Client().Post(ts.URL+"/v1/tenants/t/rollout", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %q: %d %s, want the handler to finish with a live context", body, resp.StatusCode, msg)
		}
	}
}

// A client trickling its request body is cut off at the request read
// deadline however steadily it trickles.
func TestDaemonCutsTrickledBody(t *testing.T) {
	const d = 300 * time.Millisecond
	svc, err := service.New(service.WithMetrics(obs.Disabled))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := shortReadServer(t, svc.Handler(), d)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprint(conn, "PUT /v1/tenants/acme/spec HTTP/1.1\r\nHost: nmsld\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")
	stopTrickle := make(chan struct{})
	defer close(stopTrickle)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopTrickle:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return
				}
			}
		}
	}()
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The daemon answers 400 and closes; the read side must end well
	// before the test's own deadline.
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("connection still open 10 s into a trickled body")
			}
			break
		}
	}
	if held := time.Since(start); held < d {
		t.Fatalf("connection closed after %v, before the %v read deadline", held, d)
	}
}

// A body cut short of its Content-Length is a client error answered
// with the v1 error envelope, not a hang or a crash; the daemon then
// serves the same route normally.
func TestDaemonTruncatedBody(t *testing.T) {
	base, done, errb := startDaemon(t)
	defer stopDaemon(t, done, errb)

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"sources": [{"name": "a.nmsl", "text": "proc`
	fmt.Fprintf(conn, "PUT /v1/tenants/acme/spec HTTP/1.1\r\nHost: nmsld\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body)+1000, body)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a truncated body: %v", err)
	}
	defer resp.Body.Close()
	var e apiv1.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Code != http.StatusBadRequest {
		t.Fatalf("truncated body = %d %+v, want 400", resp.StatusCode, e)
	}

	putSpec(t, base, "acme", netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 11})
}

func TestRecoverPanicsAnswers500(t *testing.T) {
	var logb strings.Builder
	h := recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), &logb)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/t/check", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e apiv1.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != http.StatusInternalServerError || e.APIVersion != apiv1.Version {
		t.Fatalf("body %q (%v), want the v1 error envelope", rec.Body.String(), err)
	}
	if !strings.Contains(logb.String(), "boom") || !strings.Contains(logb.String(), "/v1/tenants/t/check") {
		t.Fatalf("panic not logged with its route: %q", logb.String())
	}

	// http.ErrAbortHandler is net/http's own abort signal and must pass
	// through untouched.
	abort := recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), &logb)
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-raised", p)
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	t.Fatal("ErrAbortHandler was swallowed")
}
