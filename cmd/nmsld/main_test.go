package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	apiv1 "nmsl/api/v1"
	"nmsl/internal/netsim"
)

// startDaemon runs the daemon on a loopback port and returns its base
// URL plus a channel yielding the exit code after shutdown.
func startDaemon(t *testing.T, extra ...string) (string, chan int, *strings.Builder) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan int, 1)
	var out, errb strings.Builder
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(args, &out, &errb, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done, &errb
	case code := <-done:
		t.Fatalf("daemon exited %d before listening: %s", code, errb.String())
		return "", nil, nil
	}
}

// stopDaemon shuts a startDaemon daemon down and checks its exit code.
func stopDaemon(t *testing.T, done chan int, errb *strings.Builder) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

func putSpec(t *testing.T, base, id string, p netsim.Params) {
	t.Helper()
	req := apiv1.SpecRequest{Sources: []apiv1.Source{{Name: "net.nmsl", Text: netsim.Source(p)}}}
	blob, _ := json.Marshal(req)
	preq, err := http.NewRequest(http.MethodPut, base+"/v1/tenants/"+id+"/spec", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	preq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT spec = %d", resp.StatusCode)
	}
}

// TestDaemonServesAndShutsDown boots the daemon, exercises a check
// round trip over real TCP, and shuts it down with SIGTERM as an
// operator (or the kill-and-restart test below) would.
func TestDaemonServesAndShutsDown(t *testing.T) {
	base, done, errb := startDaemon(t)
	p := netsim.Params{Domains: 2, SystemsPerDomain: 2, Seed: 11}
	putSpec(t, base, "acme", p)

	resp, err := http.Post(base+"/v1/tenants/acme/check", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var chk apiv1.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&chk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !chk.Report.Consistent {
		t.Fatalf("check = %d, %+v", resp.StatusCode, chk.Report)
	}

	if resp, err := http.Get(base + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}

	stopDaemon(t, done, errb)
}

// TestDaemonRestartWarm is the end-to-end kill-and-restart proof at
// the binary level: run with -state, check, SIGTERM (flushes), start a
// second daemon over the same directory and assert its first check
// hits the reloaded cache.
func TestDaemonRestartWarm(t *testing.T) {
	state := t.TempDir()
	p := netsim.Params{Domains: 3, SystemsPerDomain: 3, InconsistencyRate: 0.25, Seed: 21}
	want := netsim.ExpectedViolations(p)

	base, done, errb := startDaemon(t, "-state", state)
	putSpec(t, base, "acme", p)
	resp, err := http.Post(base+"/v1/tenants/acme/check", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cold apiv1.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cold); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cold.Report.Violations) != want {
		t.Fatalf("cold check: %d violations, want %d", len(cold.Report.Violations), want)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-done; code != 0 {
		t.Fatalf("first daemon exit %d: %s", code, errb.String())
	}

	base2, done2, errb2 := startDaemon(t, "-state", state)
	resp2, err := http.Post(base2+"/v1/tenants/acme/check", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var warm apiv1.CheckResponse
	if err := json.NewDecoder(resp2.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(warm.Report.Violations) != want {
		t.Fatalf("post-restart check: %d violations, want %d", len(warm.Report.Violations), want)
	}
	if warm.Cache == nil || warm.Cache.Hits == 0 {
		t.Fatalf("post-restart check was cold: %+v", warm.Cache)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := <-done2; code != 0 {
		t.Fatalf("second daemon exit %d: %s", code, errb2.String())
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errb, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.0.0.1:bad"}, &out, &errb, nil); code != 2 {
		t.Fatalf("bad addr: exit %d, want 2", code)
	}
}
