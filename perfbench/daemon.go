package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one nmsld process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error // Wait's result, valid after done closes

	// gcCycles and gcPauseUS count the daemon's collections from its
	// GODEBUG=gctrace=1 lines (traced runs only).
	gcCycles  atomic.Int64
	gcPauseUS atomic.Int64
}

var (
	listenLine = regexp.MustCompile(`listening on (http://[0-9.:\[\]]+)`)
	gcLine     = regexp.MustCompile(`^gc \d+ @[0-9.]+s [0-9]+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)
)

// startDaemon runs nmsld with its default settings over stateDir and
// waits until it listens.
func startDaemon(bin, stateDir string, gctrace bool, stderr io.Writer) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", stateDir)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// The daemon must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting nmsld: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if m := gcLine.FindStringSubmatch(line); m != nil {
				a, _ := strconv.ParseFloat(m[1], 64) // the regexp admits only numbers
				b, _ := strconv.ParseFloat(m[2], 64)
				d.gcCycles.Add(1)
				d.gcPauseUS.Add(int64((a + b) * 1000))
				continue
			}
			if !strings.HasPrefix(line, "nmsld: shutting down") {
				fmt.Fprintln(stderr, "nmsld:", line)
			}
		}
	}()
	go func() {
		pipes.Wait() // Wait must not run before the pipes are drained
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("nmsld exited before listening: %v", d.err)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("nmsld did not listen within 60s")
	}
}

// stop asks the daemon to drain and flush its state, and waits.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("nmsld did not stop within 30s")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// apiClient talks to nmsld's api/v1 over at most conns connections.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string, conns int) *apiClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &apiClient{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// refused reports whether the daemon turned the request away (rate
// limit, admission queue full) rather than failing it.
func (e *statusError) refused() bool {
	return e.code == http.StatusTooManyRequests || e.code == http.StatusServiceUnavailable
}

func (c *apiClient) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	return json.Unmarshal(data, out)
}

// checkResp is the part of an api/v1 CheckResponse the benchmark reads.
// Optional fields stay optional: a daemon that omits "cache" (or adds
// fields such as "phases") still passes.
type checkResp struct {
	Generation int64 `json:"generation"`
	Report     struct {
		Consistent bool              `json:"consistent"`
		Violations []json.RawMessage `json:"violations"`
	} `json:"report"`
	Cache *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	DurationNS int64 `json:"duration_ns"`
}

type specResp struct {
	Generation int64 `json:"generation"`
}

type source struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

func specBody(name, text string) ([]byte, error) {
	return json.Marshal(struct {
		Sources []source `json:"sources"`
	}{[]source{{name, text}}})
}

func (c *apiClient) check(ctx context.Context, tenant string, delta bool) (*checkResp, error) {
	op := "check"
	if delta {
		op = "delta-check"
	}
	var r checkResp
	if err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/"+op, []byte("{}"), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func (c *apiClient) put(ctx context.Context, tenant string, body []byte) (*specResp, error) {
	var r specResp
	if err := c.do(ctx, http.MethodPut, "/v1/tenants/"+tenant+"/spec", body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
