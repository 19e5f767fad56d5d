package main

// The daemon under test: a real homunculusd child process on a loopback
// port with its own state directory, plus the HTTP client the load
// generator shares (at most two connections — one per core of the
// machine the bounds were fixed on).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// maxConns caps the load generator's connections to the daemon.
const maxConns = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// live holds every daemon started and not yet waited for, so that
// killAll can end them on any way out of the benchmark.
var live = struct {
	sync.Mutex
	m map[*os.Process]chan struct{}
}{m: map[*os.Process]chan struct{}{}}

// killAll kills every live daemon and waits for each to exit.
func killAll() {
	live.Lock()
	procs := make(map[*os.Process]chan struct{}, len(live.m))
	for p, exited := range live.m {
		procs[p] = exited
	}
	live.Unlock()
	for p, exited := range procs {
		_ = p.Kill()
		<-exited
	}
}

type daemon struct {
	stateDir, logPath, base string
	cmd                     *exec.Cmd
	exited                  chan struct{}
	http                    *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches homunculusd on stateDir and blocks until
// /v1/healthz answers, returning how long that took. With requireOK the
// answer must also say "ok"; a restart may legitimately come up
// "degraded" when replay could not requeue everything it found.
func startDaemon(bin, stateDir string, client *http.Client, requireOK bool) (*daemon, time.Duration, error) {
	t0 := time.Now()
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		stateDir: stateDir, logPath: stateDir + ".log",
		base: fmt.Sprintf("http://127.0.0.1:%d", port), http: client,
	}
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-state-dir", stateDir, "-max-inflight", "2")
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d.exited = make(chan struct{})
	cmd, proc := d.cmd, d.cmd.Process
	live.Lock()
	live.m[proc] = d.exited
	live.Unlock()
	go func() {
		_ = cmd.Wait()
		live.Lock()
		delete(live.m, proc)
		live.Unlock()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h httpapi.HealthJSON
		if err := d.getJSON("/v1/healthz", &h); err == nil && (h.Status == "ok" || !requireOK) {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("homunculusd exited during start (log %s)", d.logPath)
		default:
		}
		sleepUntil(time.Now().Add(200 * time.Microsecond))
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("homunculusd not healthy after 30s (log %s)", d.logPath)
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM: drain HTTP, finish
// running compilations) and waits for it to exit.
func (d *daemon) stop() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("homunculusd ignored SIGTERM for 60s")
	}
	d.http.CloseIdleConnections()
	d.cmd = nil
	return nil
}

// kill ends the daemon immediately and waits for it.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func (d *daemon) health() (httpapi.HealthJSON, error) {
	var h httpapi.HealthJSON
	err := d.getJSON("/v1/healthz", &h)
	return h, err
}

// do sends one request and returns the status and full body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (d *daemon) getJSON(path string, out any) error {
	code, raw, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// postJSON posts body and decodes a response with the wanted status.
func (d *daemon) postJSON(path string, body []byte, want int, out any) error {
	code, raw, err := d.do(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// sseEvent is one received server-sent event, stamped on receipt.
type sseEvent struct {
	Name string
	Data []byte
	At   time.Time
}

// follow streams GET /v1/jobs/{id}/events, calling fn for every event
// as it arrives, until the terminal "state" event; it returns that
// event's job document.
func (d *daemon) follow(ctx context.Context, id string, fn func(sseEvent)) (httpapi.JobJSON, error) {
	var final httpapi.JobJSON
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return final, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return final, fmt.Errorf("events %s: %d %s", id, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var name string
	var buf []byte
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return final, fmt.Errorf("events %s: stream ended before a terminal state: %w", id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			buf = append(buf[:0], line[len("data: "):]...)
		case line == "":
			ev := sseEvent{Name: name, Data: append([]byte(nil), buf...), At: time.Now()}
			if fn != nil {
				fn(ev)
			}
			if name == "state" {
				// The server ends the stream after this event; reading to
				// EOF lets the connection go back to the pool.
				_, _ = io.Copy(io.Discard, rd)
				err := json.Unmarshal(ev.Data, &final)
				return final, err
			}
			name = ""
		}
	}
}
