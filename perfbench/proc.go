package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vgiw/internal/fleet"
)

// daemon is one vgiwd child process listening on loopback.
type daemon struct {
	cmd  *exec.Cmd
	URL  string
	done chan struct{} // closed once the process has exited and been reaped
}

// announceWriter watches a daemon's stdout for the "listening on" line.
type announceWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1: receives the address once
	sent bool
}

func (a *announceWriter) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.sent {
		return len(p), nil
	}
	a.buf.Write(p)
	line, _, ok := bytes.Cut(a.buf.Bytes(), []byte("\n"))
	if !ok {
		return len(p), nil
	}
	a.sent = true
	_, addr, _ := strings.Cut(string(line), "listening on ")
	a.addr <- strings.TrimSpace(addr)
	return len(p), nil
}

// startDaemon boots vgiwd on an ephemeral loopback port with the given
// result store directory and waits until it reports ready. workers 0 keeps
// the daemon's default pool.
func startDaemon(ctx context.Context, bin, storeDir string, workers int) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-store-dir", storeDir, "-drain-timeout", "10s"}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	aw := &announceWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = aw
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vgiwd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(d.done)
	}()
	select {
	case addr := <-aw.addr:
		d.URL = "http://" + addr
	case <-d.done:
		return nil, fmt.Errorf("vgiwd exited before announcing its address")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("vgiwd did not announce its address")
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	c := &fleet.Client{Base: d.URL}
	for {
		if err := c.Ready(rctx); err == nil {
			return d, nil
		}
		select {
		case <-rctx.Done():
			d.stop()
			return nil, fmt.Errorf("vgiwd at %s never became ready", d.URL)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM (SIGKILL if it outlives the drain),
// waits for it to exit, and returns its peak resident set in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may already have exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // it may exit on its own meanwhile
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// peakRSSMB is the running daemon's peak resident set so far, in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
