package main

import (
	"bytes"
	"errors"
	"fmt"
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
)

// findRoot walks up from the working directory to the root of the main
// module — the directory whose go.mod declares "module spatialhist".
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, _ := os.ReadFile(filepath.Join(dir, "go.mod"))
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == "module spatialhist" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: run from inside the spatialhist repository (no go.mod declaring module spatialhist above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/geobrowsed from source into the build directory.
// The compile is cached, so only the first run in a checkout pays for it.
func buildServer(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "bin", "geobrowsed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/geobrowsed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building geobrowsed: %v\n%s", err, out)
	}
	return bin, nil
}

// children tracks every live child so that any exit path — return, error,
// SIGINT — can kill and reap them.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// child is one geobrowsed process under measurement.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	ready   time.Duration
	log     *os.File
	exited  chan struct{} // closed once the process has been reaped
	stopped sync.Once
}

// freePort asks the kernel for an unused loopback port. The port is closed
// again before the child binds it; a lost race shows up as a start failure
// and the caller retries.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches bin with args plus a listen address on a free port,
// and waits for the first 200 from /healthz. ready is the time from exec
// to that answer: what a user waits before the first browse.
func startChild(bin, logPath string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := startChildOnce(bin, logPath, args)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func startChildOnce(bin, logPath string, args []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-report", "0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the child if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(c.exited) }()
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.ready = time.Since(start)
				return c, nil
			}
		}
		select {
		case <-c.exited:
			c.stop()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("geobrowsed exited before it was ready:\n%s", lastLines(tail, 5))
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("geobrowsed not ready after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func lastLines(data []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// stop kills the child and waits until it has ended. SIGKILL, not a
// graceful shutdown: the crash-recovery measurement restarts on exactly
// the bytes the store had flushed.
func (c *child) stop() {
	c.stopped.Do(func() {
		c.cmd.Process.Kill()
		<-c.exited
		c.log.Close()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
	})
}

// peakRSSMB reads a process's high-water resident set from /proc.
func peakRSSMB(pid int) float64 { return procStatusMB(pid, "VmHWM:") }

// currentRSSMB reads a process's resident set from /proc.
func currentRSSMB(pid int) float64 { return procStatusMB(pid, "VmRSS:") }

func procStatusMB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds reads a process's user+system CPU time from /proc (clock
// ticks are 1/100 s on every Linux platform Go supports).
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}
