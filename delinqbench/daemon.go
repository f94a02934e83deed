package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// delinqBin is the CLI that run.sh builds; paths are relative to the
// checkout root the benchmark runs from.
const delinqBin = ".bench_build/delinq"

// daemon is one `delinq serve` process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	copied chan struct{}
	client *http.Client
}

// startDaemon launches `delinq serve` with extra flags and returns once
// /readyz answers 200, together with the time from launch to ready.
func startDaemon(client *http.Client, flags ...string) (*daemon, time.Duration, error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, flags...)
	d := &daemon{cmd: exec.Command(delinqBin, args...), copied: make(chan struct{}), client: client}
	d.cmd.Stderr = &d.stderr
	// Should the benchmark itself die, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br)
		close(d.copied)
	}()
	const prefix = "delinq serve: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.kill()
		return nil, 0, fmt.Errorf("daemon did not start (%q): %s", line, d.stderr.String())
	}
	d.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready after 30s: %v", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill ends the process at once and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		<-d.copied
		if err != nil {
			return fmt.Errorf("daemon exit: %v: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not drain within 30s")
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM) in
// MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for daemon pid %d", d.cmd.Process.Pid)
}

// metrics scrapes the daemon's /metrics counters and gauges.
func (d *daemon) metrics() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(blob), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// bootMedian launches the daemon n times with the same flags, keeps the
// last one running, and returns it with the median launch-to-ready time.
func bootMedian(client *http.Client, n int, flags ...string) (*daemon, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, setup, err := startDaemon(client, flags...)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		if i == n-1 {
			return d, median(setups), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}
