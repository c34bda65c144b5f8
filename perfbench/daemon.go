package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one trustnetd process serving from its own directories.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	dir     string
	outDone chan struct{} // closed when the stdout reader hits EOF
}

// startDaemon execs bin with -data and -out under dir and returns once
// it has announced its listening address on stdout.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data", filepath.Join(dir, "data"),
		"-out", filepath.Join(dir, "out"),
	)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trustnetd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, outDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.outDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "trustnetd listening on "); ok {
				addrc <- a
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.outDone:
		d.kill()
		return nil, fmt.Errorf("trustnetd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("trustnetd did not listen within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// stop sends SIGTERM and waits for the drain to finish, killing the
// process if it does not exit within the timeout.
func (d *daemon) stop(timeout time.Duration) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.outDone:
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		<-d.outDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("trustnetd exit: %w", err)
	}
	return nil
}

// kill ends the process without a drain and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.outDone
	_ = d.cmd.Wait()
}

// peakRSSMiB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
