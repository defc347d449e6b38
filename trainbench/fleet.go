package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// fleet is a set of scgnn-node processes serving on unix sockets in a
// private directory. stop reaps every process and removes the directory; it
// is safe to call more than once and from another goroutine (the run's
// deadline and signal handlers call it).
type fleet struct {
	dir   string
	addrs []string
	procs []*exec.Cmd
	exits []chan struct{} // closed once the matching process has been reaped

	stopOnce sync.Once
}

// startFleet spawns n nodes under parent. The socket paths are relative to
// the working directory, which the nodes inherit, so they stay short of the
// unix socket path limit however deep the working directory is.
func startFleet(nodeBin, parent string, n int) (*fleet, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, fmt.Errorf("fleet directory: %w", err)
	}
	dir, err := os.MkdirTemp(parent, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("fleet directory: %w", err)
	}
	f := &fleet{dir: dir}
	for i := 0; i < n; i++ {
		addr := filepath.Join(dir, fmt.Sprintf("n%d.sock", i))
		cmd := exec.Command(nodeBin, "-listen", addr)
		cmd.Stderr = os.Stderr
		// A benchmark killed outright must not leave nodes behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("spawn node %d: %w", i, err)
		}
		exited := make(chan struct{})
		go func() {
			_ = cmd.Wait() // a node killed by stop exits with a signal status
			close(exited)
		}()
		f.addrs = append(f.addrs, addr)
		f.procs = append(f.procs, cmd)
		f.exits = append(f.exits, exited)
	}
	return f, nil
}

// rssBytes returns the nodes' summed kernel RSS high-water marks.
func (f *fleet) rssBytes() (int64, error) {
	var total int64
	for i, cmd := range f.procs {
		hwm, err := vmHWM(strconv.Itoa(cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i, err)
		}
		total += hwm
	}
	return total, nil
}

// kill sends SIGKILL to node i.
func (f *fleet) kill(i int) {
	_ = f.procs[i].Process.Kill() // fails only if the node already exited
}

// stop gives the nodes a grace period to exit after a coordinator Shutdown,
// kills any still running, waits until every one is reaped and removes the
// socket directory.
func (f *fleet) stop() {
	f.stopOnce.Do(func() {
		graceEnd := time.Now().Add(5 * time.Second)
		for i, exited := range f.exits {
			select {
			case <-exited:
			case <-time.After(time.Until(graceEnd)):
				f.kill(i)
				<-exited
			}
		}
		os.RemoveAll(f.dir)
	})
}

// stopNow kills every node at once, then reaps them as stop does.
func (f *fleet) stopNow() {
	for i := range f.procs {
		f.kill(i)
	}
	f.stop()
}
