package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/gkserved from the checkout into dir. The go
// command does nothing when the binary is already up to date, so calling it
// on every run keeps the daemon in step with the source for a few hundred
// milliseconds of set-up.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "gkserved")
	cmd := exec.Command("go", "build", "-o", bin, "gkmeans/cmd/gkserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gkserved: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running gkserved process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	startup time.Duration // spawn until /healthz answered 200
	log     bytes.Buffer  // the daemon's stderr; read it only after exited is closed
	exited  chan struct{} // closed once the process has been reaped
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns gkserved with the given flags on a free loopback port
// and waits until it is healthy. The port is picked by binding and releasing
// it, so another process can take it in between; a daemon that dies at once
// is therefore tried again on a fresh port.
func startDaemon(bin string, args ...string) (d *daemon, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, err = startOnce(bin, args...); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startOnce(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	d.cmd.Stderr = &d.log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // "signal: killed" is the expected outcome
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
poll:
	for time.Since(t0) < 60*time.Second {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startup = time.Since(t0)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.kill()
	return nil, fmt.Errorf("gkserved %v did not become healthy:\n%s", args, d.log.String())
}

// kill sends SIGKILL — the crash the durability check is about — and
// returns once the process has been reaped.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU is the user+system CPU time a process has used so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func procCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	rest := string(blob)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procRSSMB is a process's resident set in MB, from /proc/<pid>/status.
func procRSSMB(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// selfCPU is this process's own user+system CPU time.
func selfCPU() time.Duration {
	d, err := procCPU(os.Getpid())
	if err != nil {
		return 0
	}
	return d
}
