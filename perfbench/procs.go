package main

import (
	"bufio"
	"bytes"
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

// deployment is one front scale-serve and two scale-shard workers, each a
// separate process listening on loopback.
type deployment struct {
	procs []*exec.Cmd
	logs  []*tailBuffer
	front string // base URL of the front server
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	ports := make([]int, 0, n)
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDeployment spawns the three processes with the fixed flags every
// workload shares and waits until each answers /healthz.
func startDeployment(binDir string) (*deployment, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	w1 := "127.0.0.1:" + strconv.Itoa(ports[1])
	w2 := "127.0.0.1:" + strconv.Itoa(ports[2])
	front := "127.0.0.1:" + strconv.Itoa(ports[0])
	d := &deployment{front: "http://" + front}
	specs := [][]string{
		{"scale-shard", "-addr", w1},
		{"scale-shard", "-addr", w2},
		{"scale-serve", "-addr", front, "-shards", w1 + "," + w2, "-dynamic", "cora", "-dyn-dim", "32"},
	}
	for _, sp := range specs {
		cmd := exec.Command(filepath.Join(binDir, sp[0]), sp[1:]...)
		log := &tailBuffer{max: 4096}
		cmd.Stdout, cmd.Stderr = log, log
		// A benchmark killed mid-run must not leave servers behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			d.stop()
			return nil, fmt.Errorf("start %s: %w", sp[0], err)
		}
		d.procs = append(d.procs, cmd)
		d.logs = append(d.logs, log)
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for _, addr := range []string{w1, w2, front} {
		for {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				d.stop()
				return nil, fmt.Errorf("%s not healthy after 30s: %v\n%s", addr, err, d.logText())
			}
			time.Sleep(time.Millisecond)
		}
	}
	client.CloseIdleConnections()
	return d, nil
}

// stop kills every process and waits until each has exited.
func (d *deployment) stop() {
	for _, c := range d.procs {
		_ = c.Process.Kill() // already exited is fine: Wait below reaps it
	}
	for _, c := range d.procs {
		_ = c.Wait() // a killed process reports its signal; nothing to act on
	}
	d.procs = nil
}

func (d *deployment) logText() string {
	var b strings.Builder
	for _, l := range d.logs {
		b.WriteString(l.String())
	}
	return b.String()
}

// cpuTicks returns user+system CPU of every process in clock ticks.
func (d *deployment) cpuTicks() (int64, error) {
	var total int64
	for _, c := range d.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		s := string(raw)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", c.Process.Pid)
		}
		u, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc/%d/stat", c.Process.Pid)
		}
		total += u + st
	}
	return total, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times; it
// is 100 on every Linux platform Go supports.
const clockTick = 100

// peakRSSMB sums VmHWM, the peak resident set, of every process.
func (d *deployment) peakRSSMB() (float64, error) {
	var kb int64
	for _, c := range d.procs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("bad VmHWM line %q", v)
				}
				kb += n
			}
		}
		f.Close()
	}
	return float64(kb) / 1024, nil
}

// tailBuffer keeps the last max bytes written to it (server logs, shown
// only when a deployment fails).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - t.max; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// hostSteal returns the machine-wide steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor ran someone else on our CPUs;
// it inflates latency without showing in any process's CPU time, so runs
// print it beside their latencies.
func hostSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
