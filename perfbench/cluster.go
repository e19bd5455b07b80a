package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"distbasics/internal/clientrpc"
)

// daemon is one server subprocess (basicskv serve / basicsjobd serve).
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// startDaemon runs bin with args, with env added to the benchmark's
// environment, logging to logPath.
func startDaemon(bin, logPath string, env []string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	// Take the daemon down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

// kill SIGKILLs the process and waits until it has been reaped.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, read
// while it is still running.
func (d *daemon) peakRSSMB() float64 { return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)) }

func vmHWM(statusPath string) float64 {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cluster is a set of daemons with their client addresses.
type cluster struct {
	procs   []*daemon
	clients []string
}

func (c *cluster) stop() {
	for _, p := range c.procs {
		p.kill()
	}
}

// stealSeconds is the CPU time the host has stolen from this machine
// so far, summed over its CPUs, from the "cpu" line of /proc/stat.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	st, _ := strconv.ParseFloat(f[8], 64)
	return st / clockTicks
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat CPU
// times: 100 on every Linux architecture Go supports.
const clockTicks = 100

func (c *cluster) peakRSSMB() float64 {
	total := 0.0
	for _, p := range c.procs {
		total += p.peakRSSMB()
	}
	return total
}

// allocAddrs reserves n distinct loopback addresses by binding
// ephemeral ports, holding them all until every one is chosen.
func allocAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// kvConfig is the basicskv cluster file: one shard, n processes,
// journals on.
type kvConfig struct {
	Shards   int        `json:"shards"`
	Peers    [][]string `json:"peers"`
	Clients  []string   `json:"clients"`
	Journals [][]string `json:"journals"`
}

func newKVConfig(dir string, n int) (kvConfig, error) {
	addrs, err := allocAddrs(2 * n)
	if err != nil {
		return kvConfig{}, err
	}
	cfg := kvConfig{Shards: 1, Peers: [][]string{addrs[:n]}, Clients: addrs[n:], Journals: [][]string{make([]string, n)}}
	for i := range cfg.Journals[0] {
		cfg.Journals[0][i] = filepath.Join(dir, fmt.Sprintf("kv%d.journal", i))
	}
	return cfg, nil
}

// startKVCluster spawns n `basicskv serve` processes.
func startKVCluster(bin, dir string, n int) (*cluster, error) {
	cfg, err := newKVConfig(dir, n)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "kv.json")
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, err
	}
	c := &cluster{clients: cfg.Clients}
	for i := 0; i < n; i++ {
		d, err := startDaemon(filepath.Join(bin, "basicskv"), filepath.Join(dir, fmt.Sprintf("kv%d.log", i)), nil,
			"serve", "-config", cfgPath, "-self", strconv.Itoa(i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, d)
	}
	return c, nil
}

// jobdConfig is the basicsjobd cluster file, journals on.
type jobdConfig struct {
	Peers    []string `json:"peers"`
	Clients  []string `json:"clients"`
	Journals []string `json:"journals"`
}

// startJobCluster spawns n `basicsjobd serve` processes, each with
// GOMAXPROCS=1. Five servers share the machine's few CPUs; with one P
// each, their Go schedulers spend less CPU spinning for work, and the
// CPU cost of a submit moved less from run to run on a 2-vCPU VM.
func startJobCluster(bin, dir string, n int) (*cluster, error) {
	addrs, err := allocAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	cfg := jobdConfig{Peers: addrs[:n], Clients: addrs[n:], Journals: make([]string, n)}
	for i := range cfg.Journals {
		cfg.Journals[i] = filepath.Join(dir, fmt.Sprintf("job%d.journal", i))
	}
	cfgPath := filepath.Join(dir, "jobd.json")
	if err := writeJSON(cfgPath, cfg); err != nil {
		return nil, err
	}
	c := &cluster{clients: cfg.Clients}
	for i := 0; i < n; i++ {
		d, err := startDaemon(filepath.Join(bin, "basicsjobd"), filepath.Join(dir, fmt.Sprintf("job%d.log", i)), []string{"GOMAXPROCS=1"},
			"serve", "-config", cfgPath, "-id", strconv.Itoa(i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, d)
	}
	return c, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// waitStat blocks until the process at addr answers a stat RPC.
func waitStat(addr string, limit time.Duration) (clientrpc.Response, error) {
	cl := clientrpc.NewClient(addr)
	defer cl.Close()
	end := time.Now().Add(limit)
	for {
		resp, err := cl.Stats(time.Second)
		if err == nil {
			return resp, nil
		}
		if time.Now().After(end) {
			return resp, fmt.Errorf("%s not serving after %v: %w", addr, limit, err)
		}
		cl.Close()
		time.Sleep(time.Millisecond)
	}
}

// statAll fetches every process's stat response.
func statAll(addrs []string) ([]clientrpc.Response, error) {
	out := make([]clientrpc.Response, len(addrs))
	for i, a := range addrs {
		r, err := waitStat(a, 5*time.Second)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
