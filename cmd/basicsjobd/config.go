package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/jobq"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// Config is the cluster description shared by every node and the e2e
// driver: one entry per node in each list, all indexed by node id.
// Every node is both a queue replica and a worker.
type Config struct {
	// Peers are the transport (node-to-node) listen addresses.
	Peers []string `json:"peers"`
	// Clients are the client-RPC listen addresses.
	Clients []string `json:"clients"`
	// Journals are the per-node journal file paths ("" disables
	// persistence, losing kill -9 survival).
	Journals []string `json:"journals"`
	// Chaos is the fault schedule every node injects on its outbound
	// links (windows are in clock ticks since that node's boot).
	Chaos []ChaosConfig `json:"chaos,omitempty"`
	// UnitMS is the clock tick length in milliseconds (default 2).
	UnitMS int `json:"unit_ms,omitempty"`
	// Pipeline / MaxBatch tune the consensus replica (defaults from rsm).
	Pipeline int `json:"pipeline,omitempty"`
	MaxBatch int `json:"max_batch,omitempty"`
	// CompactRecords / CompactBytes are the journal auto-compaction
	// thresholds: once the active segment passes either one, the node
	// snapshots the queue state and truncates the journal behind it.
	// 0 takes rsm.DefaultCompactRecords / rsm.DefaultCompactBytes;
	// negative disables that threshold.
	CompactRecords int64 `json:"compact_records,omitempty"`
	CompactBytes   int64 `json:"compact_bytes,omitempty"`

	// Queue policy, in clock ticks (zero values take the daemon
	// defaults in node.go, not the jobq simulation-scale defaults).
	// GraceTicks is the continuous-suspicion age that lapses a worker's
	// lease; StepTicks the scheduler's backstop pulse period (queue
	// events wake the scheduler directly); ReproposeTicks how
	// long the scheduler waits before re-proposing an assign/expire
	// whose decision has not landed; RetryBase/RetryCap the
	// reassignment backoff curve; RetryBudget the default per-job
	// attempt budget.
	GraceTicks     int `json:"grace_ticks,omitempty"`
	StepTicks      int `json:"step_ticks,omitempty"`
	ReproposeTicks int `json:"repropose_ticks,omitempty"`
	MaxPerWorker   int `json:"max_per_worker,omitempty"`
	RetryBase      int `json:"retry_base,omitempty"`
	RetryCap       int `json:"retry_cap,omitempty"`
	RetryBudget    int `json:"retry_budget,omitempty"`
}

// ChaosConfig is one transport.ChaosRule in JSON form.
type ChaosConfig struct {
	Kind  string `json:"kind"` // drop, partition, isolate, delay, duplicate
	From  int64  `json:"from,omitempty"`
	Until int64  `json:"until,omitempty"`
	Pct   int    `json:"pct,omitempty"`
	Group []int  `json:"group,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

var chaosKinds = map[string]transport.ChaosKind{
	"drop":      transport.ChaosDrop,
	"partition": transport.ChaosPartition,
	"isolate":   transport.ChaosIsolate,
	"delay":     transport.ChaosDelay,
	"duplicate": transport.ChaosDuplicate,
}

// LoadConfig reads and validates a config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("basicsjobd: parse %s: %w", path, err)
	}
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("basicsjobd: %s: no peers", path)
	}
	if len(cfg.Clients) != n || len(cfg.Journals) != n {
		return nil, fmt.Errorf("basicsjobd: %s: peers/clients/journals lengths differ (%d/%d/%d)",
			path, n, len(cfg.Clients), len(cfg.Journals))
	}
	for _, cc := range cfg.Chaos {
		if _, ok := chaosKinds[cc.Kind]; !ok {
			return nil, fmt.Errorf("basicsjobd: %s: unknown chaos kind %q", path, cc.Kind)
		}
	}
	return &cfg, nil
}

// Write stores the config as JSON.
func (c *Config) Write(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Unit returns the configured clock tick duration.
func (c *Config) Unit() time.Duration {
	if c.UnitMS <= 0 {
		return transport.DefaultUnit
	}
	return time.Duration(c.UnitMS) * time.Millisecond
}

// jobqConfig assembles the queue policy for node id (the retry jitter
// stream is seeded per node so leaders that take over after a failover
// do not re-derive their predecessor's jitter).
func (c *Config) jobqConfig(id int) jobq.Config {
	return jobq.Config{
		Grace:          amp.Time(c.GraceTicks),
		StepEvery:      amp.Time(c.StepTicks),
		ReproposeEvery: amp.Time(c.ReproposeTicks),
		MaxPerWorker:   c.MaxPerWorker,
		Retry: jobq.RetryPolicy{
			Base:   amp.Time(c.RetryBase),
			Cap:    amp.Time(c.RetryCap),
			Budget: c.RetryBudget,
			Seed:   int64(id + 1),
		},
	}
}

// rsmOptions returns the replica tuning options this config carries.
func (c *Config) rsmOptions() []rsm.NodeOption {
	var opts []rsm.NodeOption
	if c.Pipeline > 0 {
		opts = append(opts, rsm.WithPipeline(c.Pipeline))
	}
	if c.MaxBatch > 0 {
		opts = append(opts, rsm.WithMaxBatch(c.MaxBatch))
	}
	return opts
}

// compaction resolves the configured auto-compaction thresholds
// (0 = rsm default, negative = disabled).
func (c *Config) compaction() (records, bytes int64) {
	return resolveThreshold(c.CompactRecords, rsm.DefaultCompactRecords),
		resolveThreshold(c.CompactBytes, rsm.DefaultCompactBytes)
}

func resolveThreshold(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// chaosRules converts the schedule for one sending node, giving each
// rule a per-sender stream so the cluster's faults decorrelate.
func (c *Config) chaosRules(sender int) []transport.ChaosRule {
	var rules []transport.ChaosRule
	for _, cc := range c.Chaos {
		rules = append(rules, transport.ChaosRule{
			Kind: chaosKinds[cc.Kind],
			From: amp.Time(cc.From), Until: amp.Time(cc.Until),
			Pct: cc.Pct, Group: append([]int(nil), cc.Group...),
			Seed: cc.Seed ^ int64(sender+1)<<8,
		})
	}
	return rules
}

// allocAddrs reserves n distinct localhost TCP addresses by binding
// ephemeral ports and releasing them.
func allocAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}
