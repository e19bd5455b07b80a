package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"distbasics/internal/check"
	"distbasics/internal/clientrpc"
	"distbasics/internal/kv"
)

// kv-write and kv-read shape: a 3-process, 1-shard, journaled basicskv
// cluster; both client connections go to process 0, the Ω leader of a
// healthy cluster. No message delay is injected.
const (
	kvProcs      = 3
	kvConns      = 2
	kvKeys       = 4096
	kvPutRate    = 150.0  // kv-write phase A: about a quarter of put capacity
	kvMixRate    = 2500.0 // kv-read phase A
	kvReadFrac   = 0.95
	kvSetups     = 9 // set-ups per run; setup_s is their median
	kvRounds     = 3 // the last kvRounds set-ups each carry a share of the load
	putDepth     = 8 // outstanding requests per connection at saturation
	getDepth     = 32
	failoverRate = 100.0
	replyTimeout = 10 * time.Second
	// leaseFast is the latency below which a get is taken to have been
	// served from the leader's read lease rather than through consensus.
	leaseFast = 2 * time.Millisecond
	// sampleEvery thins the keys whose histories are checked for
	// linearizability; the whole history gets the cheaper check.
	sampleEvery = 4
)

// kvOp is one generated request; id is unique in the run, and a put
// writes its id as the value, so every written value is unique.
type kvOp struct {
	id   int64
	get  bool
	key  string
	line []byte
}

func kvKey(i int) string { return fmt.Sprintf("%02x-k%04d", (i*37)%256, i) }

// sampledKey selects the keys whose histories are checked for
// linearizability: one in sampleEvery.
func sampledKey(key string) bool {
	i, _ := strconv.Atoi(key[len(key)-4:])
	return i%sampleEvery == 0
}

// newKVOp draws one request. Gets carry their id too; the kv host
// ignores a get's value, and the traced run uses it to join the
// server's handler span to the client's.
func newKVOp(rng *rand.Rand, id int64, readFrac float64) kvOp {
	op := kvOp{id: id, get: rng.Float64() < readFrac, key: kvKey(rng.Intn(kvKeys))}
	verb := "put"
	if op.get {
		verb = "get"
	}
	op.line = []byte(`{"op":"` + verb + `","key":"` + op.key + `","val":` + strconv.FormatInt(id, 10) + `}`)
	return op
}

// histOp is one completed (or failed) request in the checked history.
type histOp struct {
	kvOp
	call, ret time.Time
	ok        bool
	val       any // a get's result
	latency   time.Duration
	late      time.Duration
}

func toHist(op kvOp, d Done) histOp {
	h := histOp{kvOp: op, call: d.Sent, ret: d.Replied, latency: d.Latency(), late: d.Late()}
	if d.Err == nil {
		var resp clientrpc.Response
		if json.Unmarshal(d.Reply, &resp) == nil && resp.OK {
			h.ok, h.val = true, clientrpc.NormalizeVal(resp.Val)
		}
	}
	if !h.ok {
		h.latency = replyTimeout // a failed request misses any latency limit
	}
	return h
}

// kvBackend is the cluster under load: daemons in subprocesses for the
// end-to-end run, or the same host code in this process for the traced
// run, so handler spans can be taken around Host.Handle.
type kvBackend interface {
	clients() []string
	kill(i int)
	stop()
	peakRSSMB() float64
}

type procKV struct{ *cluster }

func (c procKV) clients() []string { return c.cluster.clients }
func (c procKV) kill(i int)        { c.procs[i].kill() }

// inprocKV runs exactly what `basicskv serve` runs — kv.NewHost plus
// clientrpc.NewServer — with the handler wrapped in a span.
type inprocKV struct {
	addrs []string
	hosts []*kv.Host
	rpcs  []*clientrpc.Server
}

func startInprocKV(dir string, n int, tr *Tracer) (*inprocKV, error) {
	cfg, err := newKVConfig(dir, n)
	if err != nil {
		return nil, err
	}
	c := &inprocKV{addrs: cfg.Clients}
	for i := 0; i < n; i++ {
		h, err := kv.NewHost(kv.HostConfig{Shards: 1, Peers: cfg.Peers, Self: i, Journals: []string{cfg.Journals[0][i]}})
		if err != nil {
			c.stop()
			return nil, err
		}
		srv, err := clientrpc.NewServer(cfg.Clients[i], tracedHandler(h.Handle, tr))
		if err != nil {
			h.Close()
			c.stop()
			return nil, err
		}
		c.hosts, c.rpcs = append(c.hosts, h), append(c.rpcs, srv)
	}
	return c, nil
}

// tracedHandler records a "handle.<op>" span around every request that
// carries a numeric id in its value.
func tracedHandler(h clientrpc.Handler, tr *Tracer) clientrpc.Handler {
	return func(req clientrpc.Request) clientrpc.Response {
		start := time.Now()
		resp := h(req)
		if id, ok := req.Val.(float64); ok {
			tr.Record(Span{Name: "handle." + req.Op, Start: start, End: time.Now(), Parent: -1, Req: int64(id)})
		}
		return resp
	}
}

func (c *inprocKV) clients() []string { return c.addrs }

func (c *inprocKV) kill(i int) {
	if c.rpcs[i] != nil {
		c.rpcs[i].Close()
		c.hosts[i].Close()
		c.rpcs[i], c.hosts[i] = nil, nil
	}
}

func (c *inprocKV) stop() {
	for i := range c.rpcs {
		c.kill(i)
	}
}

func (c *inprocKV) peakRSSMB() float64 { return vmHWM("/proc/self/status") }

// setupKV brings a cluster up and returns once process 0 serves gets
// from its read lease. The set-up time it returns ends when every
// process answers: whether process 0 then holds the lease at once or
// about 30ms later is a race between the processes' first connects,
// and a figure that flips between two values cannot be compared
// across runs.
func setupKV(o options, name string, n int, tr *Tracer) (kvBackend, time.Duration, error) {
	dir, err := scratch(o, name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var b kvBackend
	if o.trace {
		c, err := startInprocKV(dir, n, tr)
		if err != nil {
			return nil, 0, err
		}
		b = c
	} else {
		c, err := startKVCluster(o.bin, dir, n)
		if err != nil {
			return nil, 0, err
		}
		b = procKV{c}
	}
	for _, a := range b.clients() {
		if _, err := waitStat(a, 20*time.Second); err != nil {
			b.stop()
			return nil, 0, err
		}
	}
	ready := time.Since(start)
	if err := warmKV(b.clients()[0]); err != nil {
		b.stop()
		return nil, 0, err
	}
	return b, ready, nil
}

// warmKV waits until the process at addr answers leaseStreak gets in
// a row at lease speed: it leads and holds a majority's read-lease
// grants, so the cluster can serve.
func warmKV(addr string) error {
	const leaseStreak = 5
	cl := clientrpc.NewClient(addr)
	defer cl.Close()
	end := time.Now().Add(20 * time.Second)
	for streak := 0; streak < leaseStreak; {
		if time.Now().After(end) {
			return fmt.Errorf("process 0 did not serve lease reads within 20s: not the leader")
		}
		t0 := time.Now()
		if _, err := cl.Get("warm", 2*time.Second); err != nil {
			return err
		}
		if time.Since(t0) < leaseFast {
			streak++
		} else {
			streak = 0
		}
	}
	return nil
}

func dialAll(addr string, n int) ([]Pipe, func(), error) {
	pipes := make([]Pipe, 0, n)
	closeAll := func() {
		for _, p := range pipes {
			p.Close()
		}
	}
	for i := 0; i < n; i++ {
		p, err := dialPipe(addr, replyTimeout)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		pipes = append(pipes, p)
	}
	return pipes, closeAll, nil
}

// openLoopKV sends ops on schedule, op i on pipe i%len(pipes), and
// returns the history in op order.
func openLoopKV(pipes []Pipe, due []time.Duration, ops []kvOp) []histOp {
	start := time.Now().Add(20 * time.Millisecond)
	out := make([]histOp, len(ops))
	var wg sync.WaitGroup
	for p := range pipes {
		var idx []int
		var pdue []time.Duration
		var lines [][]byte
		for i := p; i < len(ops); i += len(pipes) {
			idx, pdue, lines = append(idx, i), append(pdue, due[i]), append(lines, ops[i].line)
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for j, d := range OpenLoop(pipes[p], start, pdue, lines) {
				out[idx[j]] = toHist(ops[idx[j]], d)
			}
		}(p)
	}
	wg.Wait()
	return out
}

// saturate keeps depth requests outstanding on every pipe for window
// and returns the history and the completion times.
func saturate(pipes []Pipe, window time.Duration, depth int, seed, firstID int64, readFrac float64) ([]histOp, satWindow) {
	var mu sync.Mutex
	var all []histOp
	var wg sync.WaitGroup
	w := satWindow{start: time.Now()}
	for p := range pipes {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			var ops []kvOp
			dones := ClosedLoop(pipes[p], window, depth, func(i int) []byte {
				op := newKVOp(rng, firstID+int64(i*len(pipes)+p), readFrac)
				ops = append(ops, op)
				return op.line
			})
			mu.Lock()
			defer mu.Unlock()
			for i, d := range dones {
				h := toHist(ops[i], d)
				all = append(all, h)
				if h.ok {
					w.done = append(w.done, h.ret)
				}
			}
		}(p)
	}
	wg.Wait()
	return all, w
}

func latenciesMS(hs []histOp, get bool) []float64 {
	var out []float64
	for _, h := range hs {
		if h.get == get {
			out = append(out, float64(h.latency)/float64(time.Millisecond))
		}
	}
	return out
}

func countFailed(hs []histOp) int {
	n := 0
	for _, h := range hs {
		if !h.ok {
			n++
		}
	}
	return n
}

// kvRun is what the rounds of one kv run pool.
type kvRun struct {
	histA      []histOp // phase A of every round, in due order per round
	back       []histOp // kv-write's read-backs: lease reads at rest
	sat        []satWindow
	check      histCheck
	recs, byts int64 // journal records and bytes written during phase A (traced)
	rss        []float64
	nextID     int64
}

// runKV is kv-write (read=false) and kv-read (read=true). The load
// runs in kvRounds rounds, each on a fresh cluster: commit latency
// depends on state fixed at start-up, such as the relative phase of
// the processes' tick clocks, so a figure pooled over several clusters
// is steadier than one cluster's.
func runKV(o options, read bool) (*report, error) {
	rep := newReport()
	var tr *Tracer
	if o.trace {
		tr = &Tracer{}
	}
	rate, readFrac, depth := kvPutRate, 0.0, putDepth
	if read {
		rate, readFrac, depth = kvMixRate, kvReadFrac, getDepth
	}
	aDur := o.window() * 7 / 10 / kvRounds
	bDur := o.window() * 3 / 10 / kvRounds

	// Set-up is repeated and its median reported. The last kvRounds
	// clusters carry the load; the traced run sets up only those.
	setups := kvSetups
	if o.trace {
		setups = kvRounds
	}
	var setupTimes []float64
	run := &kvRun{nextID: 1}
	var last kvBackend
	defer func() {
		if last != nil {
			last.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		b, d, err := setupKV(o, fmt.Sprintf("setup%d", i), kvProcs, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		round := i - (setups - kvRounds)
		if round < 0 {
			b.stop()
			continue
		}
		err = kvRound(o, run, b, o.seed*kvRounds+int64(round), rate, readFrac, depth, aDur, bDur, read)
		if round == kvRounds-1 && err == nil {
			last = b // the traced run still needs it for the failover
		} else {
			b.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	fmt.Printf("setup %v s (median of %d)\n", setupTimes, len(setupTimes))
	rep.set("setup_s", "s", median(setupTimes))

	c := run.check
	rep.count(c.ops, c.failed)
	rep.check(c.bad == 0, "every get returns nil or a value put to its key before it returned (%d ops, %d bad)", c.ops, c.bad)
	rep.check(c.err == nil && c.linOK, "sampled per-key histories linearize (%d keys, %d ops; %d keys over %d ops not checked; err=%v)",
		c.keys, c.linOps, c.skipped, check.MaxOps, c.err)

	primaryMS := latenciesMS(run.histA, read)
	primary := Summarize(primaryMS)
	p50, tail := windowed(primaryMS)
	writes := Summarize(latenciesMS(run.histA, false))
	var late []float64
	for _, h := range run.histA {
		late = append(late, float64(h.late)/float64(time.Millisecond))
	}
	lateP99 := Summarize(late).Quantile(0.99)
	maxOps := perSecond(run.sat)
	fmt.Printf("phase A: %d ops at %.0f/s in %d rounds of %v; %s p50 %.3f ms %s %.3f ms (n=%d); writes p50 %.3f ms (n=%d); generator late p99 %.3f ms\n",
		len(run.histA), rate, kvRounds, aDur, map[bool]string{false: "put", true: "get"}[read],
		primary.P50, primary.TailName(), primary.Tail, primary.N, writes.P50, writes.N, lateP99)
	fmt.Printf("phase B: %d outstanding per connection: %.1f ops/s\n", depth, maxOps)
	fmt.Printf("windowed: p50 %.3f ms, tail %.3f ms\n", p50, tail)
	rep.set("p50_ms", "ms", p50)
	rep.set("tail_ms", "ms", tail)
	rep.set("max_ops_s", "1/s", maxOps)
	rep.set("rss_mb", "MB", mean(run.rss))
	if !o.trace {
		return rep, nil
	}
	rep.set("loadgen.late_ms_p99", "ms", lateP99)
	rep.set("trace.p50_ms", "ms", p50)
	rep.set("trace.tail_ms", "ms", tail)
	rep.set("client.write_ms_p50", "ms", writes.P50)
	return rep, kvLayers(o, rep, tr, last, run, read)
}

// kvRound runs phase A (open loop), phase B (saturation) and, for
// kv-write, a read-back of every written key on one cluster, checks the
// round's history, and adds everything to run.
func kvRound(o options, run *kvRun, b kvBackend, seed int64, rate, readFrac float64, depth int, aDur, bDur time.Duration, read bool) error {
	pipes, closePipes, err := dialAll(b.clients()[0], kvConns)
	if err != nil {
		return err
	}
	defer closePipes()
	due := Schedule(seed, rate, aDur)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := make([]kvOp, len(due))
	for i := range ops {
		ops[i] = newKVOp(rng, run.nextID, readFrac)
		run.nextID++
	}
	var stat0, stat1 []clientrpc.Response
	if o.trace {
		if stat0, err = statAll(b.clients()); err != nil {
			return err
		}
	}
	histA := openLoopKV(pipes, due, ops)
	if o.trace {
		if stat1, err = statAll(b.clients()); err != nil {
			return err
		}
		for i := range stat1 {
			if stat0[i].Journal == nil || stat1[i].Journal == nil {
				return fmt.Errorf("process %d reports no journal counters", i)
			}
			run.recs += stat1[i].Journal.LifeRecords - stat0[i].Journal.LifeRecords
			run.byts += stat1[i].Journal.LifeBytes - stat0[i].Journal.LifeBytes
		}
	}
	histB, w := saturate(pipes, bDur, depth, seed^0xb, run.nextID, readFrac)
	run.nextID += int64(len(histB))
	hist := append(append([]histOp(nil), histA...), histB...)
	if !read {
		back := readBack(pipes[0], hist, run.nextID)
		run.nextID += int64(len(back))
		run.back = append(run.back, back...)
		hist = append(hist, back...)
	}
	run.check.add(checkKVHistory(hist))
	run.histA = append(run.histA, histA...)
	run.sat = append(run.sat, w)
	run.rss = append(run.rss, b.peakRSSMB())
	return nil
}

// readBack gets every key the run wrote, so the final state is part of
// the checked history.
func readBack(p Pipe, hist []histOp, firstID int64) []histOp {
	seen := map[string]bool{}
	var keys []string
	for _, h := range hist {
		if !h.get && !seen[h.key] {
			seen[h.key] = true
			keys = append(keys, h.key)
		}
	}
	sort.Strings(keys)
	ops := make([]kvOp, len(keys))
	due := make([]time.Duration, len(keys))
	lines := make([][]byte, len(keys))
	for i, k := range keys {
		id := firstID + int64(i)
		ops[i] = kvOp{id: id, get: true, key: k, line: []byte(`{"op":"get","key":"` + k + `","val":` + strconv.FormatInt(id, 10) + `}`)}
		lines[i] = ops[i].line
	}
	out := make([]histOp, len(ops))
	for i, d := range OpenLoop(p, time.Now(), due, lines) {
		out[i] = toHist(ops[i], d)
	}
	return out
}

// histCheck tallies the output checks of kv histories.
type histCheck struct {
	ops, failed, bad      int
	keys, linOps, skipped int
	linOK                 bool
	err                   error
	checked               int // histories checked
}

func (c *histCheck) add(d histCheck) {
	c.ops += d.ops
	c.failed += d.failed
	c.bad += d.bad
	c.keys += d.keys
	c.linOps += d.linOps
	c.skipped += d.skipped
	c.linOK = (c.checked == 0 || c.linOK) && d.linOK
	if c.err == nil {
		c.err = d.err
	}
	c.checked++
}

// checkKVHistory checks the whole history — every get returns nil or a
// value written to that key by a put invoked before the get returned —
// and runs the histories of sampled keys through check.Linearizable.
func checkKVHistory(hist []histOp) histCheck {
	c := histCheck{ops: len(hist), failed: countFailed(hist)}
	puts := map[int64]*histOp{}
	for i := range hist {
		if !hist[i].get {
			puts[hist[i].id] = &hist[i]
		}
	}
	for _, h := range hist {
		if !h.get || !h.ok || h.val == nil {
			continue
		}
		v, isInt := h.val.(int)
		p := puts[int64(v)]
		if !isInt || p == nil || p.key != h.key || !p.call.Before(h.ret) {
			if c.bad < 3 {
				fmt.Printf("  get %s (id %d) returned %v, which no earlier put to that key wrote\n", h.key, h.id, h.val)
			}
			c.bad++
		}
	}

	// Sampled keys: the Wing–Gong search is exponential in the worst
	// case, so only every sampleEvery-th key's history goes through it.
	byKey := map[string][]histOp{}
	for _, h := range hist {
		if sampledKey(h.key) {
			byKey[h.key] = append(byKey[h.key], h)
		}
	}
	var t0 time.Time
	for _, h := range hist {
		if t0.IsZero() || h.call.Before(t0) {
			t0 = h.call
		}
	}
	var lin check.History
	for key, hs := range byKey {
		if len(hs) > check.MaxOps {
			c.skipped++
			continue
		}
		c.keys++
		for _, h := range hs {
			op := check.Op{Proc: len(lin), Call: int64(h.call.Sub(t0)), Return: int64(h.ret.Sub(t0))}
			switch {
			case h.get && !h.ok:
				continue // a failed read constrains nothing
			case h.get:
				op.Arg, op.Out = check.KeyedOp{Key: key, Op: check.ReadOp{}}, h.val
			default:
				op.Arg = check.KeyedOp{Key: key, Op: check.WriteOp{V: int(h.id)}}
				if !h.ok {
					op.Return = check.Pending
				}
			}
			lin = append(lin, op)
		}
	}
	c.linOps = len(lin)
	res, err := check.Linearizable(check.RegisterArraySpec{}, lin)
	c.linOK, c.err = err == nil && res.OK, err
	return c
}
