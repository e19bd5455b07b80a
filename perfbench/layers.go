package main

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// kvLayers fills the per-layer metrics of a traced kv run. The spans
// come from the handler wrapper and the client's own timings; the
// journal counters from the stat RPC around each phase A; the rest
// from calls into each layer's public functions. b is the last round's
// cluster, still running.
func kvLayers(o options, rep *report, tr *Tracer, b kvBackend, run *kvRun, read bool) error {
	spans := tr.Spans()
	// Handler spans of phase A and of the read-backs are the layer's
	// unloaded figures; saturation only counts towards busy handlers.
	inA := map[int64]bool{}
	for _, h := range run.back {
		inA[h.id] = true
	}
	puts := 0
	for _, h := range run.histA {
		if !h.ok {
			continue
		}
		inA[h.id] = true
		if !h.get {
			puts++
		}
		name := "client.put"
		if h.get {
			name = "client.get"
		}
		spans = append(spans, Span{Name: name, Start: h.ret.Add(-h.latency), End: h.ret, Parent: -1, Req: h.id})
	}
	LinkByReq(spans, "client.put", "handle.put")
	LinkByReq(spans, "client.get", "handle.get")
	self := SelfTimes(spans)
	var wait, putH, getH []float64
	var busy, satTime time.Duration
	for _, w := range run.sat {
		satTime += satEnd(w).Sub(w.start)
	}
	for i, s := range spans {
		switch s.Name {
		case "client.put", "client.get":
			wait = append(wait, float64(self[i])/float64(time.Millisecond))
		case "handle.put", "handle.get":
			if inA[s.Req] {
				d := float64(s.End.Sub(s.Start))
				if s.Name == "handle.put" {
					putH = append(putH, d/float64(time.Millisecond))
				} else {
					getH = append(getH, d/float64(time.Microsecond))
				}
			}
			for _, w := range run.sat {
				busy += overlap(s.Start, s.End, w.start, satEnd(w))
			}
		}
	}
	for name, d := range SelfByName(spans) {
		fmt.Printf("self %-12s %10.3f ms total\n", name, float64(d)/float64(time.Millisecond))
	}
	if err := writeSpans(o, spans); err != nil {
		return err
	}
	ws := Summarize(wait)
	rep.set("clientrpc.wait_ms_p50", "ms", ws.P50)
	rep.set("clientrpc.wait_ms_tail", "ms", ws.Tail)
	rep.set("clientrpc.handlers_busy_mean", "count", float64(busy)/float64(satTime))
	ph, gh := Summarize(putH), Summarize(getH)
	rep.set("kv.put_handle_ms_p50", "ms", ph.P50)
	rep.set("kv.put_handle_ms_tail", "ms", ph.Tail)
	rep.set("kv.get_handle_us_p50", "us", gh.P50)
	rep.set("kv.get_handle_us_tail", "us", gh.Tail)
	fmt.Printf("tails: clientrpc.wait %s (n=%d), put handle %s (n=%d), get handle %s (n=%d)\n",
		ws.TailName(), ws.N, ph.TailName(), ph.N, gh.TailName(), gh.N)

	if puts > 0 {
		rep.set("journal.records_per_put", "count", float64(run.recs)/float64(puts))
		rep.set("journal.bytes_per_put", "B", float64(run.byts)/float64(puts))
	}

	echo, err := measureEcho(o.seed, kvMixRate, time.Second)
	if err != nil {
		return err
	}
	rep.set("clientrpc.echo_us_p50", "us", echo)
	if read {
		return nil
	}

	fo, err := measureFailover(rep, b, o.seed)
	if err != nil {
		return err
	}
	rep.set("fd.failover_s", "s", fo)
	one, err := measureOneReplica(o)
	if err != nil {
		return err
	}
	rep.set("kv.put_1replica_ms_p50", "ms", one)
	batch, err := measureRSM(o, rep)
	if err != nil {
		return err
	}
	if err := measureJournal(o, rep, batch); err != nil {
		return err
	}
	return measureTransport(rep)
}

// satEnd is when a saturation window's last request completed.
func satEnd(w satWindow) time.Time {
	end := w.start
	for _, t := range w.done {
		if t.After(end) {
			end = t
		}
	}
	return end
}

func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	if a0.Before(b0) {
		a0 = b0
	}
	if a1.After(b1) {
		a1 = b1
	}
	if a1.After(a0) {
		return a1.Sub(a0)
	}
	return 0
}

// measureEcho is the round trip through clientrpc alone: a no-op
// handler driven open loop at rate over one connection.
func measureEcho(seed int64, rate float64, dur time.Duration) (float64, error) {
	srv, err := clientrpc.NewServer("127.0.0.1:0", func(clientrpc.Request) clientrpc.Response {
		return clientrpc.Response{OK: true}
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	p, err := dialPipe(srv.Addr(), replyTimeout)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	due := Schedule(seed, rate, dur)
	lines := make([][]byte, len(due))
	for i := range lines {
		lines[i] = []byte(`{"op":"get","key":"echo","val":` + strconv.Itoa(i) + `}`)
	}
	var us []float64
	for _, d := range OpenLoop(p, time.Now(), due, lines) {
		if d.Err != nil {
			return 0, fmt.Errorf("echo: %w", d.Err)
		}
		us = append(us, float64(d.Latency())/float64(time.Microsecond))
	}
	return Summarize(us).P50, nil
}

// measureFailover kills process 0, the leader, while a connection to
// process 1 sends puts at failoverRate, and returns the time from the
// kill until the first put that fell due after it completes.
func measureFailover(rep *report, b kvBackend, seed int64) (float64, error) {
	p, err := dialPipe(b.clients()[1], replyTimeout)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	const dur, killAt = 3 * time.Second, 500 * time.Millisecond
	due := Schedule(seed^0xc, failoverRate, dur)
	lines := make([][]byte, len(due))
	for i := range lines {
		lines[i] = []byte(`{"op":"put","key":"failover","val":` + strconv.Itoa(-2-i) + `}`)
	}
	start := time.Now().Add(20 * time.Millisecond)
	var killed time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(start.Add(killAt)))
		killed = time.Now()
		b.kill(0)
	}()
	dones := OpenLoop(p, start, due, lines)
	wg.Wait()
	failed := 0
	fo := -1.0
	for _, d := range dones {
		if d.Err != nil {
			failed++
			continue
		}
		if fo < 0 && d.Due.After(killed) {
			fo = d.Replied.Sub(killed).Seconds()
		}
	}
	rep.count(len(dones), failed)
	rep.check(fo > 0, "a put due after the leader was killed completed (%d of %d puts failed)", failed, len(dones))
	fmt.Printf("failover: %.3f s from kill to first post-kill put\n", fo)
	return fo, nil
}

// measureOneReplica runs kv-write's put stream against a 1-process
// cluster: the no-replication floor.
func measureOneReplica(o options) (float64, error) {
	dir, err := scratch(o, "one")
	if err != nil {
		return 0, err
	}
	c, err := startInprocKV(dir, 1, nil)
	if err != nil {
		return 0, err
	}
	defer c.stop()
	if _, err := waitStat(c.clients()[0], 20*time.Second); err != nil {
		return 0, err
	}
	if err := warmKV(c.clients()[0]); err != nil {
		return 0, err
	}
	pipes, closePipes, err := dialAll(c.clients()[0], kvConns)
	if err != nil {
		return 0, err
	}
	defer closePipes()
	due := Schedule(o.seed, kvPutRate, 2*time.Second)
	rng := rand.New(rand.NewSource(o.seed ^ 0x1))
	ops := make([]kvOp, len(due))
	for i := range ops {
		ops[i] = newKVOp(rng, int64(i+1), 0)
	}
	hist := openLoopKV(pipes, due, ops)
	rep := Summarize(latenciesMS(hist, false))
	if f := countFailed(hist); f > 0 {
		return 0, fmt.Errorf("1-replica: %d of %d puts failed", f, len(hist))
	}
	return rep.P50, nil
}

// rsmGroup is an n-node rsm group over the production transport stack
// (TCP, Resilient, Runtime) at the default tick, built the way kv.Host
// builds a shard, with an apply hook on every node.
type rsmGroup struct {
	nodes []*rsm.Node
	rts   []*transport.Runtime
	tcps  []*transport.TCP
}

func startRSMGroup(n int, hook func(node int, e rsm.Entry)) (*rsmGroup, error) {
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	addrs, err := allocAddrs(n)
	if err != nil {
		return nil, err
	}
	clock := transport.NewRealClock(transport.DefaultUnit)
	g := &rsmGroup{}
	for i := 0; i < n; i++ {
		i := i
		nd := rsm.NewNode(n, rsm.WithoutAppliedLog(), rsm.WithApplyHook(func(e rsm.Entry, _ amp.Time) { hook(i, e) }))
		nd.Omega.Period = 40
		tcp, err := transport.NewTCP(i, addrs, transport.TCPOptions{})
		if err != nil {
			g.stop()
			return nil, err
		}
		res := transport.NewResilient(tcp, clock, transport.Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, Seed: int64(i + 1)})
		rt := transport.NewRuntime(res, clock, nd.Stack, transport.WithRuntimeSeed(int64(i+1)),
			transport.WithSuspectSource(nd.Omega.Suspects), transport.WithSuspectKick(res.Kick))
		res.SetSuspected(rt.Suspected)
		rt.Start()
		g.nodes, g.rts, g.tcps = append(g.nodes, nd), append(g.rts, rt), append(g.tcps, tcp)
	}
	return g, nil
}

func (g *rsmGroup) stop() {
	for i := range g.rts {
		g.rts[i].Stop()
		g.tcps[i].Close()
	}
	for i := len(g.rts); i < len(g.tcps); i++ {
		g.tcps[i].Close()
	}
}

// measureRSM times Node.Submit to the submitting node's apply hook at
// kv-write's rate, then the commands per slot at saturation. It
// returns the mean batch size of the open-loop phase.
func measureRSM(o options, rep *report) (int, error) {
	var mu sync.Mutex
	submitted := map[rbcast.MsgID]time.Time{}
	var commits []float64
	var applied atomic.Int64
	g, err := startRSMGroup(kvProcs, func(node int, e rsm.Entry) {
		if node != 0 {
			return
		}
		applied.Add(1)
		mu.Lock()
		if t, ok := submitted[e.ID]; ok {
			commits = append(commits, float64(time.Since(t))/float64(time.Millisecond))
			delete(submitted, e.ID)
		}
		mu.Unlock()
	})
	if err != nil {
		return 0, err
	}
	defer g.stop()
	submit := func(k int) {
		g.rts[0].Do(func(ctx amp.Context) {
			now := time.Now()
			for i := 0; i < k; i++ {
				id := g.nodes[0].Submit(ctx, rsm.Command{Op: "put", Key: "r", Val: i})
				mu.Lock()
				submitted[id] = now
				mu.Unlock()
			}
		})
	}
	// Warm up until a command commits: the group has a leader.
	end := time.Now().Add(20 * time.Second)
	for applied.Load() == 0 {
		if time.Now().After(end) {
			return 0, fmt.Errorf("rsm group: nothing committed within 20s")
		}
		submit(1)
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	mu.Lock()
	commits = commits[:0]
	submitted = map[rbcast.MsgID]time.Time{}
	mu.Unlock()

	slots := func() (a int64, s int) {
		g.rts[0].Do(func(amp.Context) { s = g.nodes[0].SlotsDelivered() })
		return applied.Load(), s
	}
	a0, s0 := slots()
	start := time.Now()
	for _, d := range Schedule(o.seed^0x7, kvPutRate, 3*time.Second) {
		time.Sleep(time.Until(start.Add(d)))
		submit(1)
	}
	time.Sleep(300 * time.Millisecond)
	a1, s1 := slots()
	batch := 1
	if s1 > s0 {
		batch = int(float64(a1-a0)/float64(s1-s0) + 0.5)
	}
	mu.Lock()
	cs := Summarize(commits)
	mu.Unlock()
	rep.set("rsm.commit_ms_p50", "ms", cs.P50)
	rep.set("rsm.commit_ms_tail", "ms", cs.Tail)

	// Saturation: keep 256 commands in flight for one second.
	satEnd := time.Now().Add(time.Second)
	a2, s2 := slots()
	for time.Now().Before(satEnd) {
		mu.Lock()
		inflight := len(submitted)
		mu.Unlock()
		if inflight < 256 {
			submit(64)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	time.Sleep(300 * time.Millisecond)
	a3, s3 := slots()
	if s3 > s2 {
		rep.set("rsm.cmds_per_slot", "count", float64(a3-a2)/float64(s3-s2))
	}
	fmt.Printf("rsm: commit p50 %.3f ms %s %.3f ms (n=%d), batch %d at %.0f/s; %d cmds in %d slots at saturation\n",
		cs.P50, cs.TailName(), cs.Tail, cs.N, batch, kvPutRate, a3-a2, s3-s2)
	return batch, nil
}

// measureJournal times FileJournal.SaveAccept and SaveDecide records
// carrying batch commands, and counts allocations per record.
func measureJournal(o options, rep *report, batch int) error {
	dir, err := scratch(o, "journal")
	if err != nil {
		return err
	}
	j, _, err := rsm.OpenFileJournal(filepath.Join(dir, "bench.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	// A replica journals its accepted batches as rsm's unexported batch
	// type, a []rsm.Entry underneath; the plain slice stands in for it.
	gob.Register([]rsm.Entry(nil))
	entries := make([]rsm.Entry, batch)
	for i := range entries {
		entries[i] = rsm.Entry{ID: rbcast.MsgID{Sender: 0, Seq: i}, Payload: rsm.Command{Op: "put", Key: kvKey(i), Val: i}}
	}
	const n = 2000
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for s := 0; s < n; s++ {
		j.SaveAccept(s, rsm.Acceptor{Promised: 1, AcceptedBal: 1, AcceptedVal: entries})
	}
	t1 := time.Now()
	for s := 0; s < n; s++ {
		j.SaveDecide(s, entries)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms1)
	rep.set("journal.accept_us", "us", float64(t1.Sub(t0))/float64(time.Microsecond)/n)
	rep.set("journal.decide_us", "us", float64(t2.Sub(t1))/float64(time.Microsecond)/n)
	rep.set("journal.allocs_per_record", "count", float64(ms1.Mallocs-ms0.Mallocs)/(2*n))
	if st := j.Stats(); st.WriteErrs > 0 {
		return fmt.Errorf("journal: %d write errors", st.WriteErrs)
	}
	return nil
}

// measureTransport measures Resilient-over-TCP between two endpoints
// in this process: one-way frame delivery time at a light rate, the
// delivered frames per second of one saturated link, and the codec.
func measureTransport(rep *report) error {
	addrs, err := allocAddrs(2)
	if err != nil {
		return err
	}
	clock := transport.NewRealClock(transport.DefaultUnit)
	var ends [2]*transport.Resilient
	for i := range ends {
		tcp, err := transport.NewTCP(i, addrs, transport.TCPOptions{})
		if err != nil {
			return err
		}
		defer tcp.Close()
		ends[i] = transport.NewResilient(tcp, clock, transport.Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, Seed: int64(i + 1)})
		defer ends[i].Close()
	}
	var mu sync.Mutex
	var oneWay []float64
	var delivered atomic.Int64
	ends[1].Handle(func(_ int, frame []byte) {
		if len(frame) >= 8 {
			sent := time.Unix(0, int64(binary.BigEndian.Uint64(frame)))
			mu.Lock()
			oneWay = append(oneWay, float64(time.Since(sent))/float64(time.Microsecond))
			mu.Unlock()
		}
		delivered.Add(1)
	})
	frame := make([]byte, 128)
	send := func() error {
		binary.BigEndian.PutUint64(frame, uint64(time.Now().UnixNano()))
		return ends[0].Send(1, frame)
	}
	for i := 0; i < 1000; i++ {
		if err := send(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	fs := Summarize(oneWay)
	mu.Unlock()
	rep.set("transport.frame_us_p50", "us", fs.P50)

	const queued = 128
	sent := delivered.Load()
	base := sent
	start := time.Now()
	for time.Since(start) < time.Second {
		if sent-delivered.Load() >= queued {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err := send(); err != nil {
			return err
		}
		sent++
	}
	rate := float64(delivered.Load()-base) / time.Since(start).Seconds()
	rep.set("transport.link_frames_s_max", "1/s", rate)

	var codec transport.Codec
	msg := rsm.Entry{ID: rbcast.MsgID{Sender: 1, Seq: 7}, Payload: rsm.Command{Op: "put", Key: kvKey(7), Val: 7}}
	const n = 20000
	var buf []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		payload, err := codec.Encode(msg)
		if err != nil {
			return err
		}
		buf, err = transport.AppendFrame(buf[:0], payload, 0)
		if err != nil {
			return err
		}
		got, _, err := transport.DecodeFrame(buf, 0)
		if err != nil {
			return err
		}
		if _, err := codec.Decode(got); err != nil {
			return err
		}
	}
	rep.set("transport.codec_us", "us", float64(time.Since(t0))/float64(time.Microsecond)/n)
	fmt.Printf("transport: one-way p50 %.1f us (n=%d), one link %.0f frames/s\n", fs.P50, fs.N, rate)
	return nil
}
