package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"distbasics/internal/clientrpc"
)

// jobq shape: a 5-process journaled basicsjobd cluster. One connection
// to node 1 submits 2ms jobs open loop; one connection to node 2 runs
// closed-loop "run" probes (submit, then block until terminal).
const (
	jobNodes      = 5
	jobSubmitRate = 30.0
	jobCostMS     = 2
	jobSetups     = 5
	jobSatDepth   = 8
	jobDrain      = 40 * time.Second
)

func jobLine(op, id string) []byte {
	return []byte(`{"op":"` + op + `","key":"` + id + `","val":{"cost_ms":` + strconv.Itoa(jobCostMS) + `}}`)
}

// setupJobq brings a cluster up and returns once a probe job has run
// to completion, with the time that took.
func setupJobq(o options, name string) (*cluster, time.Duration, error) {
	dir, err := scratch(o, name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c, err := startJobCluster(o.bin, dir, jobNodes)
	if err != nil {
		return nil, 0, err
	}
	for _, a := range c.clients {
		if _, err := waitStat(a, 20*time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	cl := clientrpc.NewClient(c.clients[2])
	defer cl.Close()
	end := time.Now().Add(30 * time.Second)
	for {
		resp, err := cl.Call(clientrpc.Request{Op: "run", Key: "warm-" + name, Val: map[string]any{"cost_ms": jobCostMS}}, 10*time.Second)
		if err == nil && jobDone(resp.Val) {
			break
		}
		if time.Now().After(end) {
			c.stop()
			return nil, 0, fmt.Errorf("warm-up job did not complete within 30s: %v", err)
		}
		cl.Close()
		time.Sleep(20 * time.Millisecond)
	}
	return c, time.Since(start), nil
}

// jobDone reports whether a job record (as the jobs/run replies render
// it) completed exactly once.
func jobDone(v any) bool {
	m, _ := v.(map[string]any)
	eff, _ := m["effects"].(float64)
	return m["state"] == "completed" && eff == 1
}

func runJobq(o options) (*report, error) {
	rep := newReport()
	setups := jobSetups
	if o.trace {
		setups = 1
	}
	aDur := o.window() * 6 / 10
	bDur := o.window() - aDur
	var c *cluster
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		ci, d, err := setupJobq(o, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			ci.stop()
			continue
		}
		c = ci
	}
	defer c.stop()
	fmt.Printf("setup %v s (median of %d)\n", setupTimes, len(setupTimes))
	rep.set("setup_s", "s", median(setupTimes))

	submitter, err := dialPipe(c.clients[1], 60*time.Second)
	if err != nil {
		return nil, err
	}
	defer submitter.Close()
	prober, err := dialPipe(c.clients[2], 60*time.Second)
	if err != nil {
		return nil, err
	}
	defer prober.Close()
	stat0, err := statAll(c.clients)
	if err != nil {
		return nil, err
	}

	// Phase A: open-loop submits on node 1 beside closed-loop probes on
	// node 2.
	due := Schedule(o.seed, jobSubmitRate, aDur)
	lines := make([][]byte, len(due))
	var ids []string
	for i := range lines {
		ids = append(ids, fmt.Sprintf("s%d-%d", o.seed, i))
		lines[i] = jobLine("submit", ids[i])
	}
	var subs, probes []Done
	var probeIDs []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		probes = ClosedLoop(prober, aDur, 1, func(i int) []byte {
			probeIDs = append(probeIDs, fmt.Sprintf("p%d-%d", o.seed, i))
			return jobLine("run", probeIDs[i])
		})
	}()
	subs = OpenLoop(submitter, time.Now().Add(20*time.Millisecond), due, lines)
	wg.Wait()
	// Peak RSS is read after the open-loop phase, whose job count the
	// seed fixes; phase B's count follows the host's speed, and the
	// servers' memory grows with their job tables.
	rss := c.peakRSSMB()

	// Phase B: submits with jobSatDepth outstanding on both connections.
	// The five servers then use every CPU the machine has, so a second
	// in which the host's other tenants steal CPU time completes fewer
	// submits for reasons outside the program; each second's count is
	// scaled by the share of CPU time the host left the machine.
	var satIDs [2][]string
	var sat [2][]Done
	bStart := time.Now()
	stopSteal := make(chan struct{})
	stealc := make(chan []float64)
	go func() { stealc <- sampleSteal(bStart, stopSteal) }()
	for p, pipe := range []Pipe{submitter, prober} {
		wg.Add(1)
		go func(p int, pipe Pipe) {
			defer wg.Done()
			sat[p] = ClosedLoop(pipe, bDur, jobSatDepth, func(i int) []byte {
				satIDs[p] = append(satIDs[p], fmt.Sprintf("b%d-%d-%d", o.seed, p, i))
				return jobLine("submit", satIDs[p][i])
			})
		}(p, pipe)
	}
	wg.Wait()
	close(stopSteal)
	steal := <-stealc
	var satDone []time.Time
	for p := range sat {
		for _, d := range sat[p] {
			if replyOK(d) {
				satDone = append(satDone, d.Replied)
			}
		}
	}
	bw := satWindow{start: bStart, done: satDone}
	wallOps, maxOps := perSecond([]satWindow{bw}), perSecondUnstolen(bw, steal, runtime.NumCPU())

	// Every job accepted must complete exactly once.
	var all []string
	failed := 0
	var subLat, lateMS []float64
	for i, d := range subs {
		lateMS = append(lateMS, float64(d.Late())/float64(time.Millisecond))
		if !replyOK(d) {
			failed++
			subLat = append(subLat, float64(replyTimeout)/float64(time.Millisecond))
			continue
		}
		all = append(all, ids[i])
		subLat = append(subLat, float64(d.Latency())/float64(time.Millisecond))
	}
	var jobLat []float64
	probeFails := 0
	for i, d := range probes {
		var resp clientrpc.Response
		if d.Err != nil || json.Unmarshal(d.Reply, &resp) != nil || !resp.OK || !jobDone(resp.Val) {
			probeFails++
			continue
		}
		all = append(all, probeIDs[i])
		jobLat = append(jobLat, float64(d.Latency())/float64(time.Millisecond))
	}
	for p := range sat {
		for i, d := range sat[p] {
			if replyOK(d) {
				all = append(all, satIDs[p][i])
			} else {
				failed++
			}
		}
	}
	unfinished, err := drainJobs(c.clients[0], all)
	if err != nil {
		return nil, err
	}
	rep.count(len(subs)+len(probes)+len(sat[0])+len(sat[1]), failed+probeFails+unfinished)
	rep.check(probeFails == 0, "every run probe returned its job completed with one effect (%d of %d did not)", probeFails, len(probes))
	rep.check(unfinished == 0, "every accepted job is completed with effects == 1 after the drain (%d of %d are not)", unfinished, len(all))

	js, ss := Summarize(jobLat), Summarize(subLat)
	fmt.Printf("phase A: %d submits at %.0f/s (p50 %.3f ms), %d run probes p50 %.3f ms %s %.3f ms\n",
		len(subs), jobSubmitRate, ss.P50, len(probes), js.P50, js.TailName(), js.Tail)
	fmt.Printf("phase B: %d submits with %d outstanding per connection: %.1f submits/s, %.1f per second of unstolen CPU (%.1f CPU-s stolen)\n",
		len(satDone), jobSatDepth, wallOps, maxOps, steal[len(steal)-1]-steal[0])
	p50, tail := windowed(jobLat)
	rep.set("p50_ms", "ms", p50)
	rep.set("tail_ms", "ms", tail)
	rep.set("max_ops_s", "1/s", maxOps)
	rep.set("rss_mb", "MB", rss)
	if !o.trace {
		return rep, nil
	}

	stat1, err := statAll(c.clients)
	if err != nil {
		return nil, err
	}
	jobs := float64(len(all))
	// The queue counters are replicated state: node 0's are everyone's.
	ctr := func(k string) float64 {
		m0, _ := stat0[0].Val.(map[string]any)
		m1, _ := stat1[0].Val.(map[string]any)
		a, _ := m0[k].(float64)
		b, _ := m1[k].(float64)
		return b - a
	}
	var retries, shed float64
	for i := range stat1 {
		if stat0[i].Net == nil || stat1[i].Net == nil {
			return nil, fmt.Errorf("node %d reports no net counters", i)
		}
		retries += float64(stat1[i].Net.Retries - stat0[i].Net.Retries)
		shed += float64(stat1[i].Net.Shed - stat0[i].Net.Shed)
	}
	rep.set("transport.retries_per_job", "count", retries/jobs)
	rep.set("transport.shed", "count", shed)
	rep.set("jobq.assigns_per_job", "count", ctr("assigns")/jobs)
	rep.set("jobq.stale_per_job", "count", ctr("stale")/jobs)
	rep.set("jobq.retries", "count", ctr("retries"))
	rep.set("jobq.expiries", "count", ctr("expiries"))
	rep.set("jobq.submit_ms_p50", "ms", ss.P50)
	rep.set("client.write_ms_p50", "ms", ss.P50)
	rep.set("loadgen.late_ms_p99", "ms", Summarize(lateMS).Quantile(0.99))
	rep.set("trace.p50_ms", "ms", p50)
	rep.set("trace.tail_ms", "ms", tail)
	spans := make([]Span, 0, len(subs)+len(probes))
	for i, d := range subs {
		spans = append(spans, Span{Name: "client.submit", Start: d.Due, End: d.Replied, Parent: -1, Req: int64(i)})
	}
	for i, d := range probes {
		spans = append(spans, Span{Name: "client.run", Start: d.Sent, End: d.Replied, Parent: -1, Req: int64(i)})
	}
	for name, d := range SelfByName(spans) {
		fmt.Printf("self %-14s %10.3f ms total\n", name, float64(d)/float64(time.Millisecond))
	}
	return rep, writeSpans(o, spans)
}

func replyOK(d Done) bool {
	if d.Err != nil {
		return false
	}
	var resp clientrpc.Response
	return json.Unmarshal(d.Reply, &resp) == nil && resp.OK
}

// drainJobs polls the replicated job table until every id in want is
// completed with one effect, or jobDrain passes; it returns how many
// are not.
func drainJobs(addr string, want []string) (int, error) {
	cl := clientrpc.NewClient(addr)
	defer cl.Close()
	end := time.Now().Add(jobDrain)
	for {
		resp, err := cl.Call(clientrpc.Request{Op: "jobs"}, 10*time.Second)
		if err != nil {
			return 0, fmt.Errorf("jobs: %w", err)
		}
		table, _ := resp.Val.(map[string]any)
		left := 0
		for _, id := range want {
			if !jobDone(table[id]) {
				left++
			}
		}
		if left == 0 || time.Now().After(end) {
			return left, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}
