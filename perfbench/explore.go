package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"distbasics/internal/agreement"
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/flp"
	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/round"
	"distbasics/internal/rsm"
	"distbasics/internal/shm"
)

// explore's fixed inputs, and the exact counts each engine must
// reproduce on them. A change to an engine that alters one of these
// counts changed what the engine explores, not just how fast.
const (
	shmProcs, shmCrashes = 4, 3
	shmFullExecutions    = 58920
	shmDPORExecutions    = 3472
	flpProcs             = 4
	flpFullConfigs       = 118357
	flpDPORConfigs       = 39425
	ampProcs             = 1024
	ampUntil             = 150
	ampEvents            = 9463810
	roundRing            = 1 << 20
	roundRounds          = 7
	checkKeys            = 64
	checkOpsPerKey       = 48
	explorePasses        = 3 // at least this many passes, however long they take
)

var flpInputs = []int{0, 1, 0, 1}

// engineRun is one engine's share of a pass.
type engineRun struct {
	name  string
	wall  time.Duration
	cpu   time.Duration // user+system CPU time of the whole process, GC included
	alloc float64       // MiB allocated
	work  float64       // engine-specific units: executions, configs, states, events, vertex-rounds
}

// timed runs f and measures its wall time, CPU time and allocation.
func timed(name string, f func() float64) engineRun {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	work := f()
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	return engineRun{name: name, wall: wall, cpu: cpu, alloc: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), work: work}
}

// cpuTime is the user+system CPU time this process has used. The
// kernel does not charge a process for time the host stole from the
// machine, so unlike wall time it does not grow when neighbours on a
// shared host take the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// exploreInputs are the inputs a pass builds before timing starts.
type exploreInputs struct {
	ampNodes []*rsm.Node
	ampSim   *amp.Sim
	cvProcs  []round.Process
	cvSys    *round.System
	hist     check.History
	mutant   check.History
}

func buildExplore(seed int64) (*exploreInputs, error) {
	in := &exploreInputs{}
	// E10 at scale: the replicated state machine at n=1024, heartbeat
	// period stretched so the all-to-all ALIVE traffic leaves room for
	// the two commands.
	procs := make([]amp.Process, ampProcs)
	in.ampNodes = make([]*rsm.Node, ampProcs)
	for i := range procs {
		in.ampNodes[i] = rsm.NewNode(ampProcs)
		in.ampNodes[i].Omega.Period = 32
		procs[i] = in.ampNodes[i].Stack
	}
	in.ampSim = amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 1}))
	in.ampSim.Schedule(1, func() {
		in.ampNodes[1].Submit(in.ampNodes[1].Ctx(), rsm.Command{Op: "put", Key: "x", Val: 1})
	})
	in.ampSim.Schedule(3, func() {
		in.ampNodes[2].Submit(in.ampNodes[2].Ctx(), rsm.Command{Op: "put", Key: "y", Val: 2})
	})
	// E1 at 2^20: Cole–Vishkin 3-colours a ring.
	in.cvProcs = local.NewColeVishkinRing(roundRing)
	sys, err := round.NewSystem(graph.Ring(roundRing), in.cvProcs, round.WithParallelCompute())
	if err != nil {
		return nil, err
	}
	in.cvSys = sys
	in.hist, in.mutant = kvHistory(seed)
	return in, nil
}

// kvHistory builds a seeded linearizable history over checkKeys
// registers: operations take effect in a hidden order, each one's
// interval straddles its effect point, and reads return the value
// current at theirs. The mutant copy makes one read return a value
// nobody wrote, so it must not linearize.
func kvHistory(seed int64) (check.History, check.History) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int, 0, checkKeys*checkOpsPerKey)
	for k := 0; k < checkKeys; k++ {
		for i := 0; i < checkOpsPerKey; i++ {
			keys = append(keys, k)
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	cur := map[int]any{}
	h := make(check.History, len(keys))
	mutated := -1
	for j, k := range keys {
		at := int64(j) * 10
		op := check.Op{Proc: j, Call: at - rng.Int63n(30), Return: at + 1 + rng.Int63n(30)}
		if rng.Intn(2) == 0 {
			cur[k] = j
			op.Arg = check.KeyedOp{Key: k, Op: check.WriteOp{V: j}}
		} else {
			op.Arg, op.Out = check.KeyedOp{Key: k, Op: check.ReadOp{}}, cur[k]
			if mutated < 0 && cur[k] != nil {
				mutated = j
			}
		}
		h[j] = op
	}
	mutant := append(check.History(nil), h...)
	mutant[mutated].Out = -1
	return h, mutant
}

func casOpts(dpor bool) shm.ExploreOpts {
	return shm.ExploreOpts{
		Factory: func() *shm.Run {
			c := agreement.NewCASConsensus()
			bodies := make([]func(*shm.Proc) any, shmProcs)
			for i := range bodies {
				i := i
				bodies[i] = func(p *shm.Proc) any { return c.Propose(p, i) }
			}
			return &shm.Run{Bodies: bodies}
		},
		MaxCrashes: shmCrashes,
		DPOR:       dpor,
		Check: func(out *shm.Outcome) string {
			return agreement.CheckConsensusOutcome(out, []any{0, 1, 2, 3})
		},
	}
}

// explorePass runs every engine once on its fixed input and checks the
// verdicts and exact counts.
func explorePass(rep *report, in *exploreInputs, first bool) []engineRun {
	chk := func(ok bool, format string, args ...any) {
		if first || !ok {
			rep.check(ok, format, args...)
		}
	}
	var runs []engineRun
	runs = append(runs, timed("shm", func() float64 {
		full, dpor := shm.Explore(casOpts(false)), shm.Explore(casOpts(true))
		chk(full.Violation == "" && dpor.Violation == "" && !full.Truncated && !dpor.Truncated,
			"shm: CAS consensus n=%d with <=%d crashes is correct, full and DPOR", shmProcs, shmCrashes)
		chk(full.Executions == shmFullExecutions && dpor.Executions == shmDPORExecutions,
			"shm: %d full / %d DPOR executions (pinned %d / %d)", full.Executions, dpor.Executions, shmFullExecutions, shmDPORExecutions)
		rep.set("shm.executions_full", "count", float64(full.Executions))
		rep.set("shm.executions_dpor", "count", float64(dpor.Executions))
		return float64(full.Executions + dpor.Executions)
	}))
	runs = append(runs, timed("flp", func() float64 {
		full := flp.Explore(flp.WaitMajority{Procs: flpProcs}, flpInputs, flp.Options{MaxCrashes: 1})
		dpor := flp.Explore(flp.WaitMajority{Procs: flpProcs}, flpInputs, flp.Options{MaxCrashes: 1, DPOR: true})
		// Any quorum of three of 0,1,0,1 holds a 0, so every execution
		// decides 0: the configuration is 0-valent.
		clean := func(r flp.Report) bool {
			return !r.Truncated && r.AgreementViolation == "" && r.TerminationViolation == "" && len(r.Decided) == 1 && r.Decided[0]
		}
		chk(clean(full) && clean(dpor),
			"flp: wait-majority n=%d inputs %v with 1 crash always decides 0, full and DPOR", flpProcs, flpInputs)
		chk(full.Configs == flpFullConfigs && dpor.Configs == flpDPORConfigs,
			"flp: %d full / %d DPOR configurations (pinned %d / %d)", full.Configs, dpor.Configs, flpFullConfigs, flpDPORConfigs)
		rep.set("flp.configs_full", "count", float64(full.Configs))
		rep.set("flp.configs_dpor", "count", float64(dpor.Configs))
		return float64(full.Configs + dpor.Configs)
	}))
	runs = append(runs, timed("check", func() float64 {
		res, err := check.Linearizable(check.RegisterArraySpec{}, in.hist)
		bad, errBad := check.Linearizable(check.RegisterArraySpec{}, in.mutant)
		chk(err == nil && res.OK && res.Partitions == checkKeys && errBad == nil && !bad.OK,
			"check: the seeded %d-op history over %d keys linearizes (%d partitions) and its mutant does not",
			len(in.hist), checkKeys, res.Partitions)
		rep.set("check.partitions", "count", float64(res.Partitions))
		return float64(2 * len(in.hist))
	}))
	runs = append(runs, timed("amp", func() float64 {
		events := in.ampSim.Run(ampUntil)
		ref := in.ampNodes[0].Applied()
		same := len(ref) == 2
		for _, nd := range in.ampNodes[1:] {
			got := nd.Applied()
			if len(got) != len(ref) {
				same = false
				break
			}
			for i := range got {
				if got[i].ID != ref[i].ID {
					same = false
				}
			}
		}
		chk(same, "amp: all %d replicas applied the same 2 commands in the same order", ampProcs)
		chk(events == ampEvents, "amp: %d events (pinned %d)", events, ampEvents)
		rep.set("amp.events", "count", float64(events))
		return float64(events)
	}))
	runs = append(runs, timed("round", func() float64 {
		res, err := in.cvSys.Run(local.CVIterations(roundRing) + 8)
		colors := make([]int, roundRing)
		for i, p := range in.cvProcs {
			colors[i], _ = p.(*local.ColeVishkin).Output().(int)
		}
		ok := err == nil && res.AllHalted && res.Rounds == roundRounds && local.VerifyColoring(colors, 3)
		rounds := 0
		if res != nil {
			rounds = res.Rounds
		}
		chk(ok, "round: Cole–Vishkin 3-colours the 2^20 ring in %d rounds (pinned %d, log*n+3 = %d)",
			rounds, roundRounds, local.LogStar(roundRing)+3)
		return float64(roundRing * rounds)
	}))
	return runs
}

func runExplore(o options) (*report, error) {
	rep := newReport()
	var tr *Tracer
	if o.trace {
		tr = &Tracer{}
	}
	// A pass is timed in CPU time, not wall time: the engines are
	// CPU-bound, and on a shared host the wall time of a pass moves
	// with the CPU time other tenants steal from the machine.
	var setup, pass, passWall []float64
	perEngine := map[string][]engineRun{}
	start := time.Now()
	for i := 0; i < explorePasses || time.Since(start) < o.window(); i++ {
		t0 := time.Now()
		in, err := buildExplore(o.seed)
		if err != nil {
			return nil, err
		}
		t1, c1 := time.Now(), cpuTime()
		runs := explorePass(rep, in, i == 0)
		t2, c2 := time.Now(), cpuTime()
		in = nil
		runtime.GC() // the next pass starts from the same heap, not this pass's garbage
		setup = append(setup, t1.Sub(t0).Seconds())
		pass = append(pass, float64(c2-c1)/float64(time.Millisecond))
		passWall = append(passWall, float64(t2.Sub(t1))/float64(time.Millisecond))
		root := tr.Record(Span{Name: "pass", Start: t1, End: t2, Parent: -1, Req: int64(i)})
		at := t1
		for _, r := range runs {
			perEngine[r.name] = append(perEngine[r.name], r)
			tr.Record(Span{Name: r.name, Start: at, End: at.Add(r.wall), Parent: root, Req: int64(i)})
			at = at.Add(r.wall)
		}
		rep.count(len(runs), 0)
	}
	ps := Summarize(pass)
	work := 0.0
	for _, runs := range perEngine {
		work += runs[0].work
	}
	fmt.Printf("passes %d: setup median %.3f s, pass CPU p50 %.1f ms %s %.1f ms; passes %.0f ms CPU, %.0f ms wall\n",
		len(pass), median(setup), ps.P50, ps.TailName(), ps.Tail, pass, passWall)
	rep.set("setup_s", "s", median(setup))
	rep.set("p50_ms", "ms", ps.P50)
	rep.set("tail_ms", "ms", ps.Tail)
	rep.set("max_ops_s", "1/s", work/(ps.P50/1000))
	rep.set("rss_mb", "MB", vmHWM("/proc/self/status"))
	if !o.trace {
		return rep, nil
	}
	rep.set("trace.p50_ms", "ms", ps.P50)
	rep.set("trace.tail_ms", "ms", ps.Tail)
	for name, runs := range perEngine {
		var cpu, alloc []float64
		for _, r := range runs {
			cpu = append(cpu, float64(r.cpu)/float64(time.Millisecond))
			alloc = append(alloc, r.alloc)
		}
		ms := median(cpu)
		rep.set(name+".ms", "ms", ms)
		rep.set(name+".alloc_mb", "MB", median(alloc))
		perSec := runs[0].work / (ms / 1000)
		switch name {
		case "shm":
			rep.set("shm.exec_per_s", "1/s", perSec)
		case "flp":
			rep.set("flp.configs_per_s", "1/s", perSec)
		case "check":
			rep.set("check.ops_per_s", "1/s", perSec)
		case "amp":
			rep.set("amp.events_per_s", "1/s", perSec)
		case "round":
			rep.set("round.vertex_rounds_per_s", "1/s", perSec)
		}
	}
	for name, d := range SelfByName(tr.Spans()) {
		fmt.Printf("self %-6s %10.3f ms total\n", name, float64(d)/float64(time.Millisecond))
	}
	return rep, writeSpans(o, tr.Spans())
}
