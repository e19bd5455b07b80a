package distbasics_test

// One benchmark per experiment of cmd/basicsbench's experiment index
// (E1–E16; `go run ./cmd/basicsbench -list` prints it). The paper's "evaluation" is its set of quantitative claims;
// each bench regenerates the corresponding number and reports it as a
// benchmark metric (rounds, Δ-latency, configurations, executions) next
// to the usual ns/op.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"distbasics/internal/abd"
	"distbasics/internal/agreement"
	"distbasics/internal/amp"
	"distbasics/internal/check"
	"distbasics/internal/dynnet"
	"distbasics/internal/fd"
	"distbasics/internal/flp"
	"distbasics/internal/graph"
	"distbasics/internal/local"
	"distbasics/internal/madv"
	"distbasics/internal/mpcons"
	"distbasics/internal/procadv"
	"distbasics/internal/rbcast"
	"distbasics/internal/round"
	"distbasics/internal/rsm"
	"distbasics/internal/shm"
	"distbasics/internal/universal"
)

// BenchmarkE1ColeVishkin colors rings of growing size; the "rounds"
// metric must stay within log*n+3 while n grows by orders of magnitude.
func BenchmarkE1ColeVishkin(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("ring-n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var rounds int
			for i := 0; i < b.N; i++ {
				procs := local.NewColeVishkinRing(n)
				sys, err := round.NewSystem(graph.Ring(n), procs, round.WithParallelCompute())
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run(local.CVIterations(n) + 8)
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(local.LogStar(n)+3), "log*n+3")
		})
	}
}

// BenchmarkE2TreeBroadcast floods inputs through per-round-changing
// spanning trees; the metric is dissemination rounds vs the n−1 bound.
func BenchmarkE2TreeBroadcast(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var worst int
			for i := 0; i < b.N; i++ {
				inputs := make([]any, n)
				for j := range inputs {
					inputs[j] = j
				}
				procs := dynnet.NewTreeFlood(inputs, n-1)
				sys, err := round.NewSystem(graph.Complete(n), procs,
					round.WithAdversary(madv.NewSpanningTree(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(n - 1); err != nil {
					b.Fatal(err)
				}
				rounds, complete := dynnet.DisseminationTime(procs)
				if !complete {
					b.Fatalf("dissemination incomplete within n-1 rounds")
				}
				if rounds > worst {
					worst = rounds
				}
			}
			b.ReportMetric(float64(worst), "rounds")
			b.ReportMetric(float64(n-1), "bound")
		})
	}
}

// BenchmarkE3TourSeparation runs the exhaustive TOUR-adversary search
// that finds a consensus violation (the SMPn[TOUR] ≃T wait-free R/W
// separation); the metric counts explored executions.
func BenchmarkE3TourSeparation(b *testing.B) {
	b.ReportAllocs()
	inputs := []int{1, 0}
	var execs int
	for i := 0; i < b.N; i++ {
		ex := &dynnet.Explorer{
			Base:     graph.Complete(2),
			Choices:  dynnet.TournamentChoices(2),
			NewProcs: dynnet.NewFloodMin(inputs, 4),
			Rounds:   4,
			Check:    dynnet.CheckConsensus(inputs),
		}
		v, count, err := ex.Run()
		if err != nil {
			b.Fatal(err)
		}
		if v == nil {
			b.Fatal("expected a violating TOUR strategy")
		}
		execs = count
	}
	b.ReportMetric(float64(execs), "executions")
}

// BenchmarkE4Hierarchy exhaustively verifies 2-process consensus from
// each level-≥2 object, and finds the register-only violation.
func BenchmarkE4Hierarchy(b *testing.B) {
	for _, e := range agreement.Hierarchy() {
		e := e
		if e.Factory == nil {
			continue
		}
		b.Run(e.Object, func(b *testing.B) {
			b.ReportAllocs()
			var execs int
			for i := 0; i < b.N; i++ {
				res := shm.Explore(shm.ExploreOpts{
					Factory: func() *shm.Run {
						c := e.Factory(2)
						return &shm.Run{Bodies: []func(*shm.Proc) any{
							func(p *shm.Proc) any { return c.Propose(p, 0) },
							func(p *shm.Proc) any { return c.Propose(p, 1) },
						}}
					},
					MaxCrashes: 1,
					Check: func(out *shm.Outcome) string {
						return agreement.CheckConsensusOutcome(out, []any{0, 1})
					},
					MaxExecutions: 300_000,
				})
				wantViolation := e.ConsensusNumber == 1
				if (res.Violation != "") != wantViolation {
					b.Fatalf("%s: violation=%q, wantViolation=%v", e.Object, res.Violation, wantViolation)
				}
				execs = res.Executions
			}
			b.ReportMetric(float64(execs), "executions")
		})
	}
}

// BenchmarkE5Universal drives Herlihy's universal construction: n
// processes × ops increments on a constructed counter under a random
// schedule, at the paper's toy size and at the rebuilt engine's scale
// target (n=8 × 64 ops).
func BenchmarkE5Universal(b *testing.B) {
	for _, cfg := range []struct{ n, ops int }{{3, 8}, {8, 64}} {
		cfg := cfg
		b.Run(fmt.Sprintf("n=%d,ops=%d", cfg.n, cfg.ops), func(b *testing.B) {
			b.ReportAllocs()
			n, ops := cfg.n, cfg.ops
			for i := 0; i < b.N; i++ {
				u := universal.NewUniversal(n, universal.CounterSpec{})
				bodies := make([]func(*shm.Proc) any, n)
				for j := 0; j < n; j++ {
					bodies[j] = func(p *shm.Proc) any {
						h := u.Handle(p)
						for k := 0; k < ops; k++ {
							h.Invoke(universal.AddOp{Delta: 1})
						}
						return nil
					}
				}
				out := shm.Execute(&shm.Run{Bodies: bodies}, shm.NewRandomPolicy(int64(i)), 20_000_000)
				for j := 0; j < n; j++ {
					if !out.Finished[j] {
						b.Fatal("wait-freedom violated")
					}
				}
			}
			b.ReportMetric(float64(n*ops), "ops/run")
		})
	}
}

// BenchmarkE6KUniversal drives the (k,ℓ)-universal construction and
// reports how many of the k objects progressed.
func BenchmarkE6KUniversal(b *testing.B) {
	b.ReportAllocs()
	const k, l, n, rounds = 4, 2, 3, 10
	var progressed int
	for i := 0; i < b.N; i++ {
		specs := make([]universal.SeqSpec, k)
		for j := range specs {
			specs[j] = universal.CounterSpec{}
		}
		u := universal.NewKUniversal(n, specs, l)
		lens := make([][]int, n)
		bodies := make([]func(*shm.Proc) any, n)
		for j := 0; j < n; j++ {
			j := j
			bodies[j] = func(p *shm.Proc) any {
				h := u.Handle(p)
				for r := 0; r < rounds; r++ {
					for o := 0; o < k; o++ {
						if h.Done(o) {
							h.Submit(o, universal.AddOp{Delta: 1})
						}
					}
					h.Step()
				}
				ls := make([]int, k)
				for o := 0; o < k; o++ {
					ls[o] = len(h.Log(o))
				}
				lens[j] = ls
				return nil
			}
		}
		shm.Execute(&shm.Run{Bodies: bodies}, shm.NewRandomPolicy(int64(i)), 0)
		progressed = 0
		for o := 0; o < k; o++ {
			for j := 0; j < n; j++ {
				if lens[j] != nil && lens[j][o] > 0 {
					progressed++
					break
				}
			}
		}
		if progressed < l {
			b.Fatalf("only %d objects progressed, want >= %d", progressed, l)
		}
	}
	b.ReportMetric(float64(progressed), "objects-progressed")
}

// BenchmarkE7KSet runs the obstruction-free k-set agreement to solo
// termination and reports the register count (n−k+1). The n=64 entry is
// the rebuilt engine's scale target.
func BenchmarkE7KSet(b *testing.B) {
	for _, nk := range [][2]int{{8, 3}, {16, 5}, {64, 9}} {
		n, k := nk[0], nk[1]
		b.Run(fmt.Sprintf("n=%d,k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			var regs int
			for i := 0; i < b.N; i++ {
				o := agreement.NewOFKSet(n, k)
				regs = o.RegisterCount()
				bodies := make([]func(*shm.Proc) any, n)
				for j := 0; j < n; j++ {
					j := j
					bodies[j] = func(p *shm.Proc) any { return o.Propose(p, j) }
				}
				pol := &shm.SoloPolicy{Rng: rand.New(rand.NewSource(int64(i))), Prefix: 30, Solo: i % n}
				out := shm.Execute(&shm.Run{Bodies: bodies}, pol, 5_000_000)
				if !out.Finished[i%n] {
					b.Fatal("solo process did not terminate")
				}
			}
			b.ReportMetric(float64(regs), "registers")
			b.ReportMetric(float64(n-k+1), "n-k+1")
		})
	}
}

// BenchmarkE8ReliableBroadcast broadcasts with a mid-send crash at n=50
// and verifies all-or-none delivery; the metric counts network messages.
func BenchmarkE8ReliableBroadcast(b *testing.B) {
	const n = 50
	var msgs int
	for i := 0; i < b.N; i++ {
		delivered := make([]int, n)
		procs := make([]amp.Process, n)
		rels := make([]*rbcast.Reliable, n)
		stacks := make([]*amp.Stack, n)
		for j := 0; j < n; j++ {
			j := j
			rels[j] = rbcast.NewReliable(func(rbcast.MsgID, any) { delivered[j]++ })
			stacks[j] = amp.NewStack(rels[j])
			procs[j] = stacks[j]
		}
		sim := amp.NewSim(procs, amp.WithSeed(int64(i)))
		sim.CrashAfterSends(0, 1+i%(n-1)) // crash mid-broadcast, never before the first send
		sim.Schedule(1, func() { rels[0].Broadcast(stacks[0].Ctx(0), "m") })
		sim.Run(0)
		got := 0
		for j := 1; j < n; j++ {
			if delivered[j] > 0 {
				got++
			}
		}
		if got != 0 && got != n-1 {
			b.Fatalf("all-or-none violated: %d/%d", got, n-1)
		}
		msgs = sim.MessagesSent()
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkE9ABD measures the ABD register's operation latencies in Δ at
// the paper's toy size, then drives whole read/write workloads at sizes
// up to n=2048 — the calendar-queue simulator's scale target.
func BenchmarkE9ABD(b *testing.B) {
	const delta = 10
	mk := func(n int, fast bool) (*amp.Sim, []*abd.Register, []*amp.Stack) {
		regs := make([]*abd.Register, n)
		stacks := make([]*amp.Stack, n)
		procs := make([]amp.Process, n)
		for i := 0; i < n; i++ {
			r := abd.NewRegister(n, 0)
			r.FastRead = fast
			regs[i] = r
			stacks[i] = amp.NewStack(r)
			procs[i] = stacks[i]
		}
		return amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: delta})), regs, stacks
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var lat amp.Time
		for i := 0; i < b.N; i++ {
			sim, regs, stacks := mk(5, false)
			sim.Schedule(1, func() { regs[0].Write(stacks[0].Ctx(0), i, func(l amp.Time) { lat = l }) })
			sim.Run(0)
		}
		b.ReportMetric(float64(lat)/delta, "Δ")
	})
	b.Run("read-classic", func(b *testing.B) {
		b.ReportAllocs()
		var lat amp.Time
		for i := 0; i < b.N; i++ {
			sim, regs, stacks := mk(5, false)
			sim.Schedule(1, func() { regs[0].Write(stacks[0].Ctx(0), i, nil) })
			sim.Schedule(1000, func() { regs[3].Read(stacks[3].Ctx(0), func(_ any, l amp.Time) { lat = l }) })
			sim.Run(0)
		}
		b.ReportMetric(float64(lat)/delta, "Δ")
	})
	b.Run("read-fast", func(b *testing.B) {
		b.ReportAllocs()
		var lat amp.Time
		for i := 0; i < b.N; i++ {
			sim, regs, stacks := mk(5, true)
			sim.Schedule(1, func() { regs[0].Write(stacks[0].Ctx(0), i, nil) })
			sim.Schedule(1000, func() { regs[3].Read(stacks[3].Ctx(0), func(_ any, l amp.Time) { lat = l }) })
			sim.Run(0)
		}
		b.ReportMetric(float64(lat)/delta, "Δ")
	})
	for _, n := range []int{256, 2048} {
		n := n
		b.Run(fmt.Sprintf("scale-n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var events int
			for i := 0; i < b.N; i++ {
				sim, regs, stacks := mk(n, false)
				ops := 0
				var chain func()
				chain = func() {
					if ops >= 4 {
						return
					}
					ops++
					regs[0].Write(stacks[0].Ctx(0), ops, func(l amp.Time) {
						if l != 2*delta {
							b.Errorf("write latency %dΔ, want 2Δ", l/delta)
						}
						reader := 1 + ops%n
						regs[reader].Read(stacks[reader].Ctx(0), func(_ any, l amp.Time) {
							if l != 4*delta {
								b.Errorf("read latency %dΔ, want 4Δ", l/delta)
							}
							chain()
						})
					})
				}
				sim.Schedule(1, chain)
				events = sim.Run(0)
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkE10RSM sequences commands through the replicated state
// machine at n=5 with one crash (the metric is commands applied), then at
// n=256 replicas over a short horizon — the all-to-all heartbeat storms
// make this the simulator's densest per-tick delivery batches.
func BenchmarkE10RSM(b *testing.B) {
	b.Run("n=5", benchRSMSmall)
	b.Run("scale-n=256", benchRSMScale)
}

func benchRSMSmall(b *testing.B) {
	const n = 5
	b.ReportAllocs()
	var applied int
	for i := 0; i < b.N; i++ {
		nodes := make([]*rsm.Node, n)
		procs := make([]amp.Process, n)
		for j := 0; j < n; j++ {
			nodes[j] = rsm.NewNode(n)
			procs[j] = nodes[j].Stack
		}
		sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.FixedDelay{D: 2}))
		for c := 0; c < 4; c++ {
			c := c
			sim.Schedule(amp.Time(10+40*c), func() {
				nd := nodes[1+c%3]
				nd.Submit(nd.Ctx(), rsm.Command{Op: "put", Key: fmt.Sprintf("k%d", c), Val: c})
			})
		}
		sim.CrashAt(4, 60)
		sim.Run(500_000)
		applied = len(nodes[0].Applied())
		for j := 1; j < n-1; j++ {
			log := nodes[j].Applied()
			if len(log) != applied {
				b.Fatalf("replica %d applied %d, replica 0 applied %d", j, len(log), applied)
			}
			ref := nodes[0].Applied()
			for s := range log {
				if log[s].ID != ref[s].ID {
					b.Fatal("replicas diverge")
				}
			}
		}
	}
	b.ReportMetric(float64(applied), "cmds")
}

func benchRSMScale(b *testing.B) {
	const n = 256
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		nodes := make([]*rsm.Node, n)
		procs := make([]amp.Process, n)
		for j := 0; j < n; j++ {
			nodes[j] = rsm.NewNode(n)
			nodes[j].Omega.Period = 32
			procs[j] = nodes[j].Stack
		}
		sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 1}))
		sim.Schedule(1, func() {
			nodes[1].Submit(nodes[1].Ctx(), rsm.Command{Op: "put", Key: "x", Val: i})
		})
		events = sim.Run(150)
		ref := nodes[0].Applied()
		if len(ref) != 1 {
			b.Fatalf("replica 0 applied %d commands, want 1", len(ref))
		}
		for j := 1; j < n; j++ {
			log := nodes[j].Applied()
			if len(log) != 1 || log[0].ID != ref[0].ID {
				b.Fatalf("replica %d diverges", j)
			}
		}
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkE11BenOr reports the mean decision round of Ben-Or's
// randomized consensus as n grows (terminates with probability 1).
func BenchmarkE11BenOr(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			total, runs := 0, 0
			for i := 0; i < b.N; i++ {
				decs := make([]bool, n)
				bos := make([]*mpcons.BenOr, n)
				procs := make([]amp.Process, n)
				for j := 0; j < n; j++ {
					j := j
					bos[j] = mpcons.NewBenOr(j%2, func(any, amp.Time) { decs[j] = true })
					procs[j] = amp.NewStack(bos[j])
				}
				sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 10}))
				sim.CrashAt(n-1, 25)
				sim.Run(3_000_000)
				worst := 0
				for j := 0; j < n-1; j++ {
					if !decs[j] {
						b.Fatal("Ben-Or failed to terminate")
					}
					if r := bos[j].Rounds(); r > worst {
						worst = r
					}
				}
				total += worst
				runs++
			}
			b.ReportMetric(float64(total)/float64(runs), "rounds")
		})
	}
}

// BenchmarkE12Omega measures Ω's stabilization time after GST with a
// leader crash.
func BenchmarkE12Omega(b *testing.B) {
	const n, gst = 5, 500
	var tau amp.Time
	for i := 0; i < b.N; i++ {
		dets := make([]*fd.Detector, n)
		procs := make([]amp.Process, n)
		for j := 0; j < n; j++ {
			dets[j] = fd.NewDetector(n)
			procs[j] = amp.NewStack(dets[j])
		}
		sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.GSTDelay{
			GST: gst, BeforeMin: 1, BeforeMax: 90, AfterMin: 1, AfterMax: 4,
		}))
		sim.CrashAt(0, 700)
		sim.Run(30_000)
		tau = 0
		leaders := map[int]bool{}
		for j := 1; j < n; j++ {
			t, l := dets[j].StabilizationTime()
			leaders[l] = true
			if t > tau {
				tau = t
			}
		}
		if len(leaders) != 1 {
			b.Fatal("leaders did not converge")
		}
	}
	b.ReportMetric(float64(tau), "stabilization-t")
	b.ReportMetric(float64(gst), "gst")
}

// BenchmarkE13Indulgent measures Synod's decision latency as a function
// of the GST (liveness tracks Ω's stabilization; safety is checked).
func BenchmarkE13Indulgent(b *testing.B) {
	for _, gst := range []amp.Time{100, 800} {
		b.Run(fmt.Sprintf("gst=%d", gst), func(b *testing.B) {
			const n = 4
			var latest amp.Time
			for i := 0; i < b.N; i++ {
				decs := make([]any, n)
				procs := make([]amp.Process, n)
				latest = 0
				for j := 0; j < n; j++ {
					j := j
					det := fd.NewDetector(n)
					syn := mpcons.NewSynod(j*10, det, func(v any, at amp.Time) {
						decs[j] = v
						if at > latest {
							latest = at
						}
					})
					procs[j] = amp.NewStack(det, syn)
				}
				sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.GSTDelay{
					GST: gst, BeforeMin: 1, BeforeMax: 150, AfterMin: 1, AfterMax: 4,
				}))
				sim.Run(400_000)
				var common any
				for j := 0; j < n; j++ {
					if decs[j] == nil {
						b.Fatal("undecided")
					}
					if common == nil {
						common = decs[j]
					} else if common != decs[j] {
						b.Fatal("agreement violated")
					}
				}
			}
			b.ReportMetric(float64(latest), "decided-t")
		})
	}
}

// BenchmarkE14Condition runs condition-based consensus on a legal
// vector (max > 2t occurrences) to completion.
func BenchmarkE14Condition(b *testing.B) {
	const n = 5
	inputs := []int{7, 7, 7, 7, 7}
	if !mpcons.SatisfiesCondition(inputs, (n-1)/2) {
		b.Fatal("test vector must satisfy C")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decided := 0
		procs := make([]amp.Process, n)
		for j := 0; j < n; j++ {
			cc := mpcons.NewCondition(inputs[j], func(any, amp.Time) { decided++ })
			procs[j] = amp.NewStack(cc)
		}
		sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 9}))
		sim.Run(500_000)
		if decided != n {
			b.Fatalf("%d/%d decided", decided, n)
		}
	}
}

// BenchmarkE15ProcessAdversary runs the §5.4 gather harness over all 15
// crash patterns of the paper's 4-process adversary.
func BenchmarkE15ProcessAdversary(b *testing.B) {
	adv := procadv.PaperExample()
	n := adv.N()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for live := procadv.Set(1); live <= procadv.FullSet(n); live++ {
			gs := make([]*procadv.Gatherer, n)
			procs := make([]amp.Process, n)
			for j := 0; j < n; j++ {
				gs[j] = procadv.NewGatherer(adv, j, nil)
				procs[j] = gs[j]
			}
			sim := amp.NewSim(procs, amp.WithDelay(amp.FixedDelay{D: 1}))
			for j := 0; j < n; j++ {
				if !live.Contains(j) {
					sim.CrashAfterSends(j, 0)
				}
			}
			sim.Run(100_000)
			want := false
			for _, s := range adv.LiveSets() {
				if s.SubsetOf(live) {
					want = true
				}
			}
			for j := 0; j < n; j++ {
				if live.Contains(j) && gs[j].Done() != want {
					b.Fatalf("live=%v: prediction mismatch", live)
				}
			}
		}
	}
	b.ReportMetric(15, "crash-patterns")
}

// BenchmarkE16FLPBivalence explores every schedule of the
// wait-majority protocol at n=3 under one crash and reports the size of
// the configuration space backing the valence classification.
func BenchmarkE16FLPBivalence(b *testing.B) {
	b.ReportAllocs()
	var configs int
	for i := 0; i < b.N; i++ {
		rep := flp.Explore(flp.WaitMajority{Procs: 3}, []int{0, 1, 1}, flp.Options{MaxCrashes: 1})
		if rep.Valence() != flp.Bivalent {
			b.Fatal("expected a bivalent initial configuration")
		}
		configs = rep.Configs
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkE16FLPBivalenceLarge is the rebuilt explorer's scale target:
// wait-majority at n=4 under one crash — a configuration space two
// orders of magnitude beyond the seed entry — explored serially and
// with the top-level frontier fanned across workers.
func BenchmarkE16FLPBivalenceLarge(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("n=4,workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var configs int
			for i := 0; i < b.N; i++ {
				rep := flp.Explore(flp.WaitMajority{Procs: 4}, []int{0, 1, 1, 1},
					flp.Options{MaxCrashes: 1, MaxConfigs: 50_000_000, Workers: workers})
				if rep.Valence() != flp.Bivalent {
					b.Fatal("expected a bivalent initial configuration")
				}
				if rep.Truncated {
					b.Fatal("exploration truncated")
				}
				configs = rep.Configs
			}
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations: quantify the design choices the engines rest on.
// ---------------------------------------------------------------------------

// BenchmarkAblationBroadcastCost compares the message complexity of the
// three broadcast variants at n=50: best-effort sends n messages,
// reliable relays (n per receiver), uniform adds a majority-ack round.
// The "msgs" metric is what the reliability guarantee costs.
func BenchmarkAblationBroadcastCost(b *testing.B) {
	const n = 50
	variants := []struct {
		name string
		mk   func(d rbcast.Deliver) amp.Component
	}{
		{"best-effort", func(d rbcast.Deliver) amp.Component { return rbcast.NewBestEffort(d) }},
		{"reliable", func(d rbcast.Deliver) amp.Component { return rbcast.NewReliable(d) }},
		{"uniform", func(d rbcast.Deliver) amp.Component { return rbcast.NewUniform(n, d) }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int
			for i := 0; i < b.N; i++ {
				delivered := 0
				stacks := make([]*amp.Stack, n)
				procs := make([]amp.Process, n)
				for j := 0; j < n; j++ {
					stacks[j] = amp.NewStack(v.mk(func(rbcast.MsgID, any) { delivered++ }))
					procs[j] = stacks[j]
				}
				sim := amp.NewSim(procs, amp.WithSeed(int64(i)))
				sim.Schedule(1, func() {
					switch c := stacks[0].Component(0).(type) {
					case *rbcast.BestEffort:
						c.Broadcast(stacks[0].Ctx(0), "m")
					case *rbcast.Reliable:
						c.Broadcast(stacks[0].Ctx(0), "m")
					case *rbcast.Uniform:
						c.Broadcast(stacks[0].Ctx(0), "m")
					}
				})
				sim.Run(0)
				if delivered < n {
					b.Fatalf("only %d deliveries", delivered)
				}
				msgs = sim.MessagesSent()
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkAblationParallelCompute measures the round engine's optional
// parallel compute phase on a large ring — the engine-design choice for
// big LOCAL-model experiments like E1.
func BenchmarkAblationParallelCompute(b *testing.B) {
	const n = 1 << 14
	for _, par := range []bool{false, true} {
		name := "sequential"
		var opts []round.Option
		if par {
			name = "parallel"
			opts = append(opts, round.WithParallelCompute())
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				procs := local.NewColeVishkinRing(n)
				sys, err := round.NewSystem(graph.Ring(n), procs, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Run(local.CVIterations(n) + 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCausalVsFIFO compares the ordering layers' delivery
// cost over the same reliable base: causal carries vector timestamps
// and holds back messages; FIFO only sequences per sender.
func BenchmarkAblationCausalVsFIFO(b *testing.B) {
	const n, msgs = 8, 20
	run := func(b *testing.B, causal bool) {
		for i := 0; i < b.N; i++ {
			total := 0
			stacks := make([]*amp.Stack, n)
			procs := make([]amp.Process, n)
			for j := 0; j < n; j++ {
				var comp amp.Component
				if causal {
					comp = rbcast.NewCausal(n, func(rbcast.MsgID, any) { total++ })
				} else {
					comp = rbcast.NewFIFO(func(rbcast.MsgID, any) { total++ })
				}
				stacks[j] = amp.NewStack(comp)
				procs[j] = stacks[j]
			}
			sim := amp.NewSim(procs, amp.WithSeed(int64(i)), amp.WithDelay(amp.UniformDelay{Min: 1, Max: 7}))
			sim.Schedule(1, func() {
				for k := 0; k < msgs; k++ {
					switch c := stacks[k%n].Component(0).(type) {
					case *rbcast.Causal:
						c.Broadcast(stacks[k%n].Ctx(0), k)
					case *rbcast.FIFO:
						c.Broadcast(stacks[k%n].Ctx(0), k)
					}
				}
			})
			sim.Run(0)
			if total != n*msgs {
				b.Fatalf("delivered %d, want %d", total, n*msgs)
			}
		}
	}
	b.Run("fifo", func(b *testing.B) { b.ReportAllocs(); run(b, false) })
	b.Run("causal", func(b *testing.B) { b.ReportAllocs(); run(b, true) })
}

// mkContendedHistory builds a maximally-overlapping register history:
// w(1) spans k reads (the BenchmarkAblationLinearizabilityMemo input).
func mkContendedHistory(k int) check.History {
	h := check.History{{Proc: 0, Arg: check.WriteOp{V: 1}, Call: 1, Return: int64(10*k + 10)}}
	for i := 0; i < k; i++ {
		out := 0
		if i >= k/2 {
			out = 1
		}
		h = append(h, check.Op{
			Proc: i + 1, Arg: check.ReadOp{}, Out: out,
			Call: int64(10*i + 2), Return: int64(10*i + 5),
		})
	}
	return h
}

// BenchmarkAblationLinearizabilityMemo reports the search-state count
// of the Wing–Gong checker on a contended history — the work the
// memoization bound (Lowe's refinement) keeps polynomial-ish. The
// history is built outside the timed loop so the metric is the checker
// itself; the reads=12-legacy entry runs the preserved seed checker on
// the identical input for an in-repo before/after.
func BenchmarkAblationLinearizabilityMemo(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		k := k
		h := mkContendedHistory(k)
		b.Run(fmt.Sprintf("reads=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var explored int
			for i := 0; i < b.N; i++ {
				r, err := check.Linearizable(check.RegisterSpec{Init0: 0}, h)
				if err != nil || !r.OK {
					b.Fatalf("history must linearize: %v %v", r.OK, err)
				}
				explored = r.Explored
			}
			b.ReportMetric(float64(explored), "states")
		})
	}
	hLegacy := mkContendedHistory(12)
	b.Run("reads=12-legacy", func(b *testing.B) {
		b.ReportAllocs()
		var explored int
		for i := 0; i < b.N; i++ {
			r, err := check.LinearizableLegacy(check.RegisterSpec{Init0: 0}, hLegacy)
			if err != nil || !r.OK {
				b.Fatalf("history must linearize: %v %v", r.OK, err)
			}
			explored = r.Explored
		}
		b.ReportMetric(float64(explored), "states")
	})
	// Partitioned scale entry: 8 independent contended registers checked
	// as one 104-op history across the worker pool.
	var hPart check.History
	for reg := 0; reg < 8; reg++ {
		base := int64(reg * 1000)
		for _, op := range mkContendedHistory(12) {
			op.Arg = check.KeyedOp{Key: reg, Op: op.Arg}
			op.Call += base
			op.Return += base
			hPart = append(hPart, op)
		}
	}
	for i := range hPart {
		hPart[i].Proc = i // distinct procs keep per-process sequentiality
	}
	b.Run("partitioned-8x13", func(b *testing.B) {
		b.ReportAllocs()
		var explored int
		for i := 0; i < b.N; i++ {
			r, err := check.Linearizable(check.RegisterArraySpec{Init0: 0}, hPart)
			if err != nil || !r.OK {
				b.Fatalf("history must linearize: %v %v", r.OK, err)
			}
			explored = r.Explored
		}
		b.ReportMetric(float64(explored), "states")
	})
}
