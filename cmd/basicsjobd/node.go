package main

import (
	"fmt"
	"log"
	"time"

	"distbasics/internal/amp"
	"distbasics/internal/clientrpc"
	"distbasics/internal/jobq"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
	"distbasics/internal/transport"
)

// tcpPolicy is the retry policy tuned to localhost TCP under the
// default 2ms tick (same reasoning as basicsd's).
func tcpPolicy(id int) transport.Policy {
	return transport.Policy{SendTimeout: 25, RetryBase: 10, RetryCap: 250, Seed: int64(id + 1)}
}

// hbPeriod is the runtime heartbeat period in ticks; the jobq grace
// default below is expressed in multiples of it.
const hbPeriod = 40

// Daemon-scale queue policy defaults (ticks; 2ms each by default).
// Grace = 10 heartbeats: a worker must miss ~800ms of heartbeats
// continuously before its lease lapses and its jobs are reassigned.
//
// ReproposeTicks is the critical one: it must sit well ABOVE the
// worst-case consensus round-trip on the real transport (hundreds of
// milliseconds under chaos), unlike the jobq library default of
// 8*StepEvery, which is tuned to simulation-scale decide latency. Too
// low and every scheduler pass re-broadcasts the same still-undecided
// assignment as a fresh TO payload; the duplicates swell every
// subsequent proposal batch, bigger batches slow the rounds down
// further, and the feedback loop congestion-collapses consensus (the
// observed failure mode: thousands of duplicate assigns pending, slot
// ballots in the hundreds, no decision for minutes).
const (
	defaultGraceTicks     = 10 * hbPeriod
	defaultStepTicks      = 25   // 50ms backstop pulse; queue events wake the scheduler at once
	defaultReproposeTicks = 1500 // 3s: >> a chaos-degraded consensus round
)

// defaultRunnerRetryTicks is the worker's at-least-once re-proposal
// period for joins and outcome reports (2s real time) — same reasoning
// as defaultReproposeTicks, against the jobq default of 500 ticks.
const defaultRunnerRetryTicks = 1000

// jobSpec is the replicated job payload: what a submitted job costs to
// run and how it behaves. It rides inside jobq.Cmd through consensus,
// the wire, and the journal, so every worker — including one that
// picks the job up after a reassignment — derives the same outcome for
// the same attempt.
type jobSpec struct {
	CostMS int  // execution time, milliseconds
	Fails  int  // attempts 1..Fails fail transiently
	Poison bool // every attempt fails: must dead-letter
}

// server is one running basicsjobd node: a queue replica (rsm replica
// + scheduler driver) over the TCP(+Chaos)→Resilient→Runtime stack,
// co-located with its worker runner, plus the line-JSON RPC front end.
type server struct {
	id      int
	cfg     *Config
	nd      *jobq.Node
	runner  *jobq.Runner
	rt      *transport.Runtime
	tcp     *transport.TCP
	res     *transport.Resilient
	journal *rsm.FileJournal
	clock   *transport.RealClock
	rpc     *clientrpc.Server

	// waiters maps a proposed command to its local-apply channel;
	// jobWaiters holds "run" RPCs blocked until a job turns terminal.
	// Both are touched only inside the runtime's event loop.
	waiters    map[rbcast.MsgID]chan jobq.Event
	jobWaiters map[string][]chan jobq.Job
	// waking is set while a scheduler wake-up is queued on the event
	// loop, so a burst of applied events costs one extra Step, not one
	// per event. Touched only inside the event loop.
	waking bool
}

// runServe is the `basicsjobd serve` entrypoint. Crash-stop process
// model: no graceful shutdown, the journal and the peers' anti-entropy
// carry a kill -9 through restart.
func runServe(cfgPath string, id int) error {
	cfg, err := LoadConfig(cfgPath)
	if err != nil {
		return err
	}
	if id < 0 || id >= len(cfg.Peers) {
		return fmt.Errorf("basicsjobd: node id %d out of range [0,%d)", id, len(cfg.Peers))
	}
	s, err := startServer(cfg, id)
	if err != nil {
		return err
	}
	log.Printf("basicsjobd: node %d up: peers=%s clients=%s journal=%s grace=%d ticks",
		id, s.tcp.Addr(), s.rpc.Addr(), cfg.Journals[id], s.nd.Config().Grace)
	select {}
}

// startServer builds and starts the node stack, worker runner,
// scheduler pulse, and RPC listener.
func startServer(cfg *Config, id int) (*server, error) {
	// Wire registration must precede both transport traffic and journal
	// replay (journal records carry jobq.Cmd and jobSpec through `any`
	// fields, and gob decodes by registered name).
	amp.RegisterWire(transport.Register)
	rsm.RegisterWire(transport.Register)
	jobq.RegisterWire(transport.Register)
	transport.Register(jobSpec{})

	if cfg.GraceTicks == 0 {
		cfg.GraceTicks = defaultGraceTicks
	}
	if cfg.StepTicks == 0 {
		cfg.StepTicks = defaultStepTicks
	}
	if cfg.ReproposeTicks == 0 {
		cfg.ReproposeTicks = defaultReproposeTicks
	}

	s := &server{
		id:         id,
		cfg:        cfg,
		waiters:    make(map[rbcast.MsgID]chan jobq.Event),
		jobWaiters: make(map[string][]chan jobq.Job),
	}

	// Nothing here reads rsm.Node.Applied: keeping every decoded
	// command would grow memory with the job count.
	opts := []rsm.NodeOption{rsm.WithoutAppliedLog()}
	if path := cfg.Journals[id]; path != "" {
		j, rec, err := rsm.OpenFileJournal(path)
		if err != nil {
			return nil, err
		}
		s.journal = j
		opts = append(opts, rsm.WithJournal(j))
		cr, cb := cfg.compaction()
		opts = append(opts, rsm.WithCompaction(cr, cb))
		if rec.Snap != nil || rec.NextSeq > 0 || len(rec.Accepts) > 0 || len(rec.Decides) > 0 {
			opts = append(opts, rsm.WithRecovery(rec))
		}
	}
	opts = append(opts, cfg.rsmOptions()...)
	// jobq.New installs the apply hook before recovery replay, so a
	// restarted node's queue state is rebuilt here, before any traffic.
	s.nd = jobq.New(len(cfg.Peers), cfg.jobqConfig(id), opts...)
	s.nd.RSM.Omega.Period = hbPeriod
	s.nd.Subscribe(s.onQueueEvent)

	s.clock = transport.NewRealClock(cfg.Unit())
	tcp, err := transport.NewTCP(id, cfg.Peers, transport.TCPOptions{})
	if err != nil {
		return nil, err
	}
	s.tcp = tcp
	var tr transport.Transport = tcp
	if rules := cfg.chaosRules(id); len(rules) > 0 {
		tr = transport.NewChaos(tr, s.clock, rules...)
	}
	s.res = transport.NewResilient(tr, s.clock, tcpPolicy(id))
	s.rt = transport.NewRuntime(s.res, s.clock, s.nd.RSM.Stack,
		transport.WithRuntimeSeed(int64(id+1)),
		transport.WithSuspectSource(s.nd.RSM.Omega.Suspects),
		transport.WithSuspectKick(s.res.Kick),
	)
	s.res.SetSuspected(s.rt.Suspected)

	// The worker runner executes inside the event loop; its Defer rides
	// the real clock back into the loop. This is the same Start used on
	// fresh boot and after a kill -9 — in the latter case the journal-
	// recovered state still assigns this worker its pre-crash attempts,
	// and Start re-executes them under their original tokens.
	s.runner = jobq.NewRunner(s.nd, id)
	s.runner.RetryEvery = defaultRunnerRetryTicks
	s.runner.Defer = func(d amp.Time, f func()) {
		s.clock.AfterFunc(d, func() { s.rt.Do(func(amp.Context) { f() }) })
	}
	s.runner.Cost = func(j jobq.Job) amp.Time {
		spec, _ := j.Payload.(jobSpec)
		ticks := amp.Time(time.Duration(spec.CostMS) * time.Millisecond / cfg.Unit())
		if ticks < 1 {
			ticks = 1
		}
		return ticks
	}
	s.runner.Work = func(j jobq.Job) (any, string, bool) {
		spec, _ := j.Payload.(jobSpec)
		if spec.Poison {
			return nil, "poison", false
		}
		if j.Attempt <= spec.Fails {
			return nil, fmt.Sprintf("transient failure %d/%d", j.Attempt, spec.Fails), false
		}
		return fmt.Sprintf("done:%s by %d attempt %d", j.ID, s.id, j.Attempt), "", true
	}

	s.rt.Start()
	s.rt.Do(func(amp.Context) { s.runner.Start() })

	// Scheduler backstop pulse: every replica drives Step; only the Ω
	// leader acts. Assignment itself is event-driven (onQueueEvent); the
	// pulse opens backoff gates, lapses leases and re-proposes.
	var pulse func()
	pulse = func() {
		s.rt.Do(func(amp.Context) { s.nd.Step(s.nd.Ctx()) })
		s.clock.AfterFunc(s.nd.Config().StepEvery, pulse)
	}
	s.clock.AfterFunc(s.nd.Config().StepEvery, pulse)

	rpcSrv, err := clientrpc.NewServer(cfg.Clients[id], s.handle)
	if err != nil {
		tcp.Close()
		return nil, fmt.Errorf("basicsjobd: client listen %s: %w", cfg.Clients[id], err)
	}
	s.rpc = rpcSrv
	return s, nil
}

// onQueueEvent runs inside the event loop after every applied queue
// command: it wakes the scheduler when the event can enable an
// assignment, completes proposal waiters and, on terminal transitions,
// releases "run" RPCs blocked on the job.
func (s *server) onQueueEvent(ev jobq.Event, e rsm.Entry, _ amp.Time) {
	if !s.waking && s.nd.WantsStep(ev) {
		// Do blocks on the actor mutex this handler holds, so the Step
		// runs on the loop's next turn, after the current batch applies.
		s.waking = true
		go s.rt.Do(func(amp.Context) {
			s.waking = false
			s.nd.Step(s.nd.Ctx())
		})
	}
	if ch, ok := s.waiters[e.ID]; ok {
		delete(s.waiters, e.ID)
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Kind != jobq.EvCompleted && ev.Kind != jobq.EvDeadLettered {
		return
	}
	s.finishJob(ev.Job)
	// A worker expiry can dead-letter released final-attempt jobs too.
	for _, id := range ev.Dead {
		s.finishJob(id)
	}
}

// finishJob releases every "run" waiter of a now-terminal job.
func (s *server) finishJob(id string) {
	chans, ok := s.jobWaiters[id]
	if !ok {
		return
	}
	delete(s.jobWaiters, id)
	j, have := s.nd.State().Job(id)
	if !have {
		return
	}
	for _, ch := range chans {
		select {
		case ch <- j:
		default:
		}
	}
}

// propose runs cmd through consensus and waits for its local apply,
// returning the apply-time event (which may be EvNop/EvStale for a
// validated-away duplicate — idempotent for the caller either way).
func (s *server) propose(cmd jobq.Cmd, timeout time.Duration) (jobq.Event, error) {
	ch := make(chan jobq.Event, 1)
	s.rt.Do(func(amp.Context) {
		id := s.nd.Propose(s.nd.Ctx(), cmd)
		s.waiters[id] = ch
	})
	select {
	case ev := <-ch:
		return ev, nil
	case <-time.After(timeout):
		return jobq.Event{}, fmt.Errorf("timeout after %s (op may still apply)", timeout)
	}
}

// rpcTimeout bounds one consensus round-trip; runTimeout bounds a full
// job lifetime (queueing + retries with backoff included).
const (
	rpcTimeout = 15 * time.Second
	runTimeout = 60 * time.Second
)

// jobMap serializes a job record for the JSON front end.
func jobMap(j jobq.Job) map[string]any {
	m := map[string]any{
		"id":      j.ID,
		"state":   j.State.String(),
		"attempt": j.Attempt,
		"budget":  j.Budget,
		"effects": j.Effects,
	}
	if j.State == jobq.Assigned || j.State == jobq.Running {
		m["worker"] = j.Worker
	}
	if j.State == jobq.Completed {
		m["doneBy"] = j.DoneBy
		if j.Result != nil {
			m["result"] = j.Result
		}
	}
	if j.Err != "" {
		m["err"] = j.Err
	}
	return m
}

// specFromVal decodes a submit payload {"cost_ms":N,"fails":K,
// "poison":B,"budget":M} (all optional).
func specFromVal(v any) (jobSpec, int) {
	spec := jobSpec{}
	budget := 0
	m, _ := v.(map[string]any)
	num := func(k string) int {
		f, _ := m[k].(float64)
		return int(f)
	}
	if m != nil {
		spec.CostMS = num("cost_ms")
		spec.Fails = num("fails")
		spec.Poison, _ = m["poison"].(bool)
		budget = num("budget")
	}
	return spec, budget
}

// handle serves one client request on a clientrpc pool worker.
func (s *server) handle(req clientrpc.Request) clientrpc.Response {
	switch req.Op {
	case "submit", "run":
		if req.Key == "" {
			return clientrpc.Response{Err: "submit needs a job id in \"key\""}
		}
		spec, budget := specFromVal(req.Val)
		if budget <= 0 {
			budget = s.nd.Config().Retry.Budget
		}
		var runCh chan jobq.Job
		if req.Op == "run" {
			// Register the terminal waiter BEFORE proposing, or a fast
			// completion could slip between apply and registration.
			runCh = make(chan jobq.Job, 1)
			s.rt.Do(func(amp.Context) {
				if j, ok := s.nd.State().Job(req.Key); ok && j.State.Terminal() {
					runCh <- j
					return
				}
				s.jobWaiters[req.Key] = append(s.jobWaiters[req.Key], runCh)
			})
		}
		if _, err := s.propose(jobq.Cmd{Kind: jobq.CmdSubmit, Job: req.Key, Budget: budget, Payload: spec}, rpcTimeout); err != nil {
			return clientrpc.Response{Err: err.Error()}
		}
		if req.Op == "submit" {
			return clientrpc.Response{OK: true, ID: req.Key}
		}
		select {
		case j := <-runCh:
			return clientrpc.Response{OK: true, ID: j.ID, Val: jobMap(j)}
		case <-time.After(runTimeout):
			return clientrpc.Response{Err: fmt.Sprintf("job %s not terminal after %s", req.Key, runTimeout)}
		}
	case "job":
		var resp clientrpc.Response
		s.rt.Do(func(amp.Context) {
			if j, ok := s.nd.State().Job(req.Key); ok {
				resp = clientrpc.Response{OK: true, Val: jobMap(j)}
			} else {
				resp = clientrpc.Response{Err: fmt.Sprintf("unknown job %q", req.Key)}
			}
		})
		return resp
	case "jobs":
		all := map[string]any{}
		s.rt.Do(func(amp.Context) {
			for _, j := range s.nd.State().Jobs() {
				all[j.ID] = jobMap(j)
			}
		})
		return clientrpc.Response{OK: true, Val: all, Applied: len(all)}
	case "stat":
		var n int
		var ctr jobq.Counters
		var workers []int
		s.rt.Do(func(amp.Context) {
			n = s.nd.RSM.Len()
			ctr = s.nd.State().Counters()
			workers = s.nd.State().Workers()
		})
		return clientrpc.Response{OK: true, Applied: n, Net: netStats(s.res), Journal: journalStats(s.journal), Val: map[string]any{
			"submitted":   ctr.Submitted,
			"assigns":     ctr.Assigns,
			"completions": ctr.Completions,
			"retries":     ctr.Retries,
			"expiries":    ctr.Expiries,
			"released":    ctr.Released,
			"deadLetters": ctr.DeadLetters,
			"stale":       ctr.Stale,
			"workers":     workers,
		}}
	default:
		return clientrpc.Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// journalStats snapshots the journal/compaction counters for the
// "stat" op; nil when the node runs without persistence.
func journalStats(j *rsm.FileJournal) *clientrpc.JournalStats {
	if j == nil {
		return nil
	}
	st := j.Stats()
	return &clientrpc.JournalStats{
		Records: st.Records, Bytes: st.Bytes,
		LifeRecords: st.LifeRecords, LifeBytes: st.LifeBytes,
		Snapshots: st.Snapshots, SnapBytes: st.SnapBytes, Gen: st.Gen,
		WriteErrs: st.WriteErrs, Degraded: st.Degraded,
	}
}

// netStats snapshots the Resilient layer's counters (retry-exhaustion
// drops and queue sheds are the transport's two explicit loss modes).
func netStats(res *transport.Resilient) *clientrpc.NetStats {
	st := res.Stats()
	return &clientrpc.NetStats{
		Sent:         st.Sent.Load(),
		Delivered:    st.Delivered.Load(),
		Retries:      st.Retries.Load(),
		RetryDropped: st.Dropped.Load(),
		Shed:         st.Shed.Load(),
	}
}
