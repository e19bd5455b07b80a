package jobq

import (
	"container/heap"

	"distbasics/internal/amp"
	"distbasics/internal/rbcast"
	"distbasics/internal/rsm"
)

// Op is the rsm.Command.Op under which queue commands ride. The rsm KV
// apply ignores unknown ops, so jobq commands coexist with put/del in
// the same replica group without touching the consensus core.
const Op = "jobq"

// Config tunes one queue replica. Zero values take the defaults.
type Config struct {
	// Grace is how long a worker must stay CONTINUOUSLY suspected before
	// the scheduler declares its lease lapsed and releases its jobs
	// (default 10 heartbeat periods' worth: 400 ticks at the runtime's
	// hbPeriod=40). Too short and a network hiccup double-executes work
	// (safe — the attempt token rejects one effect — but wasteful); too
	// long and a crashed worker's jobs stall for the full grace.
	Grace amp.Time
	// MaxPerWorker caps concurrent assignments per worker (default 4).
	MaxPerWorker int
	// StepEvery is the period of the scheduler's backstop pulse (default
	// 50). Assignment is event-driven — hosts run Step as soon as an
	// applied event makes WantsStep true — so the pulse only catches
	// what no event announces: backoff gates opening, worker leases
	// lapsing, lost proposals due for re-proposal, leadership changes.
	StepEvery amp.Time
	// ReproposeEvery is how long the scheduler waits for a proposal
	// (assign/expire) to take effect before proposing it again —
	// proposals can be lost to leader changes and partitions, and a
	// duplicate is validated away at apply time (default 8*StepEvery).
	ReproposeEvery amp.Time
	// Retry is the reassignment backoff policy.
	Retry RetryPolicy
}

func (c Config) withDefaults() Config {
	if c.Grace <= 0 {
		c.Grace = 400
	}
	if c.MaxPerWorker <= 0 {
		c.MaxPerWorker = 4
	}
	if c.StepEvery <= 0 {
		c.StepEvery = 50
	}
	if c.ReproposeEvery <= 0 {
		c.ReproposeEvery = 8 * c.StepEvery
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Node is one job-queue replica: an rsm replica whose apply stream
// feeds the queue State, plus the scheduler driver that the current Ω
// leader runs (Step). Everything here executes inside the replica's
// event loop (the amp.Sim or transport.Runtime actor), so none of it
// needs locking; hosts reach it via Sim.Schedule / Runtime.Do.
type Node struct {
	RSM *rsm.Node

	cfg  Config
	st   *State
	subs []func(ev Event, e rsm.Entry, at amp.Time)

	// eligibleAt is the leader-local backoff gate: job ID → earliest
	// reassignment time on THIS replica's clock. Every replica tracks it
	// (cheap) so whichever replica becomes leader enforces backoff.
	eligibleAt map[string]amp.Time
	// proposedAt dedups in-flight scheduler proposals (key "a/<job>" or
	// "x/<worker>") so the leader does not flood consensus re-proposing
	// every Step while a decision is in flight.
	proposedAt map[string]amp.Time
	rng        jitterRand
}

// New builds a queue replica for an n-replica group. The rsm options
// are passed through (journal, recovery, batching...); the apply hook
// is installed via rsm.WithApplyHook so a journal recovery replays the
// queue state before the node ever serves traffic.
func New(n int, cfg Config, opts ...rsm.NodeOption) *Node {
	jn := &Node{
		cfg:        cfg.withDefaults(),
		st:         NewState(),
		eligibleAt: make(map[string]amp.Time),
		proposedAt: make(map[string]amp.Time),
	}
	jn.rng = newJitterRand(jn.cfg.Retry.Seed)
	opts = append(opts, rsm.WithApplyHook(jn.onApply), rsm.WithSnapshotter(jn))
	jn.RSM = rsm.NewNode(n, opts...)
	return jn
}

// Ctx returns the context for Schedule/Do-driven proposals.
func (jn *Node) Ctx() amp.Context { return jn.RSM.Ctx() }

// State exposes the replicated queue state. Read it only inside the
// event loop (or after the simulation has stopped).
func (jn *Node) State() *State { return jn.st }

// Config returns the effective (defaulted) configuration.
func (jn *Node) Config() Config { return jn.cfg }

// Subscribe registers an event observer, fired inside the event loop
// after each applied queue command — in subscription order, which hosts
// keep deterministic by subscribing at construction time.
func (jn *Node) Subscribe(fn func(ev Event, e rsm.Entry, at amp.Time)) {
	jn.subs = append(jn.subs, fn)
}

// Propose TO-broadcasts one queue command from this replica. Must run
// inside the event loop.
func (jn *Node) Propose(ctx amp.Context, c Cmd) rbcast.MsgID {
	return jn.RSM.Submit(ctx, rsm.Command{Op: Op, Val: c})
}

// onApply consumes the replica's totally-ordered entry stream (and the
// recovery replay, via rsm.WithApplyHook): queue commands mutate the
// State; the leader-local backoff gate and proposal dedup are updated
// from the resulting event; subscribers run last.
func (jn *Node) onApply(e rsm.Entry, at amp.Time) {
	cmd, ok := e.Payload.(rsm.Command)
	if !ok || cmd.Op != Op {
		return
	}
	jc, ok := cmd.Val.(Cmd)
	if !ok {
		return
	}
	ev := jn.st.Apply(jc)
	switch ev.Kind {
	case EvAssigned:
		delete(jn.eligibleAt, ev.Job)
		delete(jn.proposedAt, "a/"+ev.Job)
	case EvRetried:
		// The attempt failed on its merits: exponential backoff.
		jn.eligibleAt[ev.Job] = at + jn.cfg.Retry.Backoff(ev.Attempt, &jn.rng)
	case EvCompleted, EvDeadLettered:
		delete(jn.eligibleAt, ev.Job)
	case EvWorkerExpired, EvWorkerLeft:
		delete(jn.proposedAt, xKey(ev.Worker))
		// Released jobs lost their worker, not the work: one base delay
		// (jittered), not the exponential curve — expiry is the lease's
		// fault, not the job's.
		for _, id := range ev.Released {
			jn.eligibleAt[id] = at + jn.cfg.Retry.Backoff(1, &jn.rng)
		}
	}
	for _, fn := range jn.subs {
		fn(ev, e, at)
	}
}

// WantsStep reports whether the replica should run Step on its next
// event-loop turn after applying ev: it is the current Ω leader and ev
// can enable an assignment. Hosts call it from a Subscribe observer and
// coalesce the wake-ups (at most one pending per replica); Step's
// proposal dedup keeps them from re-proposing in-flight commands.
func (jn *Node) WantsStep(ev Event) bool {
	return ev.Kind.enablesAssign() && jn.RSM.Omega.Leader() == jn.Ctx().ID()
}

// Step runs one scheduler pass. Hosts run it on every replica both on
// a periodic backstop pulse (Sim.Schedule loop or clock.AfterFunc +
// Runtime.Do) and on the wake-ups WantsStep asks for; only the current
// Ω leader acts, and nothing it proposes is trusted — apply-time
// validation makes stale or duplicate proposals harmless, so leadership
// flaps and split brains during partitions cost traffic, never safety.
func (jn *Node) Step(ctx amp.Context) {
	if jn.RSM.Omega.Leader() != ctx.ID() {
		return
	}
	now := ctx.Now()
	jn.expireWorkers(ctx, now)
	jn.assign(ctx, now)
}

// expireWorkers proposes CmdExpire for every joined worker whose
// suspicion has aged past the grace period — the lease-lapse half of
// the liveness policy. The detector's adaptive timeout is the lease;
// Grace is the slack that keeps one late heartbeat from costing a
// worker its assignments.
func (jn *Node) expireWorkers(ctx amp.Context, now amp.Time) {
	for _, w := range jn.st.Workers() {
		if w == ctx.ID() {
			continue // never self-expire: a leader does not suspect itself
		}
		since, ok := jn.RSM.Omega.SuspectedSince(w)
		if !ok || now-since < jn.cfg.Grace {
			continue
		}
		if !jn.shouldPropose(xKey(w), now) {
			continue
		}
		jn.Propose(ctx, Cmd{Kind: CmdExpire, Worker: w})
	}
}

// assign hands eligible Pending jobs to the least-loaded live,
// unsuspected workers, oldest submission first, respecting the
// per-worker cap and the backoff gate.
func (jn *Node) assign(ctx amp.Context, now amp.Time) {
	var cands []int
	for _, w := range jn.st.Workers() {
		if w != ctx.ID() && jn.RSM.Omega.IsSuspected(w) {
			continue // alive per the queue, but not per the detector: skip
		}
		cands = append(cands, w)
	}
	for _, c := range jn.planAssign(now, cands) {
		jn.Propose(ctx, c)
	}
}

// planAssign walks the pending index and picks each eligible job's
// worker: the least-loaded candidate below MaxPerWorker, smallest ID on
// ties (cands is sorted), until every candidate is full. A pass costs
// O(pending + candidates + picks·log candidates), independent of how
// many jobs have ever been submitted.
func (jn *Node) planAssign(now amp.Time, cands []int) []Cmd {
	if len(cands) == 0 {
		return nil
	}
	free := make(loadHeap, 0, len(cands))
	for _, w := range cands {
		if l := jn.st.Load(w); l < jn.cfg.MaxPerWorker {
			free = append(free, workerLoad{w, l})
		}
	}
	heap.Init(&free)
	var out []Cmd
	for _, j := range jn.st.pending {
		if jn.eligibleAt[j.ID] > now || !jn.shouldPropose("a/"+j.ID, now) {
			continue
		}
		if len(free) == 0 {
			delete(jn.proposedAt, "a/"+j.ID) // all workers full; retry next Step
			break
		}
		out = append(out, Cmd{Kind: CmdAssign, Job: j.ID, Worker: free[0].w, Attempt: j.Attempt + 1})
		if free[0].load++; free[0].load >= jn.cfg.MaxPerWorker {
			heap.Pop(&free)
		} else {
			heap.Fix(&free, 0)
		}
	}
	return out
}

// workerLoad is one assignment candidate with its current load.
type workerLoad struct{ w, load int }

// loadHeap orders candidates least-loaded first, smallest ID on ties.
type loadHeap []workerLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(a, b int) bool {
	return h[a].load < h[b].load || (h[a].load == h[b].load && h[a].w < h[b].w)
}
func (h loadHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *loadHeap) Push(x any)   { *h = append(*h, x.(workerLoad)) }
func (h *loadHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// shouldPropose gates duplicate scheduler proposals: a key is proposed
// at most once per ReproposeEvery until its effect (or rejection)
// clears it.
func (jn *Node) shouldPropose(key string, now amp.Time) bool {
	if t, ok := jn.proposedAt[key]; ok && now-t < jn.cfg.ReproposeEvery {
		return false
	}
	jn.proposedAt[key] = now
	return true
}

// xKey is the proposal-dedup key for expiring worker w.
func xKey(w int) string { return "x/" + itoa(w) }

// itoa avoids strconv for the tiny IDs used here.
func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
