// Package jobq is a crash-resilient distributed job queue built from
// the repository's basics, composed exactly as the paper argues they
// should be (§5: failure detectors + total-order broadcast + the
// replicated state machine): the scheduler's entire state — jobs with
// their Pending→Assigned→Running→Completed/Failed lifecycle, per-job
// attempt counters and retry budgets, and the set of live workers — is
// a deterministic state machine replicated via internal/rsm, while
// everything time-dependent (worker-liveness grace, retry backoff) is
// leader-local policy layered on internal/fd's suspicion output.
//
// The split matters: replicas running on different machines do not
// share a clock, so anything in the REPLICATED state must be a pure
// function of the agreed command sequence. Commands therefore carry
// their own evidence (the attempt number as an idempotency token) and
// every transition is validated at apply time. A leader may propose a
// duplicate assignment, an expired worker may propose a completion for
// a job that was long since reassigned — the first valid command in
// the total order wins and every later conflicting one is rejected
// identically at every replica. That validation is the whole
// exactly-once argument; no replica ever needs to trust a proposer.
//
//   - Liveness: workers are replicas; internal/fd's heartbeat suspicion
//     is the worker lease. The scheduler (the Ω leader) expires a worker
//     only after its suspicion has aged past a grace period
//     (fd.Detector.SuspectedSince), releasing its Assigned/Running jobs
//     back to Pending.
//   - Retry: a failed or released attempt re-enters Pending with its
//     attempt count intact; the leader gates reassignment behind an
//     exponential, seeded-jitter backoff (RetryPolicy, mirroring
//     transport.Policy's shape).
//   - Circuit breaker: an attempt that fails (or is lost to expiry) at
//     attempt == budget parks the job in Failed — the dead-letter state.
//     Poison jobs degrade to a bounded cost instead of a hot loop.
//   - Exactly-once: Complete/Fail are valid only when worker AND attempt
//     match the job's current assignment and the job is not terminal, so
//     a reassigned-then-reappearing worker's stale completion can never
//     apply a second effect.
package jobq

import (
	"fmt"
	"sort"
)

// JobState is one position in the job lifecycle.
type JobState uint8

const (
	// Pending jobs await (re)assignment.
	Pending JobState = iota
	// Assigned jobs have a worker that has not yet reported starting.
	Assigned
	// Running jobs have a worker that reported starting the attempt.
	Running
	// Completed is terminal success; exactly one completion had effect.
	Completed
	// Failed is terminal: the dead-letter state for jobs whose retry
	// budget is exhausted (the poison-job circuit breaker).
	Failed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Assigned:
		return "assigned"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("jobstate(%d)", uint8(s))
}

// Terminal reports whether s is an end state.
func (s JobState) Terminal() bool { return s == Completed || s == Failed }

// CmdKind discriminates replicated queue commands.
type CmdKind uint8

const (
	// CmdSubmit enqueues a new job (idempotent by job ID: a duplicate
	// submit of an existing ID is rejected, so client retries are safe).
	CmdSubmit CmdKind = iota
	// CmdJoin marks a worker alive and eligible for assignment.
	CmdJoin
	// CmdLeave is a worker's voluntary departure; its jobs are released
	// like an expiry.
	CmdLeave
	// CmdAssign hands a Pending job to a worker, beginning attempt
	// job.Attempt+1. Proposed only by the scheduler (Ω leader).
	CmdAssign
	// CmdStart is the worker's acknowledgment that the attempt is
	// executing (Assigned→Running).
	CmdStart
	// CmdComplete reports attempt success. Worker+Attempt are the
	// idempotency token; a mismatch is a stale completion and is
	// rejected.
	CmdComplete
	// CmdFail reports attempt failure: back to Pending while budget
	// remains, Failed (dead-letter) once exhausted.
	CmdFail
	// CmdExpire is the scheduler's declaration that a worker's lease
	// lapsed (suspicion aged past the grace period): the worker is
	// removed and its jobs released.
	CmdExpire
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdSubmit:
		return "submit"
	case CmdJoin:
		return "join"
	case CmdLeave:
		return "leave"
	case CmdAssign:
		return "assign"
	case CmdStart:
		return "start"
	case CmdComplete:
		return "complete"
	case CmdFail:
		return "fail"
	case CmdExpire:
		return "expire"
	}
	return fmt.Sprintf("cmdkind(%d)", uint8(k))
}

// Cmd is one replicated job-queue command. It rides through consensus
// as rsm.Command{Op: "jobq", Val: Cmd{...}} — the rsm KV apply ignores
// the unknown op and the jobq layer interprets it from the OnApply
// stream, so the queue needs no changes to the consensus core.
type Cmd struct {
	Kind    CmdKind
	Job     string // job ID (submit/assign/start/complete/fail)
	Worker  int    // worker ID (join/leave/expire/assign/start/complete/fail)
	Attempt int    // idempotency token: the attempt this command is about
	Budget  int    // submit: max attempts before dead-letter
	Payload any    // submit: opaque job payload
	Result  any    // complete: job result
	Err     string // fail: failure diagnosis
}

// Job is one job's replicated record.
type Job struct {
	ID      string
	Payload any
	Budget  int // max attempts before dead-letter
	State   JobState
	Attempt int // attempts begun; while Assigned/Running, the current attempt number
	Worker  int // current assignee (Assigned/Running), else -1
	Result  any
	Err     string // last failure diagnosis (dead-letter reason once Failed)
	DoneBy  int    // worker whose completion was accepted (-1 until Completed)
	Effects int    // completions that had effect — the exactly-once oracle checks ≤ 1
}

// Counters aggregate what the state machine has processed (replicated,
// so identical across replicas at equal apply points).
type Counters struct {
	Submitted   int // jobs accepted
	Assigns     int // attempts begun
	Starts      int // attempts acknowledged Running
	Completions int // completions accepted (= total effects)
	Retries     int // failed attempts returned to Pending
	Expiries    int // worker expirations (lease lapses + voluntary leaves)
	Released    int // assignments released by expiry/leave
	DeadLetters int // jobs parked in Failed
	Stale       int // stale/conflicting commands rejected by validation
}

// EvKind classifies what one applied command did.
type EvKind uint8

const (
	// EvNop: the command was rejected as invalid in the current state
	// (duplicate submit, assign to a dead worker, double assign, ...).
	EvNop EvKind = iota
	// EvStale: a Start/Complete/Fail whose worker+attempt token did not
	// match the job's current assignment — the exactly-once rejection.
	EvStale
	EvSubmitted
	EvWorkerJoined
	EvWorkerLeft
	EvWorkerExpired
	EvAssigned
	EvStarted
	EvCompleted
	// EvRetried: a failed attempt returned the job to Pending.
	EvRetried
	// EvDeadLettered: the job's budget is exhausted; it is parked Failed.
	EvDeadLettered
)

// enablesAssign reports whether an event of kind k can make a Pending
// job assignable that was not before: new work (a submission), freed
// worker capacity (a completion, a retry, a dead letter), or a changed
// worker set (a join, an expiry, a departure). The scheduler wakes on
// these instead of waiting for its next pulse.
func (k EvKind) enablesAssign() bool {
	switch k {
	case EvSubmitted, EvCompleted, EvRetried, EvDeadLettered,
		EvWorkerJoined, EvWorkerExpired, EvWorkerLeft:
		return true
	}
	return false
}

// Event describes the effect of one applied Cmd; hosts (worker
// runners, RPC waiters, the scheduler's backoff gate) key off it.
type Event struct {
	Kind    EvKind
	Job     string
	Worker  int
	Attempt int
	// Released/Dead list jobs a worker expiry/leave returned to Pending
	// or dead-lettered, in submission order.
	Released []string
	Dead     []string
}

// State is the deterministic replicated scheduler state. It must only
// be mutated through Apply, with commands in the agreed total order;
// everything it computes is a pure function of that sequence.
//
// Besides the job records it keeps two indexes that Apply maintains
// and RestoreState rebuilds, so a scheduler pass costs
// O(pending + workers) however many jobs have ever been submitted:
// the Pending jobs in submission order, and each worker's held
// (Assigned or Running) jobs, whose count is the worker's load.
type State struct {
	jobs    map[string]*jobRec
	order   []*jobRec         // every job, in submission (apply) order
	pending []*jobRec         // the Pending jobs, in submission order
	held    map[int][]*jobRec // worker → its Assigned/Running jobs
	workers map[int]bool
	ctr     Counters
}

// jobRec is a job's record plus its submission index (its position in
// State.order), which keys the pending index.
type jobRec struct {
	Job
	seq int
}

// NewState returns an empty queue state.
func NewState() *State {
	return &State{jobs: make(map[string]*jobRec), held: make(map[int][]*jobRec), workers: make(map[int]bool)}
}

// Apply executes one command, validating it against the current state.
// Invalid commands (duplicates, stale tokens, races lost in the total
// order) are rejected identically at every replica and reported as
// EvNop/EvStale events.
func (st *State) Apply(c Cmd) Event {
	switch c.Kind {
	case CmdSubmit:
		if c.Job == "" {
			return Event{Kind: EvNop}
		}
		if _, ok := st.jobs[c.Job]; ok {
			return Event{Kind: EvNop, Job: c.Job} // duplicate submit: client retry
		}
		budget := c.Budget
		if budget < 1 {
			budget = 1
		}
		j := &jobRec{Job: Job{ID: c.Job, Payload: c.Payload, Budget: budget, State: Pending, Worker: -1, DoneBy: -1}, seq: len(st.order)}
		st.jobs[c.Job] = j
		st.order = append(st.order, j)
		st.pending = append(st.pending, j) // the newest submission sorts last
		st.ctr.Submitted++
		return Event{Kind: EvSubmitted, Job: c.Job}

	case CmdJoin:
		if st.workers[c.Worker] {
			return Event{Kind: EvNop, Worker: c.Worker}
		}
		st.workers[c.Worker] = true
		return Event{Kind: EvWorkerJoined, Worker: c.Worker}

	case CmdLeave, CmdExpire:
		if !st.workers[c.Worker] {
			return Event{Kind: EvNop, Worker: c.Worker} // already gone: duplicate expiry
		}
		delete(st.workers, c.Worker)
		st.ctr.Expiries++
		ev := Event{Kind: EvWorkerExpired, Worker: c.Worker}
		if c.Kind == CmdLeave {
			ev.Kind = EvWorkerLeft
		}
		held := st.held[c.Worker]
		delete(st.held, c.Worker)
		sort.Slice(held, func(a, b int) bool { return held[a].seq < held[b].seq })
		for _, j := range held {
			st.ctr.Released++
			j.Worker = -1
			if j.Attempt >= j.Budget {
				// The lost attempt was the last one in the budget: park it.
				j.State = Failed
				j.Err = fmt.Sprintf("worker %d lost during final attempt %d/%d", c.Worker, j.Attempt, j.Budget)
				st.ctr.DeadLetters++
				ev.Dead = append(ev.Dead, j.ID)
			} else {
				st.requeue(j)
				ev.Released = append(ev.Released, j.ID)
			}
		}
		return ev

	case CmdAssign:
		j, ok := st.jobs[c.Job]
		if !ok || j.State != Pending || !st.workers[c.Worker] ||
			c.Attempt != j.Attempt+1 || c.Attempt > j.Budget {
			return Event{Kind: EvNop, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
		}
		i := st.pendingIndex(j)
		st.pending = append(st.pending[:i], st.pending[i+1:]...)
		j.State = Assigned
		j.Worker = c.Worker
		j.Attempt = c.Attempt
		st.held[c.Worker] = append(st.held[c.Worker], j)
		st.ctr.Assigns++
		return Event{Kind: EvAssigned, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdStart:
		j, ok := st.jobs[c.Job]
		if !ok || j.State != Assigned || j.Worker != c.Worker || j.Attempt != c.Attempt {
			return st.stale(c)
		}
		j.State = Running
		st.ctr.Starts++
		return Event{Kind: EvStarted, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdComplete:
		j, ok := st.jobs[c.Job]
		if !ok || (j.State != Assigned && j.State != Running) ||
			j.Worker != c.Worker || j.Attempt != c.Attempt {
			// The idempotency rejection: the job is terminal, was
			// reassigned (different worker or attempt), or never assigned.
			return st.stale(c)
		}
		st.unhold(j)
		j.State = Completed
		j.Result = c.Result
		j.DoneBy = c.Worker
		j.Effects++
		st.ctr.Completions++
		return Event{Kind: EvCompleted, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}

	case CmdFail:
		j, ok := st.jobs[c.Job]
		if !ok || (j.State != Assigned && j.State != Running) ||
			j.Worker != c.Worker || j.Attempt != c.Attempt {
			return st.stale(c)
		}
		st.unhold(j)
		j.Err = c.Err
		if j.Attempt >= j.Budget {
			j.State = Failed
			st.ctr.DeadLetters++
			return Event{Kind: EvDeadLettered, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
		}
		st.requeue(j)
		st.ctr.Retries++
		return Event{Kind: EvRetried, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
	}
	return Event{Kind: EvNop}
}

// stale records and reports a stale-token rejection.
func (st *State) stale(c Cmd) Event {
	st.ctr.Stale++
	return Event{Kind: EvStale, Job: c.Job, Worker: c.Worker, Attempt: c.Attempt}
}

// pendingIndex returns where j sits (or belongs) in the pending index.
func (st *State) pendingIndex(j *jobRec) int {
	return sort.Search(len(st.pending), func(i int) bool { return st.pending[i].seq >= j.seq })
}

// requeue returns a job to Pending, at its submission-order place.
func (st *State) requeue(j *jobRec) {
	j.State = Pending
	i := st.pendingIndex(j)
	st.pending = append(st.pending, nil)
	copy(st.pending[i+1:], st.pending[i:])
	st.pending[i] = j
}

// unhold drops an Assigned/Running job from its worker's held set.
func (st *State) unhold(j *jobRec) {
	held := st.held[j.Worker]
	for i, h := range held {
		if h == j {
			held = append(held[:i], held[i+1:]...)
			break
		}
	}
	if len(held) == 0 {
		delete(st.held, j.Worker)
	} else {
		st.held[j.Worker] = held
	}
	j.Worker = -1
}

// reindex rebuilds the pending and held indexes from the job records
// (the restore path; Apply maintains them incrementally).
func (st *State) reindex() {
	st.pending = st.pending[:0]
	st.held = make(map[int][]*jobRec)
	for i, j := range st.order {
		j.seq = i
		switch j.State {
		case Pending:
			st.pending = append(st.pending, j)
		case Assigned, Running:
			st.held[j.Worker] = append(st.held[j.Worker], j)
		}
	}
}

// Job returns a copy of the job's record.
func (st *State) Job(id string) (Job, bool) {
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.Job, true
}

// Jobs returns copies of every job in submission order.
func (st *State) Jobs() []Job {
	out := make([]Job, 0, len(st.order))
	for _, j := range st.order {
		out = append(out, j.Job)
	}
	return out
}

// Workers returns the live worker IDs, sorted.
func (st *State) Workers() []int {
	out := make([]int, 0, len(st.workers))
	for w := range st.workers {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// Alive reports whether worker w is currently joined.
func (st *State) Alive(w int) bool { return st.workers[w] }

// Load returns how many jobs worker w holds (Assigned or Running).
func (st *State) Load(w int) int { return len(st.held[w]) }

// Counters returns the aggregate counters.
func (st *State) Counters() Counters { return st.ctr }

// RegisterWire registers the queue's wire types with reg — required on
// every process exchanging jobq traffic (transport.Register) and before
// opening a journal that may hold jobq commands (gob.Register), since
// Cmd rides inside rsm.Command's `any` payload on both paths.
func RegisterWire(reg func(any)) {
	reg(Cmd{})
}
