package jobq

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"distbasics/internal/amp"
	"distbasics/internal/rsm"
)

// refPlanAssign is the scheduler's original assignment pass, kept as
// the differential reference for planAssign: it recounts every
// worker's load and walks every job ever submitted, on every call.
func refPlanAssign(jn *Node, now amp.Time, cands []int) []Cmd {
	load := make(map[int]int)
	for _, j := range jn.st.Jobs() {
		if j.State == Assigned || j.State == Running {
			load[j.Worker]++
		}
	}
	if len(cands) == 0 {
		return nil
	}
	var out []Cmd
	for _, j := range jn.st.Jobs() {
		if j.State != Pending || jn.eligibleAt[j.ID] > now {
			continue
		}
		if !jn.shouldPropose("a/"+j.ID, now) {
			continue
		}
		best, bestLoad := -1, 0
		for _, w := range cands {
			if load[w] >= jn.cfg.MaxPerWorker {
				continue
			}
			if best < 0 || load[w] < bestLoad {
				best, bestLoad = w, load[w]
			}
		}
		if best < 0 {
			delete(jn.proposedAt, "a/"+j.ID)
			break
		}
		out = append(out, Cmd{Kind: CmdAssign, Job: j.ID, Worker: best, Attempt: j.Attempt + 1})
		load[best]++
	}
	return out
}

// checkIndex recomputes the State's pending and held indexes from the
// job records and fails on any difference.
func checkIndex(t *testing.T, st *State, where string) {
	t.Helper()
	var pending []*jobRec
	load := make(map[int]int)
	for i, j := range st.order {
		if j.seq != i {
			t.Fatalf("%s: job %s has seq %d at order position %d", where, j.ID, j.seq, i)
		}
		switch j.State {
		case Pending:
			pending = append(pending, j)
		case Assigned, Running:
			load[j.Worker]++
		}
	}
	if !reflect.DeepEqual(pending, append([]*jobRec(nil), st.pending...)) {
		t.Fatalf("%s: pending index %v, want %v", where, recIDs(st.pending), recIDs(pending))
	}
	for w, held := range st.held {
		if len(held) == 0 {
			t.Fatalf("%s: worker %d has an empty held entry", where, w)
		}
		for _, j := range held {
			if (j.State != Assigned && j.State != Running) || j.Worker != w {
				t.Fatalf("%s: worker %d holds job %s in state %s for worker %d", where, w, j.ID, j.State, j.Worker)
			}
		}
	}
	for w, n := range load {
		if st.Load(w) != n {
			t.Fatalf("%s: worker %d load %d, want %d", where, w, st.Load(w), n)
		}
	}
}

func recIDs(recs []*jobRec) []string {
	out := make([]string, len(recs))
	for i, j := range recs {
		out[i] = j.ID
	}
	return out
}

// TestPlanAssignMatchesFullScan drives seeded random command sequences
// (valid and invalid, with snapshot→restore cycles mixed in) and checks
// before every scheduler pass that the indexed planAssign proposes
// exactly what the full-scan reference proposes, leaves the same
// proposal-dedup state behind, and that the indexes match a recount.
func TestPlanAssignMatchesFullScan(t *testing.T) {
	const workers = 5
	passes, assigns, restores := 0, 0, 0
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			MaxPerWorker:   1 + rng.Intn(3),
			ReproposeEvery: amp.Time(10 + rng.Intn(40)),
			Retry:          RetryPolicy{Base: 4, Cap: 40, Budget: 1 + rng.Intn(3), Seed: seed},
		}
		jn := New(1, cfg)
		var now amp.Time
		var ids []string
		apply := func(c Cmd) {
			jn.onApply(rsm.Entry{Payload: rsm.Command{Op: Op, Val: c}}, now)
		}
		randomCmd := func() Cmd {
			w := rng.Intn(workers)
			if len(ids) == 0 || rng.Intn(5) == 0 {
				id := fmt.Sprintf("j%d", len(ids))
				if len(ids) > 0 && rng.Intn(4) == 0 {
					id = ids[rng.Intn(len(ids))] // duplicate submit
				} else {
					ids = append(ids, id)
				}
				return Cmd{Kind: CmdSubmit, Job: id, Budget: 1 + rng.Intn(3)}
			}
			j, _ := jn.st.Job(ids[rng.Intn(len(ids))])
			attempt := j.Attempt
			if rng.Intn(6) == 0 {
				attempt = rng.Intn(4) // usually a stale token
			}
			if j.Worker >= 0 && rng.Intn(4) > 0 {
				w = j.Worker
			}
			switch k := rng.Intn(10); {
			case k < 2:
				return Cmd{Kind: CmdJoin, Worker: w}
			case k < 3:
				return Cmd{Kind: []CmdKind{CmdLeave, CmdExpire}[rng.Intn(2)], Worker: w}
			case k < 4:
				return Cmd{Kind: CmdAssign, Job: j.ID, Worker: w, Attempt: j.Attempt + 1}
			case k < 6:
				return Cmd{Kind: CmdStart, Job: j.ID, Worker: w, Attempt: attempt}
			case k < 8:
				return Cmd{Kind: CmdComplete, Job: j.ID, Worker: w, Attempt: attempt}
			default:
				return Cmd{Kind: CmdFail, Job: j.ID, Worker: w, Attempt: attempt, Err: "boom"}
			}
		}

		for step := 0; step < 200; step++ {
			now += amp.Time(rng.Intn(6))
			var cands []int
			for _, w := range jn.st.Workers() {
				if rng.Intn(5) > 0 { // the rest are suspected
					cands = append(cands, w)
				}
			}
			dedup := maps.Clone(jn.proposedAt)
			got := jn.planAssign(now, cands)
			gotDedup := jn.proposedAt
			jn.proposedAt = dedup
			want := refPlanAssign(jn, now, cands)
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: indexed pass proposed %+v, full scan %+v", where, got, want)
			}
			if !maps.Equal(gotDedup, jn.proposedAt) {
				t.Fatalf("%s: dedup state %v, full scan %v", where, gotDedup, jn.proposedAt)
			}
			checkIndex(t, jn.st, where)
			passes++
			assigns += len(got)

			for _, c := range got {
				if rng.Intn(4) > 0 { // the rest are lost proposals
					apply(c)
				}
			}
			for k := rng.Intn(5); k > 0; k-- {
				apply(randomCmd())
			}
			if rng.Intn(25) == 0 {
				data, err := jn.SnapshotState()
				if err != nil {
					t.Fatalf("%s: snapshot: %v", where, err)
				}
				fresh := New(1, cfg)
				if err := fresh.RestoreState(data); err != nil {
					t.Fatalf("%s: restore: %v", where, err)
				}
				if !reflect.DeepEqual(fresh.st.Jobs(), jn.st.Jobs()) || fresh.st.Counters() != jn.st.Counters() {
					t.Fatalf("%s: restored state differs from the snapshotted one", where)
				}
				checkIndex(t, fresh.st, where+" (restored)")
				// The leader-local caches are not in the snapshot; carry
				// them over so the passes stay comparable.
				fresh.eligibleAt, fresh.proposedAt = jn.eligibleAt, jn.proposedAt
				jn = fresh
				restores++
			}
		}
	}
	if assigns == 0 || restores == 0 {
		t.Fatalf("sequences exercised too little: %d passes, %d assigns, %d restores", passes, assigns, restores)
	}
	t.Logf("%d passes, %d proposed assigns, %d restores", passes, assigns, restores)
}
