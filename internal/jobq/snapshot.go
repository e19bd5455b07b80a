package jobq

import (
	"bytes"
	"encoding/gob"
)

// The queue state rides rsm journal snapshots (rsm.Snapshotter): when a
// replica's journal compacts, the full replicated scheduler state —
// jobs, submission order, live workers, counters — is captured behind
// the snapshot, and a recovery restores it before the journal-suffix
// replay re-applies newer commands through the normal apply hook. The
// State's scheduling indexes (pending set, per-worker holdings) are
// derived from the job records and rebuilt on restore; the
// leader-local scheduling caches (backoff gate, proposal dedup) are
// deliberately absent too: they are per-replica state and rebuild as
// the restarted replica observes the queue.

// stateWire is the exported gob shadow of State.
type stateWire struct {
	Jobs    map[string]Job
	Order   []string
	Workers map[int]bool
	Ctr     Counters
}

// SnapshotState implements rsm.Snapshotter.
func (jn *Node) SnapshotState() ([]byte, error) {
	w := stateWire{
		Jobs:    make(map[string]Job, len(jn.st.jobs)),
		Order:   make([]string, 0, len(jn.st.order)),
		Workers: make(map[int]bool, len(jn.st.workers)),
		Ctr:     jn.st.ctr,
	}
	for _, j := range jn.st.order {
		w.Jobs[j.ID] = j.Job
		w.Order = append(w.Order, j.ID)
	}
	for id, live := range jn.st.workers {
		w.Workers[id] = live
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements rsm.Snapshotter: it replaces the queue state
// wholesale (recovery runs before the replica serves anything).
func (jn *Node) RestoreState(data []byte) error {
	var w stateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	st := NewState()
	for _, id := range w.Order {
		j := &jobRec{Job: w.Jobs[id]}
		st.jobs[id] = j
		st.order = append(st.order, j)
	}
	for id, live := range w.Workers {
		st.workers[id] = live
	}
	st.ctr = w.Ctr
	st.reindex()
	jn.st = st
	return nil
}
