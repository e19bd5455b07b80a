package main

import (
	"testing"
	"time"

	"distbasics/internal/clientrpc"
)

// TestRunWokenNotPulsed pins event-driven scheduling: with the
// scheduler pulse stretched to 5s, a "run" of a 2ms job on a 3-node
// cluster must still return well inside a second, so the assignment
// came from the submission's wake-up, not from the pulse.
func TestRunWokenNotPulsed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 3-node TCP cluster")
	}
	const nodes = 3
	peers, err := allocAddrs(nodes)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := allocAddrs(nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Peers: peers, Clients: clients, Journals: make([]string, nodes), StepTicks: 2500}
	for id := 0; id < nodes; id++ {
		s, err := startServer(cfg, id)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		t.Cleanup(func() {
			s.rt.Stop()
			s.rpc.Close()
			s.tcp.Close()
		})
	}

	cl := clientrpc.NewClient(clients[1])
	defer cl.Close()
	// Workers join by their own proposals, not the scheduler's, so
	// waiting for all three needs no pulse either.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := cl.Call(clientrpc.Request{Op: "stat"}, time.Second)
		if m, _ := resp.Val.(map[string]any); err == nil {
			if ws, _ := m["workers"].([]any); len(ws) == nodes {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers did not join within 10s: %+v %v", resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, id := range []string{"w1", "w2", "w3"} {
		start := time.Now()
		resp, err := cl.Call(clientrpc.Request{Op: "run", Key: id, Val: map[string]any{"cost_ms": 2}}, 10*time.Second)
		took := time.Since(start)
		if err != nil || !resp.OK {
			t.Fatalf("run %s: %+v %v", id, resp, err)
		}
		if m, _ := resp.Val.(map[string]any); m["state"] != "completed" {
			t.Fatalf("run %s ended %v", id, resp.Val)
		}
		if took >= time.Second {
			t.Fatalf("run %s took %v with a 5s pulse: assignment waited for the pulse", id, took)
		}
		t.Logf("run %s: %v", id, took)
	}
}
