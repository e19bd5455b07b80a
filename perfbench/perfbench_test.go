package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfSeedRateAndDuration(t *testing.T) {
	a := Schedule(7, 200, 3*time.Second)
	b := Schedule(7, 200, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, rate and duration gave different schedules")
	}
	if reflect.DeepEqual(a, Schedule(8, 200, 3*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 500 || n > 700 {
		t.Fatalf("200/s over 3s gave %d arrivals", n)
	}
	for i, d := range a {
		if d < 0 || d >= 3*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("due[%d] = %v out of order or range", i, d)
		}
	}
}

// fakePipe answers every request at once, except that it stalls for
// stall on the stallAt-th Send (the generator is held up) or on the
// stallAt-th Recv (the server is held up, and replies come in order).
type fakePipe struct {
	queue        chan []byte
	stallAt      int
	stall        time.Duration
	inSend       bool
	sends, recvs int
}

func (f *fakePipe) Send(line []byte) error {
	if f.inSend && f.sends == f.stallAt {
		time.Sleep(f.stall)
	}
	f.sends++
	f.queue <- line
	return nil
}

func (f *fakePipe) Recv() ([]byte, error) {
	line, ok := <-f.queue
	if !ok {
		return nil, errors.New("closed")
	}
	if !f.inSend && f.recvs == f.stallAt {
		time.Sleep(f.stall)
	}
	f.recvs++
	return line, nil
}

func (f *fakePipe) Close() error { return nil }

// A single stall must show up in the latency of every request that was
// due while it lasted, not only in the one that met it.
func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	for _, inSend := range []bool{true, false} {
		const stall = 200 * time.Millisecond
		due := make([]time.Duration, 2000) // one request per millisecond
		lines := make([][]byte, len(due))
		for i := range due {
			due[i] = time.Duration(i) * time.Millisecond
			lines[i] = []byte("x")
		}
		p := &fakePipe{queue: make(chan []byte, len(due)), stallAt: 50, stall: stall, inSend: inSend}
		out := OpenLoop(p, time.Now(), due, lines)
		var lat []float64
		for _, d := range out {
			if d.Err != nil {
				t.Fatal(d.Err)
			}
			lat = append(lat, float64(d.Latency())/float64(time.Millisecond))
		}
		// The request due 100ms into the stall still waited about 100ms.
		if got := out[150].Latency(); got < 80*time.Millisecond {
			t.Errorf("inSend=%v: request due 100ms into the stall shows %v", inSend, got)
		}
		if s := Summarize(lat); s.Tail < 80 || s.P50 > 20 {
			t.Errorf("inSend=%v: p50 %.1fms %s %.1fms; want the stall in the tail only", inSend, s.P50, s.TailName(), s.Tail)
		}
		if inSend && out[150].Late() < 80*time.Millisecond {
			t.Errorf("a stalled generator must report how late it sent: %v", out[150].Late())
		}
	}
}

func TestSummaryReportsTheHighestPercentileUpToP99WithTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted input: n..1
		}
		return out
	}
	for _, c := range []struct {
		n        int
		tailName string
		tail     float64
	}{
		{10000, "p99", 9900},
		{1000, "p99", 990},
		{999, "p95", 950},
		{200, "p95", 190},
		{199, "p90", 180},
		{40, "p75", 30},
		{20, "max", 20},
	} {
		s := Summarize(xs(c.n))
		if s.N != c.n || s.TailName() != c.tailName || s.Tail != c.tail {
			t.Errorf("n=%d: got N=%d %s=%v, want %s=%v", c.n, s.N, s.TailName(), s.Tail, c.tailName, c.tail)
		}
	}
	if s := Summarize([]float64{3, 1, 2}); s.P50 != 2 {
		t.Errorf("median of 1,2,3 = %v", s.P50)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildrenInsideTheParent(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "client", Start: at(0), End: at(100), Parent: -1, Req: 1},
		{Name: "handle", Start: at(10), End: at(40), Req: 1},               // linked below
		{Name: "journal", Start: at(20), End: at(30), Parent: 1, Req: 1},   // inside handle
		{Name: "journal", Start: at(25), End: at(35), Parent: 1, Req: 1},   // overlaps the first
		{Name: "reply", Start: at(90), End: at(120), Parent: 0, Req: 1},    // sticks out of client
		{Name: "client", Start: at(200), End: at(210), Parent: -1, Req: 2}, // no children
	}
	LinkByReq(spans, "client", "handle")
	if spans[1].Parent != 0 {
		t.Fatalf("handle not linked to its client span: parent %d", spans[1].Parent)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	self := SelfTimes(spans)
	want := []float64{100 - 30 - 10, 30 - 15, 10, 10, 30, 10}
	for i, w := range want {
		if ms(self[i]) != w {
			t.Errorf("span %d (%s): self %vms, want %vms", i, spans[i].Name, ms(self[i]), w)
		}
	}
	by := SelfByName(spans)
	if ms(by["client"]) != 70 || ms(by["journal"]) != 20 {
		t.Errorf("self by name: %v", by)
	}
}

// A spell that slows one window must not move the windowed figures,
// while a slower run must.
func TestWindowedFiguresIgnoreASpellButFollowTheLevel(t *testing.T) {
	xs := make([]float64, 8*tailWindow)
	for i := range xs {
		xs[i] = float64(1 + i%100) // p50 50, p99 99 in every window
	}
	if p50, tail := windowed(xs); p50 != 50 || tail != 99 {
		t.Fatalf("steady run: p50 %v tail %v, want 50 and 99", p50, tail)
	}
	for i := 0; i < tailWindow; i++ {
		xs[i] *= 10 // the first window ran ten times slower
	}
	if p50, tail := windowed(xs); p50 != 50 || tail != 99 {
		t.Errorf("one slow window moved the figures: p50 %v tail %v", p50, tail)
	}
	for i := range xs {
		xs[i] = float64(2 * (1 + i%100))
	}
	if p50, tail := windowed(xs); p50 != 100 || tail != 198 {
		t.Errorf("a slower run reads p50 %v tail %v, want 100 and 198", p50, tail)
	}
}

// A run too short for two p99 windows takes the median of its p90
// windows, so one slow spell does not move that tail either.
func TestWindowedShortRunUsesP90Windows(t *testing.T) {
	xs := make([]float64, 4*smallTailWindow)
	for i := range xs {
		xs[i] = float64(1 + i%100) // p90 90 in every window
	}
	for i := 0; i < smallTailWindow; i++ {
		xs[i] *= 10 // the first window ran ten times slower
	}
	if _, tail := windowed(xs); tail != 90 {
		t.Errorf("short run tail %v, want 90", tail)
	}
}

// A second in which the host stole half the machine's CPU time and
// half the requests completed counts as a full second's worth.
func TestPerSecondUnstolenScalesByTheUnstolenShare(t *testing.T) {
	start := time.Unix(100, 0)
	var done []time.Time
	for sec, n := range []int{100, 50, 50, 100, 7} {
		for i := 0; i < n; i++ {
			done = append(done, start.Add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	steal := []float64{10, 10, 11, 12, 12, 12} // seconds 1 and 2 lose one of two CPUs
	w := satWindow{start: start, done: done}
	if got := perSecondUnstolen(w, steal, 2); got != 100 {
		t.Errorf("perSecondUnstolen = %v, want 100", got)
	}
	if got := perSecond([]satWindow{w}); got != 50 {
		t.Errorf("perSecond = %v, want 50: unscaled, the stolen seconds are half the run", got)
	}
}

func TestPerSecondIsTheMedianOfWholeSeconds(t *testing.T) {
	start := time.Unix(100, 0)
	var done []time.Time
	for sec, n := range []int{100, 10, 100, 100, 7} { // a stall in second 1, a partial last second
		for i := 0; i < n; i++ {
			done = append(done, start.Add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	if got := perSecond([]satWindow{{start: start, done: done}}); got != 100 {
		t.Errorf("perSecond = %v, want 100", got)
	}
}
