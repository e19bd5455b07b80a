package main

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Schedule returns the due times, as offsets from the start of a
// phase, of an open-loop Poisson arrival process at rate per second
// over dur. It is a pure function of its arguments: the same seed gives
// the same schedule on every machine.
func Schedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// Pipe is one ordered request/reply channel: replies arrive in request
// order, which is how clientrpc serves one connection. Send and Recv
// may run on different goroutines.
type Pipe interface {
	Send(line []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Done is the outcome of one request. Due is zero for closed-loop
// requests, which have no schedule.
type Done struct {
	Due, Sent, Replied time.Time
	Reply              []byte
	Err                error
}

// Latency is the request's time from when it was due (open loop) or
// sent (closed loop) to its reply. Timing from the due time charges a
// stall to every request queued behind it, not just to the one that
// met it (no coordinated omission).
func (d Done) Latency() time.Duration {
	if d.Due.IsZero() {
		return d.Replied.Sub(d.Sent)
	}
	return d.Replied.Sub(d.Due)
}

// Late is how long after its due time the generator sent the request.
func (d Done) Late() time.Duration { return d.Sent.Sub(d.Due) }

var errNotSent = errors.New("not sent: pipe failed earlier")

// OpenLoop sends lines[i] on p at start+due[i], whether or not earlier
// requests have been answered, and collects every reply. A failed Send
// or Recv fails that request and every one after it on this pipe.
func OpenLoop(p Pipe, start time.Time, due []time.Duration, lines [][]byte) []Done {
	out := make([]Done, len(lines))
	sent := make(chan int, len(lines)) // one slot per request: the sender never blocks on the receiver
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		receive(p, out, sent)
	}()
	failed := false
	for i := range lines {
		out[i].Due = start.Add(due[i])
		if failed {
			out[i].Err = errNotSent
			continue
		}
		if w := time.Until(out[i].Due); w > 0 {
			time.Sleep(w)
		}
		out[i].Sent = time.Now()
		if err := p.Send(lines[i]); err != nil {
			out[i].Err = err
			failed = true
			continue
		}
		sent <- i
	}
	close(sent)
	wg.Wait()
	return out
}

// ClosedLoop keeps depth requests outstanding on p until window has
// passed, taking request i from next(i), and returns every outcome.
func ClosedLoop(p Pipe, window time.Duration, depth int, next func(i int) []byte) []Done {
	var out []Done
	var mu sync.Mutex
	slots := make(chan struct{}, depth) // semaphore: requests outstanding
	sent := make(chan int, depth)       // never holds more than the outstanding requests
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range sent {
			reply, err := p.Recv()
			mu.Lock()
			out[i].Replied, out[i].Reply, out[i].Err = time.Now(), reply, err
			mu.Unlock()
			<-slots
			if err != nil {
				p.Close()
			}
		}
	}()
	end := time.Now().Add(window)
	for i := 0; ; i++ {
		slots <- struct{}{}
		if time.Now().After(end) {
			break
		}
		line := next(i)
		mu.Lock()
		out = append(out, Done{Sent: time.Now()})
		mu.Unlock()
		if err := p.Send(line); err != nil {
			mu.Lock()
			out[i].Err = err
			mu.Unlock()
			break
		}
		sent <- i
	}
	close(sent)
	wg.Wait()
	return out
}

// receive collects replies, in order, for the request indexes the
// sender hands over.
func receive(p Pipe, out []Done, sent <-chan int) {
	var failed error
	for i := range sent {
		if failed != nil {
			out[i].Err = failed
			continue
		}
		reply, err := p.Recv()
		out[i].Replied = time.Now()
		if err != nil {
			failed = err
			out[i].Err = err
			p.Close() // unblock the sender if the peer stopped reading
			continue
		}
		out[i].Reply = reply
	}
}

// tcpPipe is a Pipe over one line-JSON client connection.
type tcpPipe struct {
	c       net.Conn
	w       *bufio.Writer
	r       *bufio.Reader
	timeout time.Duration
}

// dialPipe connects to a clientrpc address. Each Recv waits at most
// timeout for its reply.
func dialPipe(addr string, timeout time.Duration) (*tcpPipe, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &tcpPipe{c: c, w: bufio.NewWriter(c), r: bufio.NewReaderSize(c, 1<<16), timeout: timeout}, nil
}

func (p *tcpPipe) Send(line []byte) error {
	p.w.Write(line)
	p.w.WriteByte('\n')
	return p.w.Flush()
}

func (p *tcpPipe) Recv() ([]byte, error) {
	p.c.SetReadDeadline(time.Now().Add(p.timeout))
	line, err := p.r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func (p *tcpPipe) Close() error { return p.c.Close() }
