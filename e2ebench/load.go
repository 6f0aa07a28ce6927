package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"nbcommit/internal/shard"
)

// apiConn is one client connection to kvnode's line protocol
// (internal/nodeapi): one request line, one response line.
type apiConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// replyTimeout bounds one reply. COMMIT may legitimately wait 20 protocol
// timeouts (10 s at kvnode's defaults) for a blocked outcome.
const replyTimeout = 30 * time.Second

func dialAPI(addr string) (*apiConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &apiConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

func (a *apiConn) close() { _ = a.c.Close() }

// do sends one request line and returns the response line.
func (a *apiConn) do(line string) (string, error) {
	out, err := a.pipeline([]string{line})
	if err != nil {
		return "", err
	}
	return out[0], nil
}

// pipeline writes every request before reading the replies, which the
// server answers in order on the connection.
func (a *apiConn) pipeline(lines []string) ([]string, error) {
	if err := a.c.SetDeadline(time.Now().Add(replyTimeout)); err != nil {
		return nil, err
	}
	for _, l := range lines {
		a.w.WriteString(l)
		a.w.WriteByte('\n')
	}
	if err := a.w.Flush(); err != nil {
		return nil, fmt.Errorf("client API write: %w", err)
	}
	out := make([]string, len(lines))
	for i := range out {
		s, err := a.r.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("client API read: %w", err)
		}
		out[i] = strings.TrimRight(s, "\r\n")
	}
	return out, nil
}

// outcome is what the client learned about one write attempt.
type outcome uint8

const (
	outCommitted outcome = iota + 1
	outAborted           // COMMIT answered ABORTED
	outRefused           // a verb before COMMIT failed and the client aborted
	outUnknown           // COMMIT answered ERR: the transaction may still commit
)

// attempt is one write transaction attempt. Its value, unique to the
// attempt, is written to both keys.
type attempt struct {
	value      string
	keys       [2]string
	begin, end time.Duration // BEGIN sent, last reply received
	out        outcome
	cohort     uint8 // bit s-1 set when site s owns one of the keys
}

func (a *attempt) touches(site int) bool { return a.cohort&(1<<(site-1)) != 0 }

// op is one client operation: a write transaction (retried until it
// commits) or a one-shot snapshot read.
type op struct {
	write bool
	keys  [2]string // a read uses keys[0]
	// due is when the operation was scheduled (open loop) or first sent
	// (closed loop); latency runs from it to done.
	due, done time.Duration
	readyAt   time.Duration // open loop: when the next attempt may start
	ok        bool
	tries     int
	lastReply string // the reply that failed the latest unsuccessful attempt
}

// maxTries bounds one operation's attempts; an operation that exhausts them
// has failed.
const maxTries = 50

// generator draws operations for one workload from a seeded source.
type generator struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

const (
	crossKeys = 100000 // write-cross and site-crash key space, uniform
	hotKeys   = 1000   // read-mostly key space, zipf, prepopulated
	readShare = 0.9    // read-mostly one-shot read share
	zipfS     = 1.1
)

func newGenerator(wl string, seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	if wl == "read-mostly" {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, hotKeys-1)
	}
	return g
}

func hotKey(i uint64) string { return "h" + strconv.FormatUint(i, 10) }

func (g *generator) key() string {
	if g.zipf != nil {
		return hotKey(g.zipf.Uint64())
	}
	return "k" + strconv.Itoa(g.rng.Intn(crossKeys))
}

func (g *generator) next() *op {
	if g.zipf != nil && g.rng.Float64() < readShare {
		return &op{keys: [2]string{g.key()}}
	}
	o := &op{write: true, keys: [2]string{g.key(), ""}}
	for o.keys[1] == "" || o.keys[1] == o.keys[0] {
		o.keys[1] = g.key()
	}
	return o
}

// verbStat accumulates one kind of client-side span.
type verbStat struct {
	n   int
	sum time.Duration
}

func (v *verbStat) add(d time.Duration) { v.n++; v.sum += d }
func (v verbStat) meanMS() float64      { return ratio(ms(v.sum), float64(v.n)) }

// spans aggregates the client-side spans taken around each nodeapi verb in
// a traced run, classified by the key's owner site.
type spans struct {
	begin, putLocal, putRemote, sgetLocal, sgetRemote, commit verbStat
	verbs, keyed, keyedRemote, lockErrors, timeouts           int
	// Waterfall over committed attempts: total attempt time and the verb
	// spans inside it.
	wf                                verbStat
	wfBegin, wfPutL, wfPutR, wfCommit time.Duration
	cohortSites                       int
}

func (s *spans) merge(o *spans) {
	for _, p := range []struct{ dst, src *verbStat }{
		{&s.begin, &o.begin}, {&s.putLocal, &o.putLocal}, {&s.putRemote, &o.putRemote},
		{&s.sgetLocal, &o.sgetLocal}, {&s.sgetRemote, &o.sgetRemote}, {&s.commit, &o.commit}, {&s.wf, &o.wf},
	} {
		p.dst.n += p.src.n
		p.dst.sum += p.src.sum
	}
	s.verbs += o.verbs
	s.keyed += o.keyed
	s.keyedRemote += o.keyedRemote
	s.lockErrors += o.lockErrors
	s.timeouts += o.timeouts
	s.wfBegin += o.wfBegin
	s.wfPutL += o.wfPutL
	s.wfPutR += o.wfPutR
	s.wfCommit += o.wfCommit
	s.cohortSites += o.cohortSites
}

// worker owns one client connection.
type worker struct {
	conn   *apiConn
	router *shard.Router
	since  func() time.Duration
	traced bool
	prefix string // value prefix, unique to this worker and run

	attempts []attempt
	reads    []string // values returned by reads, for the check
	sp       spans
	last     string // the reply that failed the current attempt
}

// verb sends one request, timing it as a span in a traced run.
func (w *worker) verb(stat *verbStat, line string) (string, time.Duration, error) {
	w.sp.verbs++
	if !w.traced {
		r, err := w.conn.do(line)
		return r, 0, err
	}
	start := w.since()
	r, err := w.conn.do(line)
	d := w.since() - start
	if err == nil && stat != nil && !strings.HasPrefix(r, "ERR") {
		stat.add(d)
	}
	return r, d, err
}

// noteErr classifies an ERR reply and keeps it as the reason the attempt
// failed.
func (w *worker) noteErr(r string) {
	w.last = r
	switch {
	case strings.Contains(r, "lock wait timed out"), strings.Contains(r, "wait-die"):
		w.sp.lockErrors++
	case strings.Contains(r, "timed out"):
		w.sp.timeouts++
	}
}

// run executes one attempt of o and reports whether it succeeded. An error
// means the client connection itself failed.
func (w *worker) run(o *op) (bool, error) {
	o.tries++
	run := w.read
	if o.write {
		run = w.write
	}
	w.last = ""
	ok, err := run(o)
	if !ok && err == nil {
		o.lastReply = w.last
	}
	return ok, err
}

func (w *worker) read(o *op) (bool, error) {
	w.sp.keyed++
	st := &w.sp.sgetLocal
	if w.router.Site(o.keys[0]) != 1 {
		w.sp.keyedRemote++
		st = &w.sp.sgetRemote
	}
	r, _, err := w.verb(st, "SGETK "+o.keys[0])
	if err != nil {
		return false, err
	}
	if v, ok := strings.CutPrefix(r, "VAL "); ok {
		w.reads = append(w.reads, v)
		return true, nil
	}
	if strings.HasPrefix(r, "ERR "+errNotFound) {
		w.reads = append(w.reads, "")
		return true, nil
	}
	w.noteErr(r)
	return false, nil
}

// errNotFound starts kvnode's reply to a read of a missing key; the key
// follows it.
const errNotFound = "kv: key not found"

func (w *worker) write(o *op) (bool, error) {
	a := attempt{
		value: w.prefix + strconv.Itoa(len(w.attempts)),
		keys:  o.keys,
		begin: w.since(),
	}
	var beginD, putL, putR time.Duration
	finish := func(out outcome) {
		a.out = out
		a.end = w.since()
		w.attempts = append(w.attempts, a)
	}
	r, d, err := w.verb(&w.sp.begin, "BEGIN")
	if err != nil {
		return false, err
	}
	beginD = d
	if !strings.HasPrefix(r, "OK") {
		w.noteErr(r)
		finish(outRefused)
		return false, nil
	}
	for _, k := range o.keys {
		site := w.router.Site(k)
		a.cohort |= 1 << (site - 1)
		w.sp.keyed++
		st := &w.sp.putLocal
		if site != 1 {
			w.sp.keyedRemote++
			st = &w.sp.putRemote
		}
		r, d, err = w.verb(st, "PUTK "+k+" "+a.value)
		if err != nil {
			return false, err
		}
		if r != "OK" {
			w.noteErr(r)
			if _, _, err := w.verb(nil, "ABORT"); err != nil {
				return false, err
			}
			finish(outRefused)
			return false, nil
		}
		if site == 1 {
			putL += d
		} else {
			putR += d
		}
	}
	r, d, err = w.verb(nil, "COMMIT")
	if err != nil {
		return false, err
	}
	switch r {
	case "COMMITTED":
		finish(outCommitted)
		if w.traced {
			w.sp.commit.add(d)
			w.sp.wf.add(a.end - a.begin)
			w.sp.wfBegin += beginD
			w.sp.wfPutL += putL
			w.sp.wfPutR += putR
			w.sp.wfCommit += d
			for s := 1; s <= numSites; s++ {
				if a.touches(s) {
					w.sp.cohortSites++
				}
			}
		}
		return true, nil
	case "ABORTED":
		w.last = r
		finish(outAborted)
	default:
		w.noteErr(r)
		finish(outUnknown)
	}
	return false, nil
}

// closedLoop runs each worker's own operation stream back to back until
// stopAt; an operation is retried until it succeeds or exhausts maxTries.
func closedLoop(workers []*worker, gens []*generator, stopAt time.Duration) ([]*op, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ops  []*op
		ferr error
	)
	for i, w := range workers {
		wg.Add(1)
		go func(w *worker, g *generator) {
			defer wg.Done()
			var mine []*op
			for w.since() < stopAt {
				o := g.next()
				o.due = w.since()
				for !o.ok && o.tries < maxTries {
					ok, err := w.run(o)
					if err != nil {
						mu.Lock()
						ferr = err
						mu.Unlock()
						return
					}
					o.ok = ok
				}
				o.done = w.since()
				mine = append(mine, o)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}(w, gens[i])
	}
	wg.Wait()
	return ops, ferr
}

// arrivals draws an open-loop schedule: Poisson arrivals at rate per second
// over [0, until), each with an operation from g.
func arrivals(g *generator, rate float64, until time.Duration) []*op {
	var out []*op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= until {
			return out
		}
		o := g.next()
		o.due, o.readyAt = due, due
		out = append(out, o)
	}
}

// retryBackoff spaces an open-loop operation's attempts.
const retryBackoff = 20 * time.Millisecond

// openLoop issues each operation at its due time on the first free worker,
// whether or not earlier operations have finished. A failed attempt goes
// back in the queue retryBackoff later, so one unavailable site does not
// hold a connection the others could use. Operations still not done at
// giveUp fail.
func openLoop(workers []*worker, sched []*op, since func() time.Duration, giveUp time.Duration) error {
	work := make(chan *op)
	type result struct {
		o   *op
		err error
	}
	back := make(chan result)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for o := range work {
				ok, err := w.run(o)
				o.ok = ok
				if ok {
					o.done = w.since()
				}
				back <- result{o, err}
			}
		}(w)
	}
	defer close(back) // after the workers have exited
	defer wg.Wait()
	defer close(work)

	var ready opHeap
	next, inflight := 0, 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := since()
		for next < len(sched) && sched[next].due <= now {
			heap.Push(&ready, sched[next])
			next++
		}
		if now >= giveUp {
			ready = nil // left undone: failed
		}
		if next == len(sched) && len(ready) == 0 && inflight == 0 {
			return nil
		}
		var send chan *op
		var head *op
		wake := giveUp
		if next < len(sched) && sched[next].due < wake {
			wake = sched[next].due
		}
		if len(ready) > 0 {
			if ready[0].readyAt <= now {
				send, head = work, ready[0]
			} else if ready[0].readyAt < wake {
				wake = ready[0].readyAt
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wake - now)
		select {
		case send <- head:
			heap.Pop(&ready)
			inflight++
		case r := <-back:
			inflight--
			if r.err != nil {
				// Drain the workers before returning the error.
				go func() {
					for range back {
					}
				}()
				return r.err
			}
			if !r.o.ok && r.o.tries < maxTries {
				r.o.readyAt = since() + retryBackoff
				heap.Push(&ready, r.o)
			}
		case <-timer.C:
		}
	}
}

// opHeap orders open-loop operations by when they may next run, oldest due
// first on ties.
type opHeap []*op

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].due < h[j].due
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openLoopLatency is an open-loop operation's latency, timed from when it
// was due rather than when a worker picked it up, so queueing behind a
// stall counts. late reports whether it missed the limit; a failed
// operation is always late, and its latency runs to end.
func openLoopLatency(o *op, limit, end time.Duration) (lat time.Duration, late bool) {
	if !o.ok {
		return end - o.due, true
	}
	lat = o.done - o.due
	return lat, lat > limit
}
