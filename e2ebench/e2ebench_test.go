package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"nbcommit/internal/shard"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has 9 beyond it
		{20, 0.5, true},
		{99, 0.5, true}, // p90 of 99 has 9 beyond it
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
		{100000, 0.9999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, q*100, beyond(c.n, q))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	l := summarize(s)
	if l.p99 != 990 || l.tailQ != 0.99 || l.tail != 990 || l.mean != 500.5 {
		t.Errorf("summarize = %+v", l)
	}
}

func TestMedianSliceP99IgnoresABurstInOneSlice(t *testing.T) {
	// Six 1 s slices of 1000 samples each at 1 ms; in slice 2 every tenth
	// sample takes 50 ms. The whole window's p99 lands in the burst, the
	// median of the slice p99s does not.
	var at []time.Duration
	var lat []float64
	for i := 0; i < 6000; i++ {
		at = append(at, time.Duration(i)*time.Millisecond)
		v := 1.0
		if i/1000 == 2 && i%10 == 0 {
			v = 50
		}
		lat = append(lat, v)
	}
	if got := medianSliceP99(at, lat, 0, 6*time.Second, 1); got != 50 {
		t.Errorf("one slice: p99 = %v, want 50", got)
	}
	if got := medianSliceP99(at, lat, 0, 6*time.Second, 6); got != 1 {
		t.Errorf("six slices: median p99 = %v, want 1", got)
	}
	// Samples outside [from, to) are left out. Over [1.5 s, 3 s) the burst
	// reaches three of the four slices, so the median p99 is 50.
	if got := medianSliceP99(at, lat, 1500*time.Millisecond, 3*time.Second, 4); got != 50 {
		t.Errorf("four slices of [1.5 s, 3 s): median p99 = %v, want 50", got)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	// Due at 1 s, picked up late at 1.1 s, done 10 ms after that: the
	// latency includes the 100 ms it waited.
	o := &op{due: time.Second, done: 1110 * time.Millisecond, ok: true}
	if lat, late := openLoopLatency(o, 50*time.Millisecond, 5*time.Second); lat != 110*time.Millisecond || !late {
		t.Errorf("queued op: latency %v late %v, want 110ms late", lat, late)
	}
	o = &op{due: time.Second, done: 1010 * time.Millisecond, ok: true}
	if lat, late := openLoopLatency(o, 50*time.Millisecond, 5*time.Second); lat != 10*time.Millisecond || late {
		t.Errorf("prompt op: latency %v late %v, want 10ms on time", lat, late)
	}
	o = &op{due: time.Second}
	if lat, late := openLoopLatency(o, 50*time.Millisecond, 5*time.Second); lat != 4*time.Second || !late {
		t.Errorf("failed op: latency %v late %v, want 4s late", lat, late)
	}
}

// fakeNode answers the client protocol, stalling the first COMMIT. SGETK
// finds every key except those starting with "gone", and answers those the
// way kvnode does, with the key after the error.
func fakeNode(t *testing.T, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		sc := bufio.NewScanner(c)
		stalled := false
		for sc.Scan() {
			reply := "OK"
			switch f := strings.Fields(sc.Text()); f[0] {
			case "BEGIN":
				reply = "OK tx-1-1"
			case "COMMIT":
				if !stalled {
					stalled = true
					time.Sleep(stall)
				}
				reply = "COMMITTED"
			case "SGETK":
				reply = "VAL v-" + f[1]
				if strings.HasPrefix(f[1], "gone") {
					reply = "ERR kv: key not found: " + f[1]
				}
			}
			fmt.Fprintln(c, reply)
		}
	}()
	return ln.Addr().String()
}

func TestReadBackLeavesMissingKeysOut(t *testing.T) {
	cn, err := dialAPI(fakeNode(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	got, err := readBack([]*apiConn{cn}, []string{"a", "gone1", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["a"] != "v-a" || got["b"] != "v-b" {
		t.Errorf("readBack = %v, want a and b only", got)
	}
}

func TestOpenLoopTimesQueuedOperationsFromDueTime(t *testing.T) {
	cn, err := dialAPI(fakeNode(t, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	begun := time.Now()
	since := func() time.Duration { return time.Since(begun) }
	w := &worker{conn: cn, router: defaultRouter, since: since, prefix: "w0."}
	var sched []*op
	for i := 0; i < 5; i++ {
		d := time.Duration(i) * 20 * time.Millisecond
		sched = append(sched, &op{write: true, keys: [2]string{"a", "b"}, due: d, readyAt: d})
	}
	if err := openLoop([]*worker{w}, sched, since, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, o := range sched {
		lat, late := openLoopLatency(o, 50*time.Millisecond, 10*time.Second)
		if !o.ok {
			t.Fatalf("op %d did not complete", i)
		}
		// Every op queued behind the 200 ms stall: each waited until about
		// 200 ms, so op i's latency is about 200 ms - 20 ms * i.
		if want := 200*time.Millisecond - time.Duration(i)*20*time.Millisecond; lat < want-5*time.Millisecond || !late {
			t.Errorf("op %d due %v: latency %v late %v, want >= %v and late", i, o.due, lat, late, want)
		}
	}
}

func TestScrapeDeltaAgainstCapturedKvnodeScrape(t *testing.T) {
	// Two scrapes of site 1 of a three-node 3PC cluster, taken after one
	// and after five committed client transactions that each wrote a key
	// on site 1 and a key on site 2.
	before := mustScrape(t, "testdata/metrics_before.txt")
	after := mustScrape(t, "testdata/metrics_after.txt")
	d := after.minus(before)
	if got := d.sum("engine_commit_latency_seconds_count", "outcome=committed"); got != 4 {
		t.Errorf("committed decisions in delta = %v, want 4", got)
	}
	if got := d.sum("engine_wal_forced_records_per_commit_count", "role=coordinator", "outcome=committed"); got != 4 {
		t.Errorf("coordinator forced-record samples = %v, want 4", got)
	}
	// 3PC forces three records per commit at the coordinator, every time.
	if got := d.summaryMean("engine_wal_forced_records_per_commit", 1, "role=coordinator", "outcome=committed"); got != 3 {
		t.Errorf("forced records per commit = %v, want 3", got)
	}
	mean := d.summaryMean("engine_commit_latency_seconds", 1000, "outcome=committed")
	want := 1000 * (after["engine_commit_latency_seconds_sum{outcome=\"committed\",protocol=\"3PC\"}"] -
		before["engine_commit_latency_seconds_sum{outcome=\"committed\",protocol=\"3PC\"}"]) / 4
	if mean <= 0 || math.Abs(mean-want) > 1e-9 {
		t.Errorf("commit latency mean = %v ms, want %v", mean, want)
	}
	// Families registered for other protocols exist but carry no samples.
	if got := d.sum("engine_commit_latency_seconds_count", "protocol=2PC"); got != 0 {
		t.Errorf("2PC samples = %v", got)
	}
	// Every drop cause the benchmark reports is exported.
	for _, c := range []string{"backoff", "dial", "write", "inbox_overflow", "queue_full"} {
		if _, ok := after["transport_dropped_total{cause=\""+c+"\"}"]; !ok {
			t.Errorf("no transport_dropped_total series for cause %q", c)
		}
	}
	if after.sum("kv_mvcc_keys") < 1 {
		t.Errorf("kv_mvcc_keys gauge missing")
	}
}

func mustScrape(t *testing.T, path string) scrape {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseScrape(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseScrapeRejectsMalformedLines(t *testing.T) {
	for _, body := range []string{"novalue\n", "x{a=\"b\"} notanumber\n"} {
		if _, err := parseScrape(body); err == nil {
			t.Errorf("parseScrape(%q) succeeded", body)
		}
	}
}

func TestOwnerClassificationMatchesKvnodeDefaultMap(t *testing.T) {
	// kvnode derives shard.Default over the sorted site list with its
	// default of four shards per site.
	want := shard.Default([]int{3, 1, 2}, 4)
	counts := map[int]int{}
	cross, forwarded := 0, 0
	const n = 90000
	g := newGenerator("write-cross", 1)
	for i := 0; i < n; i++ {
		o := g.next()
		a, b := defaultRouter.Site(o.keys[0]), defaultRouter.Site(o.keys[1])
		if a != want.Owner(o.keys[0]) || b != want.Owner(o.keys[1]) {
			t.Fatalf("keys %v: router says %d,%d, default map says %d,%d",
				o.keys, a, b, want.Owner(o.keys[0]), want.Owner(o.keys[1]))
		}
		counts[a]++
		if a != b {
			cross++
		}
		if a != 1 && b != 1 {
			forwarded++ // site 1 holds no data: COMMIT is forwarded to a peer
		}
	}
	for s := 1; s <= numSites; s++ {
		if share := float64(counts[s]) / n; math.Abs(share-1.0/3) > 0.02 {
			t.Errorf("site %d owns %.3f of keys, want about 1/3", s, share)
		}
	}
	if share := float64(cross) / n; math.Abs(share-2.0/3) > 0.02 {
		t.Errorf("%.3f of transactions span two sites, want about 2/3", share)
	}
	if share := float64(forwarded) / n; math.Abs(share-4.0/9) > 0.02 {
		t.Errorf("%.3f of transactions forward their commit, want about 4/9", share)
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, wl := range []string{"write-cross", "read-mostly"} {
		a, b, c := newGenerator(wl, 7), newGenerator(wl, 7), newGenerator(wl, 8)
		same := true
		for i := 0; i < 100; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if *x != *y {
				t.Fatalf("%s: same seed diverged at op %d: %+v vs %+v", wl, i, x, y)
			}
			same = same && *x == *z
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew the same operations", wl)
		}
	}
	x := arrivals(newGenerator("site-crash", 3), 200, 10*time.Second)
	y := arrivals(newGenerator("site-crash", 3), 200, 10*time.Second)
	if len(x) != len(y) || len(x) < 1800 || len(x) > 2200 {
		t.Fatalf("arrivals: %d and %d ops in 10 s at 200/s", len(x), len(y))
	}
	for i := range x {
		if x[i].due != y[i].due || x[i].keys != y[i].keys {
			t.Fatalf("arrival %d differs between runs of one seed", i)
		}
	}
}

func TestCheckFindsViolations(t *testing.T) {
	ms := time.Millisecond
	committed := func(v string, begin, end time.Duration, keys ...string) attempt {
		return attempt{value: v, keys: [2]string{keys[0], keys[1]}, begin: begin, end: end, out: outCommitted}
	}
	attempts := []attempt{
		committed("w0.0", 0, 10*ms, "a", "b"),
		committed("w0.1", 20*ms, 30*ms, "a", "c"), // later committer on a
		{value: "w1.0", keys: [2]string{"d", "e"}, begin: 0, end: 5 * ms, out: outAborted},
		{value: "w1.1", keys: [2]string{"f", "g"}, begin: 0, end: 5 * ms, out: outUnknown},
		committed("w1.2", 40*ms, 50*ms, "h", "i"),
	}
	good := map[string]string{"a": "w0.1", "b": "w0.0", "c": "w0.1", "f": "w1.1", "h": "w1.2", "i": "w1.2"}
	in := checkInput{attempts: attempts, final: good, router: defaultRouter}
	if r := check(in); len(r.violations) != 0 {
		t.Fatalf("consistent outcome flagged: %v", r.violations)
	}
	for name, c := range map[string]struct {
		final  map[string]string
		reads  []string
		expect string
	}{
		"aborted value visible": {withKey(good, "d", "w1.0"), nil, "aborted"},
		"earlier value wins":    {withKey(good, "a", "w0.0"), nil, "lost"},
		"committed key missing": {withKey(good, "i", ""), nil, "lost"},
		"unknown value":         {withKey(good, "b", "zz"), nil, "never written"},
		"read of aborted value": {good, []string{"w1.0"}, "aborted"},
	} {
		in.final, in.reads = c.final, c.reads
		r := check(in)
		if len(r.violations) == 0 || !strings.Contains(strings.Join(r.violations, "\n"), c.expect) {
			t.Errorf("%s: violations %v, want one mentioning %q", name, r.violations, c.expect)
		}
	}
}

// withKey copies m with k set to v, or removed when v is empty.
func withKey(m map[string]string, k, v string) map[string]string {
	out := map[string]string{}
	for kk, vv := range m {
		out[kk] = vv
	}
	if v == "" {
		delete(out, k)
	} else {
		out[k] = v
	}
	return out
}
