package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type passConfig struct {
	workload string
	seed     int64
	kvnode   string
	conns    int
	window   time.Duration
	dir      string
	traced   bool
	setups   int
}

// passResult is everything one pass measured.
type passResult struct {
	cfg     passConfig
	flags   string // site 1's kvnode command line
	setupS  []float64
	ops     []*op
	workers []*worker
	spans   spans
	t0, t1  time.Duration // measured window, on the load clock
	end     time.Duration // open loop: when unfinished operations were given up
	rssMB   float64
	// victimRSSMB is the killed site's peak RSS over its first life, read
	// just before the kill.
	victimRSSMB float64
	cpuS        float64 // CPU time the nodes used inside the window
	steal       float64 // share of CPU time the hypervisor took during the window

	delta     scrape                 // /metrics over the window, summed over nodes
	endGauges scrape                 // /metrics at the end, summed over nodes
	events    map[string]int         // trace-ring events inside the window, by kind
	perSite   map[int]map[string]int // the same, by site and kind

	// site-crash timeline, on the load clock
	restartAt, healthyAt time.Duration

	attempts []attempt
	check    checkResult
}

var passCount int

// runPass sets up a fresh cluster (cfg.setups times, keeping the last), runs
// the workload on it, checks the outcome and tears it down.
func runPass(cfg passConfig) (*passResult, error) {
	passCount++
	p := &passResult{cfg: cfg, events: map[string]int{}, perSite: map[int]map[string]int{}}
	ring := 0
	if cfg.traced {
		ring = traceRing
	}
	var c *cluster
	initial := map[string]string{}
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("p%d-s%d", passCount, i))
		var err error
		c, err = newCluster(cfg.kvnode, dir, ring)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := c.start(); err != nil {
			return nil, err
		}
		if err := c.waitReady(30 * time.Second); err != nil {
			return nil, err
		}
		if cfg.workload == "read-mostly" {
			if initial, err = prepopulate(c, cfg.conns); err != nil {
				return nil, err
			}
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			c.stop()
			_ = os.RemoveAll(dir)
		}
	}
	defer c.stop()
	p.flags = strings.Join(c.node(1).args, " ")
	loadStart := time.Now()
	if err := p.load(c); err != nil {
		return nil, err
	}
	checkStart := time.Now()

	// Let every site settle: a read-back below a site's in-doubt
	// watermark would not see the newest commits.
	if err := c.waitSettled(20 * time.Second); err != nil {
		return nil, err
	}
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	conns, err := dialConns(c, cfg.conns)
	if err != nil {
		return nil, err
	}
	defer closeConns(conns)
	keySet := map[string]bool{}
	for _, a := range p.attempts {
		keySet[a.keys[0]], keySet[a.keys[1]] = true, true
	}
	for k := range initial {
		keySet[k] = true
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	final, err := readBack(conns, keys)
	if err != nil {
		return nil, err
	}
	var reads []string
	for _, w := range p.workers {
		reads = append(reads, w.reads...)
	}
	killed := 0
	if cfg.workload == "site-crash" {
		killed = killedSite
	}
	p.check = check(checkInput{
		attempts: p.attempts, initial: initial, reads: reads, final: final,
		router: defaultRouter, killed: killed,
	})
	placed, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	p.check.violations = append(p.check.violations, checkPlacement(final, placed)...)
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s pass: setup %.3f s x%d, load %.1f s, settle and check of %d keys %.1f s, CPU steal %.1f%%, fsync %.3f ms\n",
		cfg.workload, median(p.setupS), len(p.setupS), checkStart.Sub(loadStart).Seconds(), len(keys), time.Since(checkStart).Seconds(), 100*p.steal,
		p.delta.summaryMean("wal_sync_latency_seconds", 1000))
	return p, nil
}

// prepopulate commits every hot key with its initial value, fifty keys per
// transaction, each transaction pipelined on one connection.
func prepopulate(c *cluster, nconns int) (map[string]string, error) {
	conns, err := dialConns(c, nconns)
	if err != nil {
		return nil, err
	}
	defer closeConns(conns)
	initial := map[string]string{}
	errs := make(chan error, len(conns))
	for ci, cn := range conns {
		go func(ci int, cn *apiConn) {
			for lo := ci * 50; lo < hotKeys; lo += 50 * len(conns) {
				lines := []string{"BEGIN"}
				for i := lo; i < min(lo+50, hotKeys); i++ {
					k := hotKey(uint64(i))
					lines = append(lines, "PUTK "+k+" "+initialValue(k))
				}
				lines = append(lines, "COMMIT")
				replies, err := cn.pipeline(lines)
				if err != nil {
					errs <- err
					return
				}
				for i, r := range replies {
					want := "OK"
					if i == len(replies)-1 {
						want = "COMMITTED"
					}
					if !strings.HasPrefix(r, want) {
						errs <- fmt.Errorf("prepopulate: %s -> %s", lines[i], r)
						return
					}
				}
			}
			errs <- nil
		}(ci, cn)
	}
	for range conns {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	for i := 0; i < hotKeys; i++ {
		k := hotKey(uint64(i))
		initial[k] = initialValue(k)
	}
	return initial, nil
}

func dialConns(c *cluster, n int) ([]*apiConn, error) {
	var out []*apiConn
	for i := 0; i < n; i++ {
		cn, err := dialAPI(c.node(1).clientAddr)
		if err != nil {
			closeConns(out)
			return nil, err
		}
		out = append(out, cn)
	}
	return out, nil
}

func closeConns(cs []*apiConn) {
	for _, c := range cs {
		c.close()
	}
}

// load runs the workload on c: warmup, then the measured window, scraping
// every node at both edges and, in site-crash, killing and restarting site
// 3 inside the window.
func (p *passResult) load(c *cluster) error {
	cfg := p.cfg
	conns, err := dialConns(c, cfg.conns)
	if err != nil {
		return err
	}
	defer closeConns(conns)
	begun := time.Now()
	since := func() time.Duration { return time.Since(begun) }
	for i, cn := range conns {
		p.workers = append(p.workers, &worker{
			conn: cn, router: defaultRouter, since: since, traced: cfg.traced,
			prefix: fmt.Sprintf("w%d.", i),
		})
	}
	p.t0, p.t1 = warmup, warmup+cfg.window

	// The timeline runs beside the load: scrape at t0, the fault schedule,
	// scrape at t1. A node dying on its own ends the run at once.
	timeline := make(chan struct{})
	go func() {
		if err := p.timeline(c, since); err != nil {
			fatalf("%s: %v", cfg.workload, err)
		}
		close(timeline)
	}()

	var lerr error
	if cfg.workload == "site-crash" {
		sched := arrivals(newGenerator(cfg.workload, cfg.seed), crashRate, p.t1)
		p.end = p.t1 + drainLimit
		lerr = openLoop(p.workers, sched, since, p.end)
		p.ops = sched
	} else {
		gens := make([]*generator, len(p.workers))
		for i := range gens {
			gens[i] = newGenerator(cfg.workload, cfg.seed*1000+int64(i))
		}
		p.ops, lerr = closedLoop(p.workers, gens, p.t1)
		p.end = since()
	}
	<-timeline
	if lerr != nil {
		return lerr
	}
	for _, w := range p.workers {
		p.attempts = append(p.attempts, w.attempts...)
		p.spans.merge(&w.sp)
	}
	for _, n := range c.nodes {
		rss, err := n.peakRSSMB()
		if err != nil {
			return err
		}
		if cfg.workload == "site-crash" && n.id == killedSite {
			rss = max(rss, p.victimRSSMB)
		}
		p.rssMB += rss
	}
	return nil
}

// timeline scrapes every node at t0 and t1 and, in site-crash, kills site 3
// killAfter into the window and restarts it from its WAL downtime later.
// Counters of the killed node are taken just before the kill; its restarted
// process counts from zero.
func (p *passResult) timeline(c *cluster, since func() time.Duration) error {
	sleepUntil := func(t time.Duration) error {
		for {
			if err := c.checkAlive(); err != nil {
				return err
			}
			d := t - since()
			if d <= 0 {
				return nil
			}
			time.Sleep(min(d, 50*time.Millisecond))
		}
	}
	if err := sleepUntil(p.t0); err != nil {
		return err
	}
	t0Wall := time.Now()
	cpu0 := readCPUTicks()
	start, err := c.scrapeAll()
	if err != nil {
		return err
	}
	cpuStart, err := c.cpuAll()
	if err != nil {
		return err
	}
	var lost scrape // killed node's counters over its first life
	if p.cfg.workload == "site-crash" {
		victim := c.node(killedSite)
		if err := sleepUntil(p.t0 + killAfter); err != nil {
			return err
		}
		before, err := victim.scrape()
		if err != nil {
			return err
		}
		lost = before.minus(start[killedSite-1])
		start[killedSite-1] = scrape{}
		used, err := victim.cpuSeconds()
		if err != nil {
			return err
		}
		p.cpuS += used - cpuStart[killedSite-1]
		cpuStart[killedSite-1] = 0
		if p.victimRSSMB, err = victim.peakRSSMB(); err != nil {
			return err
		}
		if p.cfg.traced {
			if err := p.countEvents(victim, t0Wall, time.Now()); err != nil {
				return err
			}
		}
		victim.kill()
		if err := sleepUntil(p.t0 + killAfter + downtime); err != nil {
			return err
		}
		p.restartAt = since()
		if err := c.startNode(victim); err != nil {
			return err
		}
		if err := c.waitHealthy(victim, time.Now().Add(30*time.Second)); err != nil {
			return err
		}
		p.healthyAt = since()
	}
	if err := sleepUntil(p.t1); err != nil {
		return err
	}
	t1Wall := time.Now()
	p.steal = stealShare(cpu0, readCPUTicks())
	cpuEnd, err := c.cpuAll()
	if err != nil {
		return err
	}
	for i := range cpuEnd {
		p.cpuS += cpuEnd[i] - cpuStart[i]
	}
	end, err := c.scrapeAll()
	if err != nil {
		return err
	}
	p.delta, p.endGauges = scrape{}, scrape{}
	for i := range end {
		p.delta = p.delta.plus(end[i].minus(start[i]))
		p.endGauges = p.endGauges.plus(end[i])
	}
	if lost != nil {
		p.delta = p.delta.plus(lost)
	}
	if p.cfg.traced {
		for _, n := range c.nodes {
			if err := p.countEvents(n, t0Wall, t1Wall); err != nil {
				return err
			}
		}
	}
	return nil
}

// countEvents tallies the node's trace-ring events inside [from, to] by
// kind. A ring that has overwritten events must still reach back past from.
func (p *passResult) countEvents(n *node, from, to time.Time) error {
	body, err := n.get("/debug/trace")
	if err != nil {
		return err
	}
	var retained, recorded, overwritten int // the ring's header line
	first := true
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			_, _ = fmt.Sscanf(line, "# %d events retained, %d recorded, %d overwritten", &retained, &recorded, &overwritten)
			continue
		}
		// "<RFC3339Nano> site N: kind tx=..."
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		at, err := time.Parse(time.RFC3339Nano, f[0])
		if err != nil {
			return fmt.Errorf("site %d trace line %q: %w", n.id, line, err)
		}
		if first && overwritten > 0 && at.After(from) {
			return fmt.Errorf("site %d: trace ring of %d events overwrote part of the window", n.id, retained)
		}
		first = false
		if !at.Before(from) && !at.After(to) {
			p.events[f[3]]++
			if p.perSite[n.id] == nil {
				p.perSite[n.id] = map[string]int{}
			}
			p.perSite[n.id][f[3]]++
		}
	}
	return nil
}

// measured returns the operations due inside the window.
func (p *passResult) measured() []*op {
	var out []*op
	for _, o := range p.ops {
		if o.due >= p.t0 && o.due < p.t1 {
			out = append(out, o)
		}
	}
	return out
}

func (p *passResult) attempted() int { return len(p.measured()) }

func (p *passResult) failed() int {
	n := 0
	for _, o := range p.measured() {
		if !o.ok {
			n++
		}
	}
	return n
}

// doneInWindow counts operations completed inside the window.
func (p *passResult) doneInWindow() int {
	n := 0
	for _, o := range p.ops {
		if o.ok && o.done >= p.t0 && o.done <= p.t1 {
			n++
		}
	}
	return n
}

func (p *passResult) opsPerSecond() float64 {
	return float64(p.doneInWindow()) / p.cfg.window.Seconds()
}

// cpuMSPerOp is the nodes' CPU time in the window per completed operation.
func (p *passResult) cpuMSPerOp() float64 {
	return 1000 * ratio(p.cpuS, float64(p.doneInWindow()))
}

func (p *passResult) committedInWindow() int {
	n := 0
	for _, a := range p.attempts {
		if a.out == outCommitted && a.end >= p.t0 && a.end <= p.t1 {
			n++
		}
	}
	return n
}

// latencies summarizes the measured write transactions, one-shot reads and
// all measured operations. In the open loop, latency runs from the due time
// and a failed operation counts until it was given up.
func (p *passResult) latencies() (txn, read, all latencySummary) {
	var tx, rd, ops []float64
	for _, o := range p.measured() {
		v := ms(p.latency(o))
		ops = append(ops, v)
		if o.write {
			tx = append(tx, v)
		} else {
			rd = append(rd, v)
		}
	}
	return summarize(tx), summarize(rd), summarize(ops)
}

func (p *passResult) latency(o *op) time.Duration {
	if p.cfg.workload == "site-crash" {
		lat, _ := openLoopLatency(o, lateLimit, p.end)
		return lat
	}
	return o.done - o.due
}

// txnP99 is the write transactions' p99 as txn_p99_ms reports it. In the
// closed loops it is the median of the p99s of the window's tailSlices, so
// a burst of load from outside the benchmark that lands in one slice does
// not decide the figure. In site-crash it is the p99 of the whole window:
// there the tail is the fault, which every run repeats once.
func (p *passResult) txnP99() float64 {
	var at []time.Duration
	var lat []float64
	for _, o := range p.measured() {
		if o.write {
			at = append(at, o.due)
			lat = append(lat, ms(p.latency(o)))
		}
	}
	k := 1
	if p.cfg.workload != "site-crash" {
		k = max(1, int(p.cfg.window/tailSlice))
	}
	return medianSliceP99(at, lat, p.t0, p.t1, k)
}

// crashFigures returns, for site-crash, the share of operations not
// committed within lateLimit of their due time, the longest stretch of the
// window with no commit, and the time from restarting site 3 to the first
// commit of a transaction touching it. Other workloads report zeros.
func (p *passResult) crashFigures() (late, unavailable, recovery float64) {
	if p.cfg.workload != "site-crash" {
		return 0, 0, 0
	}
	m := p.measured()
	nLate := 0
	for _, o := range m {
		if _, l := openLoopLatency(o, lateLimit, p.end); l {
			nLate++
		}
	}
	late = ratio(float64(nLate), float64(len(m)))
	var commits []time.Duration
	first := time.Duration(-1)
	for _, a := range p.attempts {
		if a.out != outCommitted {
			continue
		}
		if a.end >= p.t0 && a.end <= p.t1 {
			commits = append(commits, a.end)
		}
		if a.touches(killedSite) && a.end > p.restartAt && (first < 0 || a.end < first) {
			first = a.end
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
	prev, gap := p.t0, time.Duration(0)
	for _, t := range append(commits, p.t1) {
		gap = max(gap, t-prev)
		prev = t
	}
	if first >= 0 {
		recovery = (first - p.restartAt).Seconds()
	}
	return late, gap.Seconds(), recovery
}

// reopenS is the restarted site's time from launch to /healthz: WAL
// compaction plus replay.
func (p *passResult) reopenS() float64 {
	if p.cfg.workload != "site-crash" {
		return 0
	}
	return (p.healthyAt - p.restartAt).Seconds()
}

// rejoinS is the time from the restarted site's /healthz to the first
// commit touching it.
func (p *passResult) rejoinS() float64 {
	if p.cfg.workload != "site-crash" {
		return 0
	}
	_, _, rec := p.crashFigures()
	return rec - p.reopenS()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// fsyncMS measures one 4 KiB write plus fsync in dir.
func fsyncMS(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return -1
	}
	defer os.Remove(f.Name())
	defer f.Close()
	start := time.Now()
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		return -1
	}
	if err := f.Sync(); err != nil {
		return -1
	}
	return ms(time.Since(start))
}

// treeHash identifies the source tree under test, which need not be a git
// checkout: a SHA-256 over the path and content of every Go source and
// module file outside hidden directories.
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// readCPUTicks returns the aggregate CPU line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil if unreadable.
func readCPUTicks() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var out []float64
	for _, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the share of all CPU ticks between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	total := 0.0
	for i := 0; i < min(len(a), len(b), 8); i++ {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}
