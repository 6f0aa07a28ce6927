// Command e2ebench is the repository's end-to-end commit benchmark. It
// launches three kvnode processes (3PC, central site, file WALs with fsync
// on, otherwise kvnode's defaults) on loopback TCP, drives one of three
// workloads through site 1's client API, checks the outcome against what
// the client was told, and prints the metrics as one JSON line.
//
//	bash e2ebench/run.sh --workload write-cross --seed 1 --seconds 30 --trace 0
//
// run.sh builds kvnode and this harness from the checkout first. With
// --trace 0 the output holds the end-to-end metrics of an untraced run;
// with --trace 1 it holds per-layer metrics from client-side spans around
// every nodeapi verb, /metrics deltas from every node and each node's
// /debug/trace ring, after an untraced pass that prices the tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nbcommit/internal/shard"
)

// Every workload is named here with why it exists; BENCHMARK.json repeats
// the list.
var workloads = map[string]string{
	// Commit protocol, WAL forcing and data-plane RPCs all carry load with
	// almost no lock contention.
	"write-cross": "closed loop of BEGIN, 2 PUTK, COMMIT over 100k uniform keys",
	// Snapshot reads skip the protocol; hot keys add lock waits and
	// version-chain growth beside them.
	"read-mostly": "closed loop of 90% SGETK, 10% write transactions, zipf over 1000 prepopulated keys",
	// Timeouts, termination, WAL replay, redial and rejoin: the paper's
	// subject, idle elsewhere.
	"site-crash": "open loop at 200 txn/s of write-cross transactions; site 3 is killed and restarted",
}

const (
	warmup     = time.Second // load before the measured window, not measured
	crashRate  = 200.0       // site-crash arrivals per second
	lateLimit  = 50 * time.Millisecond
	drainLimit = 10 * time.Second // site-crash: retries allowed after the window
	killedSite = 3
	// site-crash kills site 3 after a steady stretch and restarts it after
	// a fixed downtime, both from the start of the measured window.
	killAfter = 5 * time.Second
	downtime  = 3 * time.Second
	// crashWindow leaves room after the restart for recovery and the
	// backlog to drain.
	crashWindow = killAfter + downtime + 5*time.Second
	setupRepeat = 21 // untraced runs set up this many clusters; setup_s is their median
	conns       = 2  // client connections, one worker each, capped at the CPU count
	// traceRing holds every engine event of a traced window: a few events
	// per site per transaction at roughly a thousand transactions a second.
	traceRing = 1 << 21
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload: write-cross, read-mostly or site-crash")
		seed    = flag.Int64("seed", 1, "workload seed: keys, operation mix, zipf draws and arrivals")
		seconds = flag.Int("seconds", 30, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		kvnode  = flag.String("kvnode", "", "kvnode binary built from the tree under test")
		workdir = flag.String("workdir", "", "directory for per-run WALs and node logs")
	)
	flag.Parse()
	if _, ok := workloads[*wl]; !ok {
		fatalf("unknown workload %q (want write-cross, read-mostly or site-crash)", *wl)
	}
	if *kvnode == "" || *workdir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("usage: e2ebench -kvnode BIN -workdir DIR --workload W --seed N --seconds S --trace 0|1")
	}
	window := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		window /= 2 // see below
	}
	if *wl == "site-crash" && window < crashWindow {
		fatalf("site-crash needs a measured window of at least %v per pass (--trace 1 runs two passes of half --seconds)", crashWindow)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatalf("interrupted by %v", s)
	}()

	cfg := passConfig{
		workload: *wl, seed: *seed, kvnode: *kvnode, conns: min(conns, runtime.NumCPU()),
		window: window,
		dir:    filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *wl, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	// The run's WALs and node logs are kept when an operation failed, for
	// a look at why.
	keep := false
	defer func() {
		if keep {
			fmt.Fprintf(os.Stderr, "e2ebench: failed operations; WALs and node logs kept in %s\n", cfg.dir)
			return
		}
		os.RemoveAll(cfg.dir)
	}()

	var (
		metrics   []metric
		attempted int
		failed    int
		correct   = true
	)
	if *traced == 0 {
		cfg.setups = setupRepeat
		p := mustPass(cfg)
		printFacts(p)
		metrics = endToEnd(p)
		txn, read, all := p.latencies()
		fmt.Println("write transactions: " + txn.String())
		if read.n > 0 {
			fmt.Println("one-shot reads:     " + read.String())
		}
		fmt.Println("all operations:     " + all.String())
		if beyond(txn.n, 0.99) < 10 || beyond(all.n, 0.99) < 10 {
			fmt.Fprintln(os.Stderr, "e2ebench: warning: fewer than ten samples beyond p99; lengthen --seconds")
		}
		attempted, failed = p.attempted(), p.failed()
		correct = len(p.check.violations) == 0
		printCrash(p)
	} else {
		// An untraced pass prices the tracing; the traced pass after it
		// gives the layer figures. Each gets half the window.
		cfg.setups = 1
		base := mustPass(cfg)
		cfg.traced = true
		p := mustPass(cfg)
		printFacts(p)
		metrics = perLayer(p, base)
		attempted, failed = p.attempted(), p.failed()
		correct = len(p.check.violations) == 0 && len(base.check.violations) == 0
		printWaterfall(p)
		printEvents(p)
		printCrash(p)
	}
	for _, m := range metrics {
		fmt.Printf("%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	keep = failed > 0
	out := map[string]any{"correct": correct, "attempted": attempted, "failed": failed}
	values := map[string]any{}
	for _, m := range metrics {
		values[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = values
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !correct {
		stopAll()
		os.Exit(1)
	}
}

// mustPass runs one pass, exits on an error and lists any correctness
// violations; main fails the run on them after printing the result.
func mustPass(cfg passConfig) *passResult {
	p, err := runPass(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if v := p.check.violations; len(v) > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d correctness violations, first ones:\n", len(v))
		sort.Strings(v)
		for _, s := range v[:min(len(v), 20)] {
			fmt.Fprintln(os.Stderr, "  "+s)
		}
	}
	return p
}

// fatalf stops every node, reports the error and exits without a result.
func fatalf(format string, args ...any) {
	stopAll()
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd derives the metrics a client sees from an untraced pass. The
// tail is the write transactions' p99 in milliseconds (see txnP99). The
// reads' tail is printed but is no end-to-end metric: two of the three
// workloads have no reads.
func endToEnd(p *passResult) []metric {
	txn, _, op := p.latencies()
	return []metric{
		{"setup_s", median(p.setupS), "s"},
		{"ops_per_s", p.opsPerSecond(), "1/s"},
		{"txn_p50_ms", txn.p50, "ms"},
		{"txn_p99_ms", p.txnP99(), "ms"},
		{"op_p50_ms", op.p50, "ms"},
		{"node_rss_mb", p.rssMB, "MB"},
	}
}

// perLayer derives the per-layer metrics of a traced pass; base is the
// untraced pass run just before it.
func perLayer(p, base *passResult) []metric {
	d := p.delta
	sp := p.spans
	committed := float64(p.committedInWindow())
	ops := float64(p.doneInWindow())
	allOps := float64(len(p.ops))
	wfParts := []float64{
		ratio(ms(sp.wfBegin), float64(sp.wf.n)),
		ratio(ms(sp.wfPutL), float64(sp.wf.n)),
		ratio(ms(sp.wfPutR), float64(sp.wf.n)),
		ratio(ms(sp.wfCommit), float64(sp.wf.n)),
	}
	unattributed := sp.wf.meanMS()
	for _, v := range wfParts {
		unattributed -= v
	}
	rpc := 0.0
	if sp.sgetLocal.n > 0 && sp.sgetRemote.n > 0 {
		rpc = sp.sgetRemote.meanMS() - sp.sgetLocal.meanMS()
	}
	decide := d.summaryMean("engine_commit_latency_seconds", 1000, "outcome=committed")
	retries := 0
	for _, o := range p.ops {
		retries += o.tries - 1
	}
	m := []metric{
		{"nodeapi.begin_ms", sp.begin.meanMS(), "ms"},
		{"nodeapi.verbs_per_op", ratio(float64(sp.verbs), allOps), "count"},
		{"shard.remote_share", ratio(float64(sp.keyedRemote), float64(sp.keyed)), "ratio"},
		{"shard.cohort_mean", ratio(float64(sp.cohortSites), float64(sp.wf.n)), "sites"},
		{"kv.local_putk_ms", sp.putLocal.meanMS(), "ms"},
		{"kv.local_sgetk_ms", sp.sgetLocal.meanMS(), "ms"},
		{"kv.lock_errors", float64(sp.lockErrors), "count"},
		{"kv.mvcc_versions", p.endGauges.sum("kv_mvcc_versions"), "count"},
		{"remote.putk_ms", sp.putRemote.meanMS(), "ms"},
		{"remote.sgetk_ms", sp.sgetRemote.meanMS(), "ms"},
		{"remote.rpc_ms", rpc, "ms"},
		{"remote.timeouts", float64(sp.timeouts), "count"},
		{"engine.commit_ms", sp.commit.meanMS(), "ms"},
		{"engine.decide_ms", decide, "ms"},
		{"engine.votes_ms", d.summaryMean("engine_phase_latency_seconds", 1000, "phase=votes"), "ms"},
		{"engine.acks_ms", d.summaryMean("engine_phase_latency_seconds", 1000, "phase=acks"), "ms"},
		{"engine.settle_ms", d.summaryMean("engine_phase_latency_seconds", 1000, "phase=settle"), "ms"},
		{"engine.aborts", d.sum("engine_resolutions_total", "outcome=aborted"), "count"},
		{"engine.outside_ms", sp.commit.meanMS() - decide, "ms"},
		{"engine.blocked", float64(p.events["blocked"]), "count"},
		{"engine.backup", float64(p.events["backup"]), "count"},
		{"wal.sync_ms", d.summaryMean("wal_sync_latency_seconds", 1000), "ms"},
		{"wal.records_per_sync", d.summaryMean("wal_batch_records", 1), "count"},
		{"wal.syncs_per_commit", ratio(d.sum("wal_sync_latency_seconds_count"), committed), "count"},
		{"wal.forced_per_commit.coordinator", d.summaryMean("engine_wal_forced_records_per_commit", 1, "role=coordinator", "outcome=committed"), "count"},
		{"wal.forced_per_commit.participant", d.summaryMean("engine_wal_forced_records_per_commit", 1, "role=participant", "outcome=committed"), "count"},
		{"wal.bytes_per_commit", ratio(d.sum("wal_log_bytes_total"), committed), "bytes"},
		{"wal.log_force_ms", d.summaryMean("engine_phase_latency_seconds", 1000, "phase=log_force"), "ms"},
		{"transport.msgs_per_op", ratio(d.sum("transport_batch_msgs_sum"), ops), "count"},
		{"transport.msgs_per_write", d.summaryMean("transport_batch_msgs", 1), "count"},
	}
	for _, c := range []string{"backoff", "dial", "write", "inbox_overflow", "queue_full"} {
		m = append(m, metric{"transport.drops." + c, d.sum("transport_dropped_total", "cause="+c), "count"})
	}
	m = append(m,
		metric{"transport.redials", d.sum("transport_redials_total"), "count"},
		metric{"txn.mean_ms", sp.wf.meanMS(), "ms"},
		metric{"txn.begin_ms", wfParts[0], "ms"},
		metric{"txn.putk_local_ms", wfParts[1], "ms"},
		metric{"txn.putk_remote_ms", wfParts[2], "ms"},
		metric{"txn.commit_ms", wfParts[3], "ms"},
		metric{"unattributed_ms", unattributed, "ms"},
		metric{"node.cpu_ms_per_op", p.cpuMSPerOp(), "ms"},
		metric{"trace.overhead", ratio(p.cpuMSPerOp(), base.cpuMSPerOp()) - 1, "ratio"},
		metric{"client.failed_ratio", ratio(float64(p.failed()), float64(p.attempted())), "ratio"},
		metric{"client.retry_ratio", ratio(float64(retries), allOps), "ratio"},
	)
	_, read, _ := p.latencies()
	m = append(m,
		metric{"read.p50_ms", read.p50, "ms"},
		metric{"read.p99_ms", read.p99, "ms"},
	)
	if p.cfg.workload == "site-crash" {
		// Zero on every other workload, so reported only here.
		late, unavail, recovery := p.crashFigures()
		m = append(m,
			metric{"engine.rejoin_s", p.rejoinS(), "s"},
			metric{"wal.reopen_s", p.reopenS(), "s"},
			metric{"crash.late_ratio", late, "ratio"},
			metric{"crash.unavailable_s", unavail, "s"},
			metric{"crash.recovery_s", recovery, "s"},
		)
	}
	return m
}

// printWaterfall shows where a committed write transaction's time goes,
// from the client's spans: the parts plus the unattributed remainder sum to
// the measured mean.
func printWaterfall(p *passResult) {
	sp := p.spans
	n := float64(sp.wf.n)
	if n == 0 {
		return
	}
	fmt.Printf("waterfall over %d committed write transactions (mean per transaction):\n", sp.wf.n)
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"BEGIN (nodeapi)", sp.wfBegin},
		{"PUTK, key on site 1 (kv)", sp.wfPutL},
		{"PUTK, key on a peer (remote)", sp.wfPutR},
		{"COMMIT (engine, wal, transport)", sp.wfCommit},
	}
	sum := 0.0
	for _, pt := range parts {
		v := ms(pt.d) / n
		sum += v
		fmt.Printf("  %-34s %8.4f ms\n", pt.name, v)
	}
	fmt.Printf("  %-34s %8.4f ms\n", "unattributed", sp.wf.meanMS()-sum)
	fmt.Printf("  %-34s %8.4f ms\n", "measured mean", sp.wf.meanMS())
	d := p.delta
	decide := d.summaryMean("engine_commit_latency_seconds", 1000, "outcome=committed")
	fmt.Printf("  COMMIT %.4f ms = decision %.4f ms (votes %.4f, acks %.4f; settle %.4f after) + outside the engine %.4f ms\n",
		sp.commit.meanMS(), decide,
		d.summaryMean("engine_phase_latency_seconds", 1000, "phase=votes"),
		d.summaryMean("engine_phase_latency_seconds", 1000, "phase=acks"),
		d.summaryMean("engine_phase_latency_seconds", 1000, "phase=settle"),
		sp.commit.meanMS()-decide)
}

// printCrash reports the fault workload's availability figures.
func printCrash(p *passResult) {
	if p.cfg.workload != "site-crash" {
		return
	}
	late, unavail, recovery := p.crashFigures()
	fmt.Printf("site-crash: failed_ratio %.4f, late_ratio %.4f (limit %v), unavailable_s %.3f, recovery_s %.3f (WAL reopen %.3f s, rejoin %.3f s), lost acknowledged writes on site %d: %d\n",
		ratio(float64(p.failed()), float64(p.attempted())), late, lateLimit, unavail, recovery,
		p.reopenS(), p.rejoinS(), killedSite, p.check.lostOnKilled)
	most, slowest := 0, time.Duration(0)
	for _, o := range p.measured() {
		most = max(most, o.tries)
		if lat, _ := openLoopLatency(o, lateLimit, p.end); lat > slowest {
			slowest = lat
		}
	}
	fmt.Printf("site-crash: most attempts of one operation %d, slowest operation %.3f s\n", most, slowest.Seconds())
	for _, o := range p.measured() {
		if !o.ok {
			fmt.Printf("site-crash: failed operation due %.3f s into the window after %d attempts, last reply %q\n",
				(o.due - p.t0).Seconds(), o.tries, o.lastReply)
		}
	}
}

// printFacts records the conditions of a pass: machine, toolchain, WAL
// filesystem and its fsync latency, connection count, kvnode flags, the
// source tree under test and the hypervisor's CPU steal in the window.
func printFacts(p *passResult) {
	cfg := p.cfg
	facts := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"nproc":        runtime.NumCPU(),
		"go":           runtime.Version(),
		"wal_fs":       fsType(cfg.dir),
		"fsync_ms":     fsyncMS(cfg.dir),
		"connections":  cfg.conns,
		"kvnode_flags": p.flags,
		"tree":         treeHash("."),
		"window_s":     cfg.window.Seconds(),
		"warmup_s":     warmup.Seconds(),
		"setups":       cfg.setups,
		"cpu_steal":    p.steal,
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Println("facts " + string(b))
	fmt.Println("workload " + cfg.workload + ": " + workloads[cfg.workload])
}

// printEvents lists the engine events each site's trace ring recorded in
// the window, by kind.
func printEvents(p *passResult) {
	for site := 1; site <= numSites; site++ {
		evs := p.perSite[site]
		kinds := make([]string, 0, len(evs))
		for k := range evs {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		var b strings.Builder
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, evs[k])
		}
		fmt.Printf("site %d engine events in the window:%s\n", site, b.String())
	}
}

var defaultRouter = &shard.Router{Map: shard.Default([]int{1, 2, 3}, 4)}
