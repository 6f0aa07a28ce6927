package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const numSites = 3

// node is one kvnode child process.
type node struct {
	id          int
	args        []string
	logPath     string
	obsAddr     string
	clusterAddr string
	clientAddr  string // "" except at site 1

	mu       sync.Mutex
	cmd      *exec.Cmd
	exited   chan struct{} // closed when the current process has exited
	expected bool          // the harness killed it on purpose
}

// cluster is three kvnodes on loopback, 3PC central-site with file WALs and
// fsync on: kvnode's defaults except for addresses, WAL paths, the
// observability listener and the trace ring size.
type cluster struct {
	bin   string
	dir   string
	nodes []*node
	// died receives a description of any node that exits without the
	// harness having killed it.
	died chan string
}

// pollEvery paces the readiness polls; it is short against a set-up of about
// ten milliseconds so the poll itself adds little jitter to setup_s.
const pollEvery = 200 * time.Microsecond

var httpc = &http.Client{Timeout: 5 * time.Second}

// live tracks every started process so a fatal error can stop them all.
var live struct {
	sync.Mutex
	nodes map[*node]bool
}

// stopAll kills every running kvnode and waits for each to exit.
func stopAll() {
	live.Lock()
	ns := make([]*node, 0, len(live.nodes))
	for n := range live.nodes {
		ns = append(ns, n)
	}
	live.Unlock()
	for _, n := range ns {
		n.kill()
	}
}

// freePorts returns n distinct loopback ports below the kernel's ephemeral
// range, so no outgoing connection can take one while a node is down, each
// checked free by binding it. The start point is random per process, not
// per workload seed, so back-to-back runs pick different ports.
func freePorts(n int) ([]int, error) {
	lo, hi := 10000, 32767
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		f := strings.Fields(string(b))
		if len(f) == 2 {
			if elo, err := strconv.Atoi(f[0]); err == nil && elo > lo+1000 {
				hi = elo - 1
			}
		}
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<20))
	seen := map[int]bool{}
	var out []int
	for tries := 0; len(out) < n; tries++ {
		if tries > 10000 {
			return nil, fmt.Errorf("no free loopback ports in [%d,%d]", lo, hi)
		}
		p := lo + rng.Intn(hi-lo+1)
		if seen[p] {
			continue
		}
		seen[p] = true
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		_ = ln.Close()
		out = append(out, p)
	}
	return out, nil
}

// newCluster prepares (but does not start) three nodes in dir.
func newCluster(bin, dir string, traceEvents int) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2*numSites + 1)
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, dir: dir, died: make(chan string, numSites)}
	addr := func(p int) string { return "127.0.0.1:" + strconv.Itoa(p) }
	for i := 1; i <= numSites; i++ {
		n := &node{
			id:          i,
			logPath:     filepath.Join(dir, fmt.Sprintf("n%d.log", i)),
			clusterAddr: addr(ports[i-1]),
			obsAddr:     addr(ports[numSites+i-1]),
		}
		var peers []string
		for j := 1; j <= numSites; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, addr(ports[j-1])))
			}
		}
		n.args = []string{
			"-id", strconv.Itoa(i),
			"-listen", n.clusterAddr,
			"-peers", strings.Join(peers, ","),
			"-wal", filepath.Join(dir, fmt.Sprintf("n%d.wal", i)),
			"-obs-addr", n.obsAddr,
			"-trace-events", strconv.Itoa(traceEvents),
		}
		if i == 1 {
			n.clientAddr = addr(ports[2*numSites])
			n.args = append(n.args, "-client", n.clientAddr)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func (c *cluster) node(site int) *node { return c.nodes[site-1] }

// start launches every node.
func (c *cluster) start() error {
	for _, n := range c.nodes {
		if err := c.startNode(n); err != nil {
			return err
		}
	}
	return nil
}

// startNode launches n, appending its stderr to its log, and watches for an
// exit the harness did not ask for.
func (c *cluster) startNode(n *node) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, n.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Dir = c.dir
	// Take the node down with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start site %d: %w", n.id, err)
	}
	exited := make(chan struct{})
	n.mu.Lock()
	n.cmd, n.exited, n.expected = cmd, exited, false
	n.mu.Unlock()
	live.Lock()
	if live.nodes == nil {
		live.nodes = map[*node]bool{}
	}
	live.nodes[n] = true
	live.Unlock()
	go func() {
		err := cmd.Wait()
		n.mu.Lock()
		expected := n.expected
		n.mu.Unlock()
		close(exited)
		if !expected {
			c.died <- fmt.Sprintf("site %d exited unexpectedly (%v); last lines of %s:\n%s",
				n.id, err, n.logPath, tail(n.logPath, 20))
		}
	}()
	return nil
}

// kill sends SIGKILL to the node's current process and waits for it to
// exit. Killing a node that is not running is a no-op.
func (n *node) kill() {
	n.mu.Lock()
	cmd, exited := n.cmd, n.exited
	n.expected = true
	n.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-exited
	live.Lock()
	delete(live.nodes, n)
	live.Unlock()
}

// stop kills every node of the cluster.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.kill()
	}
}

// checkAlive returns an error if any node has died on its own.
func (c *cluster) checkAlive() error {
	select {
	case msg := <-c.died:
		return fmt.Errorf("%s", msg)
	default:
		return nil
	}
}

// waitHealthy polls the node's /healthz until it answers, failing if the
// process exits first or the deadline passes.
func (c *cluster) waitHealthy(n *node, deadline time.Time) error {
	for {
		if err := c.checkAlive(); err != nil {
			return err
		}
		resp, err := httpc.Get("http://" + n.obsAddr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("site %d: /healthz did not answer in time; last lines of %s:\n%s",
				n.id, n.logPath, tail(n.logPath, 20))
		}
		time.Sleep(pollEvery)
	}
}

// waitReady waits for every node's /healthz and for site 1's client API to
// answer a request.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, n := range c.nodes {
		if err := c.waitHealthy(n, deadline); err != nil {
			return err
		}
	}
	for {
		cn, err := dialAPI(c.node(1).clientAddr)
		if err == nil {
			_, err = cn.do("ABORT") // answers "ERR no open transaction"
			cn.close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("client API did not answer: %v", err)
		}
		time.Sleep(pollEvery)
	}
}

// health fetches a node's /healthz body as loosely typed JSON fields.
func (n *node) health() (map[string]any, error) {
	resp, err := httpc.Get("http://" + n.obsAddr + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// scrape fetches and parses a node's /metrics. Callers scrape only nodes
// whose /healthz has answered.
func (n *node) scrape() (scrape, error) {
	body, err := n.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(body)
}

func (n *node) get(path string) (string, error) {
	resp, err := httpc.Get("http://" + n.obsAddr + path)
	if err != nil {
		return "", fmt.Errorf("site %d %s: %w", n.id, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("site %d %s: %w", n.id, path, err)
	}
	return string(b), nil
}

// scrapeAll scrapes every node, indexed by site-1.
func (c *cluster) scrapeAll() ([]scrape, error) {
	out := make([]scrape, len(c.nodes))
	for i, n := range c.nodes {
		s, err := n.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// cpuAll reads every node's CPU time, indexed by site-1.
func (c *cluster) cpuAll() ([]float64, error) {
	out := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		v, err := n.cpuSeconds()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// waitSettled waits until no site reports an in-doubt transaction.
func (c *cluster) waitSettled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		doubt := 0
		for _, n := range c.nodes {
			h, err := n.health()
			if err != nil {
				return err
			}
			v, _ := h["in_doubt"].(float64)
			doubt += int(v)
		}
		if doubt == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d transactions still in doubt %v after the load", doubt, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// peakRSSMB is the node's peak resident set (VmHWM) in MiB.
func (n *node) peakRSSMB() (float64, error) {
	n.mu.Lock()
	cmd := n.cmd
	n.mu.Unlock()
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("site %d: no VmHWM in /proc status", n.id)
}

// cpuSeconds is the CPU time (user plus system) the node's current process
// has used so far.
func (n *node) cpuSeconds() (float64, error) {
	n.mu.Lock()
	cmd := n.cmd
	n.mu.Unlock()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("site %d: short /proc stat line", n.id)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("site %d: bad /proc stat times", n.id)
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times, which Linux fixes at
// 100 for user space on every architecture.
const clockTicks = 100

// tail returns the last n lines of a file.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "(" + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
