package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nbcommit/internal/shard"
)

// readBack reads every key with one-shot snapshot reads through the client
// API, spread over the connections and pipelined. A key that does not exist
// is absent from the result.
func readBack(conns []*apiConn, keys []string) (map[string]string, error) {
	const depth = 256
	var (
		mu   sync.Mutex
		out  = make(map[string]string, len(keys))
		ferr error
		wg   sync.WaitGroup
	)
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *apiConn) {
			defer wg.Done()
			var mine []string
			for i := ci; i < len(keys); i += len(conns) {
				mine = append(mine, keys[i])
			}
			for len(mine) > 0 {
				batch := mine[:min(depth, len(mine))]
				mine = mine[len(batch):]
				vals, err := readBatch(c, batch)
				mu.Lock()
				if err != nil && ferr == nil {
					ferr = err
				}
				for k, v := range vals {
					out[k] = v
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	return out, ferr
}

// readBatch reads one pipelined batch, re-reading a key whose read failed
// for a transient reason (a timed-out RPC) a few times.
func readBatch(c *apiConn, keys []string) (map[string]string, error) {
	out := map[string]string{}
	for try := 0; len(keys) > 0; try++ {
		lines := make([]string, len(keys))
		for i, k := range keys {
			lines[i] = "SGETK " + k
		}
		replies, err := c.pipeline(lines)
		if err != nil {
			return out, err
		}
		var again []string
		for i, r := range replies {
			switch {
			case strings.HasPrefix(r, "VAL "):
				out[keys[i]] = r[4:]
			case strings.HasPrefix(r, "ERR "+errNotFound):
			case try < 5:
				again = append(again, keys[i])
			default:
				return out, fmt.Errorf("read-back of %s: %s", keys[i], r)
			}
		}
		keys = again
		if len(keys) > 0 {
			time.Sleep(100 * time.Millisecond)
		}
	}
	return out, nil
}

// checkInput is everything the correctness check needs from one pass.
type checkInput struct {
	attempts []attempt
	initial  map[string]string // prepopulated key -> value
	reads    []string          // values returned by one-shot reads ("" = not found)
	final    map[string]string // read-back after the run
	router   *shard.Router
	killed   int // site killed and restarted during the run, 0 if none
}

// checkResult lists violations; lostOnKilled counts acknowledged writes on
// the killed site that were not found after its restart.
type checkResult struct {
	violations   []string
	keys         int
	lostOnKilled int
}

// check verifies the run's outcome against what clients were told:
//   - no value of an aborted or refused attempt is visible, at read-back
//     or in any read during the run;
//   - every key of a committed attempt shows its value or the value of an
//     attempt that had not finished before it began (a later committer);
//     on the killed site this is "no acknowledged write is lost".
//
// Attempts whose COMMIT answered ERR may have committed; their values may
// be visible and are treated as finishing no earlier than the read-back.
func check(in checkInput) checkResult {
	byValue := make(map[string]*attempt, len(in.attempts))
	writers := map[string][]*attempt{}
	for i := range in.attempts {
		a := &in.attempts[i]
		byValue[a.value] = a
		for _, k := range a.keys {
			writers[k] = append(writers[k], a)
		}
	}
	for k := range in.initial {
		if _, ok := writers[k]; !ok {
			writers[k] = nil
		}
	}
	var res checkResult
	add := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	visible := func(where, v string) *attempt {
		w := byValue[v]
		switch {
		case w == nil:
			add("%s: value %q was never written", where, v)
		case w.out == outAborted || w.out == outRefused:
			add("%s: value %q of an aborted attempt is visible", where, v)
		}
		return w
	}
	for k, ws := range writers {
		res.keys++
		v, present := in.final[k]
		var w *attempt
		fromInit := present && isInitial(in.initial, v)
		if present && !fromInit {
			if w = visible("key "+k, v); w != nil && w.keys[0] != k && w.keys[1] != k {
				add("key %s: shows value %q written to other keys", k, v)
			}
		}
		// The committed attempt that began last must be the visible writer,
		// or be overlapped by it.
		var last *attempt
		for _, a := range ws {
			if a.out == outCommitted && a != w && (last == nil || a.begin > last.begin) {
				last = a
			}
		}
		if last == nil {
			if !present && in.initial[k] != "" {
				add("key %s: prepopulated value lost", k)
			}
			continue
		}
		lost := !present || w == nil ||
			(w.out == outCommitted && w.end < last.begin)
		if lost {
			got := "nothing"
			if present {
				got = fmt.Sprintf("%q", v)
			}
			add("key %s: committed value %q lost, read-back shows %s", k, last.value, got)
			if in.killed != 0 && in.router.Site(k) == in.killed {
				res.lostOnKilled++
			}
		}
	}
	for _, v := range in.reads {
		if v == "" {
			add("a read found no value for a prepopulated key")
			continue
		}
		if !isInitial(in.initial, v) {
			visible("read", v)
		}
	}
	return res
}

// initialPrefix marks prepopulated values: "p." + key.
const initialPrefix = "p."

func initialValue(key string) string { return initialPrefix + key }

func isInitial(initial map[string]string, v string) bool {
	k, ok := strings.CutPrefix(v, initialPrefix)
	return ok && initial[k] == v
}

// checkPlacement compares the harness's owner classification with where the
// nodes actually keep data: each site's kv_mvcc_keys gauge must equal the
// number of read-back keys the router assigns to it.
func checkPlacement(final map[string]string, scrapes []scrape) []string {
	want := make([]int, len(scrapes))
	for k := range final {
		want[defaultRouter.Site(k)-1]++
	}
	var out []string
	for i, s := range scrapes {
		if got := int(s.sum("kv_mvcc_keys")); got != want[i] {
			out = append(out, fmt.Sprintf("site %d holds %d keys, the harness's shard map assigns it %d", i+1, got, want[i]))
		}
	}
	return out
}
