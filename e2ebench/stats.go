package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted samples (0 when
// there are none).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond is the number of samples ranked above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tailQuantile returns the highest of p50, p90, p99, p99.9, ... that still
// has at least ten samples beyond it among n samples, so a reported tail is
// never a single outlier. ok is false when even the median has fewer than
// ten samples beyond it.
func tailQuantile(n int) (q float64, ok bool) {
	best := 0.0
	for _, c := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999} {
		if beyond(n, c) < 10 {
			break
		}
		best = c
	}
	return best, best > 0
}

// tailSlice is the length of the slices whose p99s the closed loops'
// txn_p99_ms takes the median of.
const tailSlice = 5 * time.Second

// medianSliceP99 splits [from, to) into k equal slices, takes the p99 of
// the latencies lat of the samples that started in each (at), and returns
// the median of those p99s.
func medianSliceP99(at []time.Duration, lat []float64, from, to time.Duration, k int) float64 {
	per := make([][]float64, k)
	slice := (to - from) / time.Duration(k)
	for i, t := range at {
		if t < from || t >= to {
			continue
		}
		j := min(int((t-from)/slice), k-1)
		per[j] = append(per[j], lat[i])
	}
	p99s := make([]float64, k)
	for j, s := range per {
		p99s[j] = summarize(s).p99
	}
	return median(p99s)
}

// median returns the nearest-rank median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencySummary holds the order statistics of one latency sample, in ms.
type latencySummary struct {
	n        int
	mean     float64
	p50, p99 float64
	tailQ    float64 // tailQuantile(n); 0 when too few samples
	tail     float64 // value at tailQ
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := latencySummary{n: len(s), p50: quantile(s, 0.5), p99: quantile(s, 0.99)}
	for _, v := range s {
		out.mean += v
	}
	if len(s) > 0 {
		out.mean /= float64(len(s))
	}
	if q, ok := tailQuantile(len(s)); ok {
		out.tailQ, out.tail = q, quantile(s, q)
	}
	return out
}

func (l latencySummary) String() string {
	tail := "n/a"
	if l.tailQ > 0 {
		tail = fmt.Sprintf("p%s %.3f ms", strconv.FormatFloat(l.tailQ*100, 'f', -1, 64), l.tail)
	}
	return fmt.Sprintf("n=%d mean %.3f ms, p50 %.3f ms, p99 %.3f ms (p99 has %d beyond), tail %s",
		l.n, l.mean, l.p50, l.p99, beyond(l.n, 0.99), tail)
}

// scrape is one /metrics exposition: each sample's value keyed by its series
// name plus label block, exactly as exposed.
type scrape map[string]float64

// parseScrape reads the Prometheus text format kvnode serves. Comment lines
// are skipped; a sample line is "<series> <value>".
func parseScrape(body string) (scrape, error) {
	out := scrape{}
	for i, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", i+1, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// splitSeries splits "name{a="x",b="y"}" into its name and labels.
func splitSeries(series string) (string, map[string]string) {
	br := strings.IndexByte(series, '{')
	if br < 0 {
		return series, nil
	}
	labels := map[string]string{}
	body := strings.TrimSuffix(series[br+1:], "}")
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			break
		}
		k := body[:eq]
		rest := body[eq+2:]
		end := strings.IndexByte(rest, '"')
		if end < 0 {
			break
		}
		labels[k] = rest[:end]
		body = strings.TrimPrefix(rest[end+1:], ",")
	}
	return series[:br], labels
}

// sum adds every sample of the named series whose labels include each
// "key=value" pair in want.
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
	for series, v := range s {
		n, labels := splitSeries(series)
		if n != name {
			continue
		}
		match := true
		for _, kv := range want {
			k, val, _ := strings.Cut(kv, "=")
			if labels[k] != val {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// minus returns s − base series by series; a series absent from base counts
// from zero (a restarted node starts its counters over).
func (s scrape) minus(base scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// plus returns s + o series by series.
func (s scrape) plus(o scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// summaryMean is the mean of a summary's samples in the delta: _sum/_count,
// scaled by scale (1000 turns a _seconds summary into ms). The exported
// quantiles are cumulative since node start, so only the sum and count can
// be differenced over a window.
func (s scrape) summaryMean(name string, scale float64, want ...string) float64 {
	return ratio(s.sum(name+"_sum", want...)*scale, s.sum(name+"_count", want...))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
