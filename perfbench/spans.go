package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and End are offsets from the tracer's start; Alloc is the heap
// bytes the whole process allocated while the span was open.
type span struct {
	ID, Parent int // Parent 0 = a root span
	Name       string
	Start, End time.Duration
	Alloc      uint64
}

// layer is the part of a span name before the first dot: "sim.bml" and
// "sim.rig" both belong to layer "sim".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps the spans of one traced run in memory; they are written
// out when the run ends. A nil *tracer records nothing, so untraced and
// traced passes run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	alloc := allocBytes()
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, Alloc: alloc})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0)
	alloc := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	s.Alloc = alloc - s.Alloc
}

// do runs f inside a span.
func (t *tracer) do(parent int, name string, f func() error) error {
	id := t.begin(parent, name)
	defer t.end(id)
	return f()
}

// now is the tracer clock, for walls measured alongside the spans.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// allocBytes reads the process's cumulative heap allocation without
// stopping the world. The runtime counts it per allocator cache refill, so
// a span's alloc is exact to a few tens of KB: meaningful for layers that
// allocate megabytes, noise for microsecond calls.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// interval is a half-open [from, to) stretch of the tracer clock.
type interval struct{ from, to time.Duration }

// covered returns how much of [from, to) the union of ivs covers.
func covered(from, to time.Duration, ivs []interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.from, from), min(iv.to, to)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from < clipped[j].from })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.from <= cur.to:
			cur.to = max(cur.to, iv.to)
		default:
			total += cur.to - cur.from
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.to - cur.from
	}
	return total
}

// selfTimes returns each span's self time — its duration minus the part
// of its interval its child spans cover — and its self alloc (its alloc
// minus its children's, floored at 0), keyed by span ID. Children that run
// concurrently on several goroutines are counted once where they overlap.
func selfTimes(spans []span) (self map[int]time.Duration, selfAlloc map[int]uint64) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = make(map[int]time.Duration, len(spans))
	selfAlloc = make(map[int]uint64, len(spans))
	for _, s := range spans {
		var ivs []interval
		var childAlloc uint64
		for _, k := range kids[s.ID] {
			ivs = append(ivs, interval{k.Start, k.End})
			childAlloc += k.Alloc
		}
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, ivs)
		if s.Alloc > childAlloc {
			selfAlloc[s.ID] = s.Alloc - childAlloc
		}
	}
	return self, selfAlloc
}

// layerRow is one line of the "where time goes" table.
type layerRow struct {
	Layer   string
	Calls   int
	Self    time.Duration
	AllocMB float64
}

// whereTimeGoes folds spans into per-layer self time over a traced section
// that lasted wall, largest first, and returns the time no span covers.
func whereTimeGoes(spans []span, wall time.Duration) (rows []layerRow, uncovered time.Duration) {
	self, selfAlloc := selfTimes(spans)
	byLayer := map[string]*layerRow{}
	var roots []interval
	for _, s := range spans {
		r := byLayer[s.layer()]
		if r == nil {
			r = &layerRow{Layer: s.layer()}
			byLayer[s.layer()] = r
		}
		r.Calls++
		r.Self += self[s.ID]
		r.AllocMB += float64(selfAlloc[s.ID]) / (1 << 20)
		if s.Parent == 0 {
			roots = append(roots, interval{s.Start, s.End})
		}
	}
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows, wall - covered(0, wall, roots)
}

// printWhereTimeGoes renders the table. Shares are of wall; where nproc
// workers run concurrently they can add up to more than 100%.
func printWhereTimeGoes(w io.Writer, workload string, rows []layerRow, wall, uncovered time.Duration) {
	fmt.Fprintf(w, "where time goes (%s, traced wall %.3f s)\n", workload, wall.Seconds())
	fmt.Fprintf(w, "  %-10s %8s %11s %8s %10s\n", "layer", "calls", "self_s", "share", "alloc_MB")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %8d %11.4f %7.1f%% %10.1f\n", r.Layer, r.Calls, r.Self.Seconds(),
			100*r.Self.Seconds()/wall.Seconds(), r.AllocMB)
	}
	fmt.Fprintf(w, "  %-10s %8s %11.4f %7.1f%%\n", "(no span)", "-", uncovered.Seconds(), 100*uncovered.Seconds()/wall.Seconds())
}

// spanStats aggregates the spans with one name.
type spanStats struct {
	calls int
	total time.Duration
	durs  []float64 // seconds, in recording order
	alloc uint64
}

func statsByName(spans []span) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.calls++
		st.total += s.End - s.Start
		st.durs = append(st.durs, (s.End - s.Start).Seconds())
		st.alloc += s.Alloc
	}
	return out
}
