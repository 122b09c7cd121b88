package cluster

// This file implements the transition min-heap: the index that makes
// NextTransitionEnd, Reconfiguring, and transition-completion dispatch
// O(log n) in the number of transitioning machines instead of O(fleet).
//
// Invariants:
//
//   - One entry is pushed per transition start (PowerOn into Booting,
//     PowerOff into ShuttingDown), keyed by the absolute simulation time at
//     which the transition will complete (Cluster.now + Machine.Remaining).
//     Zero-duration transitions resolve instantly and never enter the heap.
//   - Entries are never removed when a transition resolves; they go stale
//     and are lazily invalidated instead. An entry is stale when its node's
//     transition sequence number has moved on (a newer transition started)
//     or the machine is simply no longer transitioning. Because a machine
//     cannot abort a transition (On/Off actions run to completion, §IV),
//     every stale entry has an end time in the past, so stale entries
//     always surface at the top of the heap and are dropped by the next
//     peek — the heap never accumulates garbage beyond the current
//     transition count.
//   - Ties on the end time are broken by push order, keeping the index
//     fully deterministic for the differential tests.
//
// The heap is an *index*, not the source of truth: machine automata still
// resolve their own transitions inside Machine.Tick, with arithmetic
// identical to the pre-heap implementation, so energies and states are
// unchanged to the last bit. differential_test.go keeps the original
// O(fleet) scans as the reference the index is held to.

// transEntry is one indexed transition.
type transEntry struct {
	end  float64 // absolute simulation time at which the transition resolves
	tick uint64  // push order, tie-break for deterministic ordering
	nd   *node
	seq  uint64 // nd.seq at push time; mismatch marks the entry stale
}

// stale reports whether the entry no longer describes a live transition.
func (e transEntry) stale() bool {
	return e.seq != e.nd.seq || !e.nd.m.Transitioning()
}

// transHeap is a binary min-heap of transition entries ordered by
// (end, tick). Push and pop sift typed entries in place (the same moves
// container/heap makes), so neither boxes an entry.
type transHeap []transEntry

func (h transHeap) less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].tick < h[j].tick
}

// push adds e and restores the heap order.
func (h *transHeap) push(e transEntry) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes the minimum entry.
func (h *transHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	q[n] = transEntry{} // drop the node reference
	*h = q[:n]
}

// pushTransition indexes the transition nd just started.
func (c *Cluster) pushTransition(nd *node) {
	c.pushTick++
	c.transitions.push(transEntry{
		end:  c.now + nd.m.Remaining(),
		tick: c.pushTick,
		nd:   nd,
		seq:  nd.seq,
	})
}

// pruneTransitions drops stale entries from the top of the heap (lazy
// invalidation). After it returns, the top entry — if any — is a live
// transition with the earliest completion time.
func (c *Cluster) pruneTransitions() {
	for len(c.transitions) > 0 && c.transitions[0].stale() {
		c.transitions.pop()
	}
}
