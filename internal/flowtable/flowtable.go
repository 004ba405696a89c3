// Package flowtable provides the congestion-point flow-table
// implementations enumerated in §3.4 of the RoCC paper. A flow table
// decides which flow sources receive the fair-rate feedback each update
// interval.
//
// All implementations are deterministic: iteration follows insertion
// order, and the sampled variants draw from a caller-provided seeded
// source.
package flowtable

import "rocc/internal/sim"

// FlowID mirrors netsim.FlowID without importing it: the tables depend
// on the event clock (sim) alone, not on the packet simulator.
type FlowID int64

// Table tracks candidate feedback recipients at one congestion point.
type Table interface {
	// OnEnqueue observes a data packet of the flow entering the queue.
	OnEnqueue(now sim.Time, flow FlowID, bytes int)

	// OnDequeue observes a data packet of the flow leaving the queue.
	OnDequeue(now sim.Time, flow FlowID, bytes int)

	// Flows appends the current feedback recipients to dst and returns it.
	// Called once per update interval T.
	Flows(now sim.Time, dst []FlowID) []FlowID

	// Len returns the number of tracked flows.
	Len() int
}

// orderedSet is a map plus stable insertion order, shared by the
// bounded, ElephantTrap and BubbleCache tables so feedback
// order is deterministic. QueueTable keeps the same order without a map.
type orderedSet struct {
	index map[FlowID]int
	order []FlowID
}

func newOrderedSet() orderedSet {
	return orderedSet{index: make(map[FlowID]int)}
}

func (s *orderedSet) add(f FlowID) bool {
	if _, ok := s.index[f]; ok {
		return false
	}
	s.index[f] = len(s.order)
	s.order = append(s.order, f)
	return true
}

func (s *orderedSet) remove(f FlowID) {
	i, ok := s.index[f]
	if !ok {
		return
	}
	last := len(s.order) - 1
	moved := s.order[last]
	s.order[i] = moved
	s.index[moved] = i
	s.order = s.order[:last]
	delete(s.index, f)
}

func (s *orderedSet) has(f FlowID) bool { _, ok := s.index[f]; return ok }
func (s *orderedSet) len() int          { return len(s.order) }
