package store

// Instrumented is the storage engine's layer in a querier stack: it
// decorates a Querier without touching any query (pure pass-through)
// and answers Stats(), so lbs.Walk — which /v1/stats runs over
// the layer tree — finds the engine's counters wherever the wrapper
// sits in the stack.

import "repro/internal/lbs"

// Instrumented passes queries through while exposing store stats.
type Instrumented struct {
	lbs.Querier
	s *Store
}

var _ lbs.Wrapper = (*Instrumented)(nil)

// Inner implements lbs.Wrapper.
func (i *Instrumented) Inner() lbs.Querier { return i.Querier }

// Stats reports the engine counters: the /v1/stats store section.
func (i *Instrumented) Stats() Stats { return i.s.Stats() }
