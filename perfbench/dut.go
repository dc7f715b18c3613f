package main

import (
	"sort"
	"sync/atomic"
	"time"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// simCounter accumulates one design's simulation calls and time.
type simCounter struct {
	runs      atomic.Int64 // DUT.Run calls (the engine should never make them)
	scratches atomic.Int64 // Runner.RunScratch calls
	nanos     atomic.Int64
}

// simStats holds one counter per design. Designs are registered while
// the fleet is built, before any simulation runs, so the map itself is
// only read concurrently.
type simStats struct {
	byDesign map[string]*simCounter
}

func newSimStats() *simStats { return &simStats{byDesign: map[string]*simCounter{}} }

// wrap returns a constructor whose DUTs time every simulation into s.
// Both designs vend Runners, and the wrapper keeps that capability, so
// the engine stays on the allocation-free RunScratch path.
func (s *simStats) wrap(newDUT func() rtl.DUT) func() rtl.DUT {
	return func() rtl.DUT {
		d := newDUT().(rtl.ReusableDUT)
		c, ok := s.byDesign[d.Name()]
		if !ok {
			c = &simCounter{}
			s.byDesign[d.Name()] = c
		}
		return &timedDUT{d, c}
	}
}

// designs returns the registered design names, sorted.
func (s *simStats) designs() []string {
	out := make([]string, 0, len(s.byDesign))
	for n := range s.byDesign {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// timedDUT times DUT.Run and Runner.RunScratch and forwards
// everything else unchanged.
type timedDUT struct {
	rtl.ReusableDUT
	c *simCounter
}

func (d *timedDUT) Run(img mem.Image, maxInsts int) rtl.Result {
	t := time.Now()
	res := d.ReusableDUT.Run(img, maxInsts)
	d.c.nanos.Add(int64(time.Since(t)))
	d.c.runs.Add(1)
	return res
}

func (d *timedDUT) NewRunner() rtl.Runner {
	return &timedRunner{d.ReusableDUT.NewRunner(), d.c}
}

// timedRunner times Runner.RunScratch.
type timedRunner struct {
	r rtl.Runner
	c *simCounter
}

func (r *timedRunner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	t := time.Now()
	res := r.r.RunScratch(img, maxInsts, set, tr)
	r.c.nanos.Add(int64(time.Since(t)))
	r.c.scratches.Add(1)
	return res
}
