package main

import (
	"bytes"
	"testing"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/rtl"
)

// smallMixed runs a short Detect fleet over the given constructors and
// returns its trajectory digest and checkpoint bytes.
func smallMixed(t *testing.T, duts []func() rtl.DUT) (string, []byte, int) {
	t.Helper()
	cfg := campaign.Config{Shards: 2, BatchSize: 8, Seed: 5, Detect: true}
	o, err := campaign.NewMixed(cfg, duts, campaign.TheHuzzArm(12), campaign.RandInstArm(12), campaign.RandFuzzArm(12))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.RunTests(400); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := o.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	return trajectoryDigest(o.Trajectory()), ck.Bytes(), o.Tests()
}

// TestTimedDUTIsTransparent checks that the timing wrapper changes no
// output and keeps the engine on the RunScratch path.
func TestTimedDUTIsTransparent(t *testing.T) {
	plainDigest, plainCkpt, tests := smallMixed(t, []func() rtl.DUT{rocketDUT, boomDUT})

	sim := newSimStats()
	wrapped := []func() rtl.DUT{sim.wrap(rocketDUT), sim.wrap(boomDUT)}
	for i, want := range []string{"rocket", "boom"} {
		d := wrapped[i]()
		if d.Name() != want {
			t.Errorf("wrapped DUT is named %q, want %q", d.Name(), want)
		}
		if _, ok := d.(rtl.ReusableDUT); !ok {
			t.Errorf("wrapped %s DUT lost rtl.ReusableDUT", want)
		}
	}
	digest, ckpt, _ := smallMixed(t, wrapped)
	if digest != plainDigest {
		t.Errorf("trajectory digest %s with the wrapper, %s without", digest, plainDigest)
	}
	if !bytes.Equal(ckpt, plainCkpt) {
		t.Errorf("checkpoint bytes differ with the wrapper (%d vs %d bytes)", len(ckpt), len(plainCkpt))
	}
	var scratches int64
	for _, d := range sim.designs() {
		c := sim.byDesign[d]
		if n := c.runs.Load(); n != 0 {
			t.Errorf("%s: the engine called DUT.Run %d times, want RunScratch only", d, n)
		}
		if c.nanos.Load() <= 0 {
			t.Errorf("%s: no simulation time recorded", d)
		}
		scratches += c.scratches.Load()
	}
	if scratches != int64(tests) {
		t.Errorf("RunScratch ran %d times for %d tests", scratches, tests)
	}
}
