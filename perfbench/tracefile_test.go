package main

import (
	"bytes"
	"testing"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
)

// TestSelfTimeSyntheticTree checks self time and the unattributed gap
// over a hand-built round: the orchestrator lane holds the round, its
// barrier and the training inside it; one shard lane holds generate
// and commit, and the engine worker's spans nest inside the commit.
func TestSelfTimeSyntheticTree(t *testing.T) {
	tf := &traceFile{
		tracks: map[int]string{1: "orchestrator", 2: "learn/chatfuzz-learn", 3: "shard0/rocket", 4: "rocket/worker"},
		spans: []span{
			{"round", 1, 0, 100},
			{"barrier", 1, 80, 100},
			{"train", 2, 85, 95},
			{"generate", 3, 0, 10},
			{"commit", 3, 10, 70},
			{"build", 4, 10, 12},
			{"sim", 4, 12, 40},
			{"golden", 4, 40, 50},
			{"build", 4, 50, 51},
			{"sim", 4, 51, 60},
		},
	}
	lanes := tf.lanes()
	if lanes[4] != "shard0/rocket" || lanes[2] != "orchestrator" {
		t.Fatalf("lanes = %v", lanes)
	}
	got := selfTimes(tf.spans, lanes)
	want := map[string]layerTime{
		"round":    {80, 1}, // the shard's spans run on another goroutine
		"barrier":  {10, 1},
		"train":    {10, 1},
		"generate": {10, 1},
		"commit":   {10, 1},
		"build":    {3, 2},
		"sim":      {37, 2},
		"golden":   {10, 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %dus over %d calls, want %dus over %d", name, got[name].selfUS, got[name].calls, w.selfUS, w.calls)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got layers %v", got)
	}
	root, gap := unattributed(tf.spans, "round")
	if root != 100 || gap != 10 {
		t.Errorf("unattributed = %d of %d, want 10 of 100", gap, root)
	}
}

func TestCoveredUnion(t *testing.T) {
	spans := []span{{"a", 1, 5, 15}, {"b", 1, 10, 20}, {"c", 1, 30, 40}, {"d", 1, -5, 2}}
	if c := covered(spans, 0, 35); c != 2+15+5 {
		t.Errorf("covered = %d, want 22", c)
	}
}

// TestReadTraceFromRecorder runs a small traced fleet through the
// real telemetry.Recorder and reads the trace back.
func TestReadTraceFromRecorder(t *testing.T) {
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(&buf)
	cfg := campaign.Config{Shards: 2, BatchSize: 4, Seed: 3, Detect: true, Telemetry: rec}
	o, err := campaign.NewMixed(cfg, []func() rtl.DUT{rocketDUT, boomDUT}, campaign.TheHuzzArm(8), campaign.RandInstArm(8))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if d := rec.Dropped(); d != 0 {
		t.Fatalf("recorder dropped %d events", d)
	}
	tf, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lanes := tf.lanes()
	for tid, name := range tf.tracks {
		if l := lanes[tid]; name == "rocket/worker" && l != "shard0/rocket" || name == "boom/worker" && l != "shard1/boom" {
			t.Errorf("track %q is on lane %q", name, l)
		}
	}
	layers := selfTimes(tf.spans, lanes)
	tests := o.Tests()
	for name, calls := range map[string]int{
		"round": 5, "barrier": 5, "generate": 10, "commit": 10,
		"build": tests, "sim": tests, "golden": tests,
	} {
		lt := layers[name]
		if lt.calls != calls {
			t.Errorf("%s: %d calls, want %d", name, lt.calls, calls)
		}
		if lt.selfUS < 0 {
			t.Errorf("%s: negative self time %d", name, lt.selfUS)
		}
	}
	root, gap := unattributed(tf.spans, "round")
	if root <= 0 || gap < 0 || gap > root {
		t.Errorf("unattributed = %d of %d", gap, root)
	}
}
