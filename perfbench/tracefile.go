package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// span is one completed trace span, in microseconds of the recorder's
// clock.
type span struct {
	name  string
	track int // the recording track's thread id
	start int64
	end   int64
}

// traceFile is a parsed Chrome trace-event array as written by
// telemetry.Recorder: complete spans ("X") and track names ("M").
type traceFile struct {
	spans  []span
	tracks map[int]string
}

// traceEvent is the subset of a Chrome trace event the reader needs.
type traceEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Tid  int    `json:"tid"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Args struct {
		Name string `json:"name"`
	} `json:"args"`
}

// readTrace streams a Chrome trace-event JSON array. Instant events
// are skipped; spans and thread names are kept.
func readTrace(r io.Reader) (*traceFile, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("trace: want a JSON array, got %v", tok)
	}
	tf := &traceFile{tracks: map[int]string{}}
	for dec.More() {
		var ev traceEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(tf.spans), err)
		}
		switch ev.Ph {
		case "X":
			tf.spans = append(tf.spans, span{name: ev.Name, track: ev.Tid, start: ev.Ts, end: ev.Ts + ev.Dur})
		case "M":
			if ev.Name == "thread_name" {
				tf.tracks[ev.Tid] = ev.Args.Name
			}
		}
	}
	if _, err := dec.Token(); err != nil {
		return nil, fmt.Errorf("trace: unterminated array: %w", err)
	}
	return tf, nil
}

// lanes maps every track to the goroutine that records into it, so
// spans nest by time within a lane. The orchestrator's track and the
// learning tracks share the barrier goroutine (training runs inline
// in the barrier on the default path). A shard's generate/commit
// track and its engine's inline worker track share the shard
// goroutine; the engine registers the worker track right after the
// shard's track, so a worker track belongs to the nearest shard track
// below it in thread-id order.
func (tf *traceFile) lanes() map[int]string {
	tids := make([]int, 0, len(tf.tracks))
	for tid := range tf.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	out := make(map[int]string, len(tids))
	shard := ""
	for _, tid := range tids {
		name := tf.tracks[tid]
		switch {
		case name == "orchestrator" || strings.HasPrefix(name, "learn/"):
			out[tid] = "orchestrator"
		case strings.HasPrefix(name, "shard"):
			shard = name
			out[tid] = name
		case shard != "" && (strings.HasSuffix(name, "/worker") || strings.HasSuffix(name, "/committer")):
			out[tid] = shard
		default:
			out[tid] = name
		}
	}
	return out
}

// layerTime is one span name's totals: summed self time and calls.
type layerTime struct {
	selfUS int64
	calls  int
}

// selfTimes returns each span name's self time: its duration minus
// the part of it that its child spans cover. A span's children are
// the spans of the same lane that it contains; lanes are given by
// laneOf (track id → lane).
func selfTimes(spans []span, laneOf map[int]string) map[string]layerTime {
	byLane := map[string][]span{}
	for _, s := range spans {
		l, ok := laneOf[s.track]
		if !ok {
			l = fmt.Sprintf("track%d", s.track)
		}
		byLane[l] = append(byLane[l], s)
	}
	out := map[string]layerTime{}
	for _, ss := range byLane {
		// Parents sort before the children they contain: earlier start
		// first, and the longer span first on a shared start.
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end
		})
		children := make([][]span, len(ss))
		var stack []int
		for i, s := range ss {
			for len(stack) > 0 && ss[stack[len(stack)-1]].end < s.end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				children[p] = append(children[p], s)
			}
			stack = append(stack, i)
		}
		for i, s := range ss {
			lt := out[s.name]
			lt.selfUS += (s.end - s.start) - covered(children[i], s.start, s.end)
			lt.calls++
			out[s.name] = lt
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// unattributed returns the summed duration of the spans named root
// and how much of it no other span, on any track, covers.
func unattributed(spans []span, root string) (rootUS, gapUS int64) {
	var roots, layers []span
	for _, s := range spans {
		if s.name == root {
			roots = append(roots, s)
		} else {
			layers = append(layers, s)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].start < layers[j].start })
	for _, r := range roots {
		// Layers that start after the round ends cannot cover it; the
		// sorted order bounds the scan.
		hi := sort.Search(len(layers), func(i int) bool { return layers[i].start >= r.end })
		var in []span
		for _, s := range layers[:hi] {
			if s.end > r.start {
				in = append(in, s)
			}
		}
		rootUS += r.end - r.start
		gapUS += (r.end - r.start) - covered(in, r.start, r.end)
	}
	return rootUS, gapUS
}
