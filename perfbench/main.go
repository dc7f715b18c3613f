// Command perfbench is chatfuzz's performance ledger. It runs one of
// three fixed campaign workloads on the real Rocket and BOOM models,
// checks the outputs, and prints the end-to-end metrics, or with
// --trace 1 the per-layer metrics, as the last line of its output: one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chatfuzz/internal/core"
)

// minRoundSamples is the fewest round samples a run reports
// percentiles from: ten lie beyond the p90.
const minRoundSamples = 100

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet-mixed, fleet-learn or farm-durable")
	seed := flag.Int64("seed", 1, "workload seed; it becomes the campaign seed")
	seconds := flag.Float64("seconds", 10, "run-phase seconds to measure at least")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	if *workload != "fleet-mixed" && *workload != "fleet-learn" && *workload != "farm-durable" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fleet-mixed, fleet-learn or farm-durable)\n", *workload)
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(&env{dir: dir, resumeChecked: map[int64]bool{}}, *workload, *seed, *seconds, *trace == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is one run of a workload over all of its campaign seeds. It
// starts cold: fleet-learn trains its pipeline at the start of every
// pass.
type pass struct {
	traced bool
	// setups holds the pass's cold starts, each the time to a first
	// round: every campaign's, except that fleet-learn's campaigns
	// share the pass's trained pipeline, so its pass has one set-up,
	// training included.
	setups []time.Duration
	spans  map[string][]time.Duration
	// weights is the digest of the trained pipeline (fleet-learn).
	weights string
	reps    []*repeat
}

// run executes passes of the workload until the measured rounds add up
// to the requested seconds and the minimums hold, then aggregates
// them. With traced set, untraced and traced passes alternate: the
// traced ones give the per-layer metrics, the pairs give the tracing
// cost.
func run(e *env, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	seeds := campaignSeeds(seed, seedsPerPass[workload])
	fmt.Printf("perfbench: workload=%s seed=%d campaign seeds %v seconds=%g trace=%t gomaxprocs=%d nproc=%d %s\n",
		workload, seed, seeds, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	// The direct reference runs also warm the process up (heap size,
	// page faults, caches) before the first measured campaign.
	if workload != "fleet-learn" {
		e.ref = map[int64]string{}
		for _, s := range seeds {
			ref, err := mixedReference(s)
			if err != nil {
				return nil, err
			}
			e.ref[s] = ref
		}
	}
	var passes []*pass
	var wall time.Duration
	samples := 0
	for i := 0; ; i++ {
		ps, err := runPass(e, workload, seeds, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
		fmt.Printf("pass %d: traced=%t setup %.4fs %s\n", i+1, ps.traced, median(durationsS(ps.setups)), ps.weights)
		for _, r := range ps.reps {
			wall += r.wall
			if !r.traced {
				samples += len(r.rounds)
			}
			fmt.Printf("  seed %d: setup %.4fs, %d rounds, %d tests in %.3fs, recover %.4fs, cov %.4f%%, %s\n",
				r.seed, r.setup.Seconds(), len(r.rounds), r.tests, r.wall.Seconds(), median(durationsS(r.recover)), r.cov, r.digest)
		}
		enough := wall.Seconds() >= seconds
		if traced {
			if enough && len(passes)%2 == 0 {
				break
			}
		} else if enough && len(passes) >= 2 && samples >= minRoundSamples {
			break
		}
	}
	res := &result{Metrics: map[string]metric{}}
	check(res, passes)
	// A round can fail more than one check; count it once.
	res.Failed = min(res.Failed, res.Attempted)
	var err error
	if traced {
		err = layerMetrics(res, passes)
	} else {
		err = endToEnd(res, passes)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%d of %d rounds failed\n", res.Failed, res.Attempted)
	return res, nil
}

// runPass runs one pass: every campaign seed once.
func runPass(e *env, workload string, seeds []int64, traced bool) (*pass, error) {
	ps := &pass{traced: traced, spans: map[string][]time.Duration{}}
	runtime.GC()
	var p *core.Pipeline
	var trainT time.Duration
	if workload == "fleet-learn" {
		t := time.Now()
		p = train(ps.spans)
		trainT = time.Since(t)
		ps.weights = "trained=" + weightsDigest(p.Model.FlattenParams(nil))
	}
	for _, s := range seeds {
		var r *repeat
		var err error
		switch {
		case workload == "fleet-mixed":
			r, err = runFleetMixed(e, s, traced)
		case workload == "fleet-learn":
			r, err = runFleetLearn(e, s, p, traced)
		case traced:
			r, err = replayFarmDurable(e, s)
		default:
			r, err = runFarmDurable(e, s)
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", s, err)
		}
		ps.reps = append(ps.reps, r)
	}
	if p != nil {
		ps.setups = []time.Duration{trainT + ps.reps[0].setup}
	} else {
		for _, r := range ps.reps {
			ps.setups = append(ps.setups, r.setup)
			ps.setups = append(ps.setups, r.coldStarts...)
		}
	}
	return ps, nil
}

// check tallies the rounds and fails the ones whose outputs differ:
// every pass runs the same campaigns, so each campaign's digest, and
// fleet-learn's trained weights, must equal the first pass's.
func check(res *result, passes []*pass) {
	first := map[int64]*repeat{}
	for _, ps := range passes {
		for _, r := range ps.reps {
			res.Attempted += r.attempted
			res.Failed += r.failed
			for _, p := range r.problems {
				fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
			}
			f, ok := first[r.seed]
			if !ok {
				first[r.seed] = r
				continue
			}
			if r.digest != f.digest || r.cov != f.cov {
				res.Failed += r.attempted
				fmt.Fprintf(os.Stderr, "perfbench: check failed: seed %d digest %s cov %v differs from %s cov %v\n",
					r.seed, r.digest, r.cov, f.digest, f.cov)
			}
		}
		if ps.weights != passes[0].weights {
			for _, r := range ps.reps {
				res.Failed += r.attempted
			}
			fmt.Fprintf(os.Stderr, "perfbench: check failed: pipeline %s differs from %s\n", ps.weights, passes[0].weights)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd aggregates the untraced passes into the user-facing
// metrics. Rates are medians over campaigns, so a burst of load on a
// shared host moves them less than a total would.
func endToEnd(res *result, passes []*pass) error {
	var tests int
	var allocs uint64
	var rounds, setups, recovers []time.Duration
	var tps, tpc []float64
	cov := 0.0
	for _, ps := range passes {
		setups = append(setups, ps.setups...)
		for _, r := range ps.reps {
			tests += r.tests
			allocs += r.allocs
			rounds = append(rounds, r.rounds...)
			recovers = append(recovers, r.recover...)
			tps = append(tps, float64(r.tests)/r.wall.Seconds())
			tpc = append(tpc, float64(r.tests)/r.cpu.Seconds())
		}
	}
	for _, r := range passes[0].reps {
		cov += r.cov / float64(len(passes[0].reps))
	}
	if len(rounds) < minRoundSamples {
		return fmt.Errorf("only %d round samples, want at least %d", len(rounds), minRoundSamples)
	}
	rm := durationsMS(rounds)
	p50, b50 := percentile(rm, 50)
	p90, b90 := percentile(rm, 90)
	q, qb, _ := tailPercentile(len(rm))
	pq, _ := percentile(rm, q)
	fmt.Printf("round_ms: %d samples; p50 %.4f (%d beyond), p90 %.4f (%d beyond); highest percentile with >=%d beyond: p%g = %.4f (%d beyond)\n",
		len(rm), p50, b50, p90, b90, minBeyond, q, pq, qb)
	rec := durationsMS(recovers)
	r25, _ := percentile(rec, 25)
	r75, _ := percentile(rec, 75)
	fmt.Printf("recover_ms: %d samples; p25 %.4f, p75 %.4f\n", len(rec), r25, r75)
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Printf("metric %-16s %14.6f %s\n", name, v, unit)
	}
	put("tests_per_s", median(tps), "1/s")
	put("tests_per_cpu_s", median(tpc), "1/s")
	put("round_ms_p50", p50, "ms")
	put("round_ms_p90", p90, "ms")
	put("setup_s", median(durationsS(setups)), "s")
	put("recover_s", median(durationsS(recovers)), "s")
	put("cov_pct", cov, "%")
	put("allocs_per_test", float64(allocs)/float64(tests), "count")
	// Report-only: the process peak depends on when the collector runs
	// during fleet-learn's PPO bursts, and ten runs at one commit
	// spread over 112-159 MB, wider than any bound could allow.
	fmt.Printf("report %-16s %14.6f %s\n", "peak_rss_mb", float64(readUsage().maxRSSK)/1024, "MB")
	return nil
}

// layerNames maps the program's span names to the layer metrics they
// become.
var layerNames = []struct{ span, layer string }{
	{"generate", "core.generate"},
	{"build", "engine.build"},
	{"sim", "engine.sim"},
	{"golden", "engine.golden"},
	{"commit", "core.commit"},
	{"barrier", "campaign.barrier"},
	{"train", "fleetlearn.train"},
}

// reportOnly lists the layer metrics that only some workloads
// exercise. They are printed on every traced run but kept out of the
// JSON line, whose metrics must be measured on every workload.
var reportOnly = map[string]bool{
	"fleetlearn.train.ms_per_ktest": true,
	"fleetlearn.train.calls":        true,
	"rtl.boom.us_per_run":           true,
	"core.pretrain.s":               true,
	"core.cleanup.s":                true,
	"core.covtune.s":                true,
	"farm.open.ms":                  true,
	"farm.submit.ms":                true,
	"farm.stop.ms":                  true,
}

// layerMetrics aggregates a traced invocation into the per-layer
// metrics: program spans, probes and DUT timings from the traced
// repeats, benchmark-side spans from every repeat.
func layerMetrics(res *result, passes []*pass) error {
	var tr, un []*repeat
	spans := map[string][]time.Duration{}
	var ckpt []float64
	for _, ps := range passes {
		for k, v := range ps.spans {
			spans[k] = append(spans[k], v...)
		}
		for _, r := range ps.reps {
			if r.traced {
				tr = append(tr, r)
			} else {
				un = append(un, r)
			}
			for k, v := range r.spans {
				spans[k] = append(spans[k], v...)
			}
			for _, b := range r.ckptB {
				ckpt = append(ckpt, float64(b)/1024)
			}
		}
	}
	tps := func(rs []*repeat) float64 {
		var t int
		var w time.Duration
		for _, r := range rs {
			t += r.tests
			w += r.wall
		}
		return float64(t) / w.Seconds()
	}
	var tests, probed, dropped, hits, looks int
	var roundUS, gapUS int64
	var simWait, learnWait time.Duration
	layers := map[string]layerTime{}
	sims := map[string]simTotals{}
	for _, r := range tr {
		tests += r.tests
		probed += r.probed
		dropped += r.dropped
		hits += r.snapHits
		looks += r.snapLook
		roundUS += r.roundUS
		gapUS += r.gapUS
		simWait += r.simWait
		learnWait += r.learnW
		for k, v := range r.layers {
			lt := layers[k]
			lt.selfUS += v.selfUS
			lt.calls += v.calls
			layers[k] = lt
		}
		for k, v := range r.sim {
			s := sims[k]
			s.runs += v.runs
			s.scratches += v.scratches
			s.nanos += v.nanos
			sims[k] = s
		}
	}
	ktests := float64(tests) / 1000
	put := func(name string, v float64, unit string) {
		if !reportOnly[name] {
			res.Metrics[name] = metric{v, unit}
		}
		fmt.Printf("layer %-36s %14.6f %s\n", name, v, unit)
	}
	for _, name := range []string{"core.pretrain", "core.cleanup", "core.covtune"} {
		put(name+".s", median(durationsS(spans[name])), "s")
	}
	for _, name := range []string{"campaign.new", "campaign.checkpoint", "campaign.resume", "farm.open", "farm.submit", "farm.stop"} {
		put(name+".ms", median(durationsMS(spans[name])), "ms")
	}
	put("campaign.checkpoint.kb", median(ckpt), "KiB")
	var runs int64
	for _, d := range []string{"rocket", "boom"} {
		s := sims[d]
		v := 0.0
		if n := s.runs + s.scratches; n > 0 {
			v = float64(s.nanos) / float64(n) / 1e3
		}
		put("rtl."+d+".us_per_run", v, "us")
		runs += s.runs + s.scratches
		if s.runs > 0 {
			return fmt.Errorf("the engine called DUT.Run %d times on %s; want RunScratch only", s.runs, d)
		}
	}
	put("rtl.runs", float64(runs), "count")
	for _, l := range layerNames {
		lt := layers[l.span]
		put(l.layer+".ms_per_ktest", float64(lt.selfUS)/1e3/ktests, "ms/ktest")
		put(l.layer+".calls", float64(lt.calls), "count")
	}
	fmt.Printf("layer %-36s %14.6f %s\n", "campaign.round.wall_ms_per_ktest", float64(roundUS)/1e3/ktests, "ms/ktest")
	put("campaign.sim_wait.ms_per_round", ms(simWait)/float64(probed), "ms")
	put("campaign.learn_wait.ms_per_round", ms(learnWait)/float64(probed), "ms")
	snap := 0.0
	if looks > 0 {
		snap = 100 * float64(hits) / float64(looks)
	}
	put("engine.snap_hit.pct", snap, "%")
	put("engine.snap_lookups", float64(looks), "count")
	put("trace.unattributed.pct", 100*float64(gapUS)/float64(roundUS), "%")
	put("trace.overhead.pct", 100*(1-tps(tr)/tps(un)), "%")
	put("trace.dropped", float64(dropped), "count")
	if dropped > 0 {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: TRACE DROPPED %d EVENTS: the flight recorder's rings overflowed, so the layer times are incomplete\n", dropped)
	}
	return nil
}
