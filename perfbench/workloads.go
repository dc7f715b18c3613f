package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/farm"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/telemetry"
)

// The fixed campaign specs. A workload sets only the campaign fields
// farm.JobSpec sets (shards, batch size, seed, Detect) and none of the
// execution knobs, so it runs the path campd runs.
const (
	shards    = 4
	batchSize = 16
	body      = 24
	// mixedTests is the budget of one fleet-mixed or farm-durable
	// campaign: 235 rounds.
	mixedTests = 15000
	// learnTests is the budget of one fleet-learn campaign: 7 rounds,
	// so two passes over eight seeds give the 100 round samples the p90
	// needs.
	learnTests = 7 * shards * batchSize
	// pollEvery is how often the farm workload reads the job's status
	// to time its round reports.
	pollEvery = 200 * time.Microsecond
	// parks is how many times a farm-durable job is parked by a
	// graceful stop and resumed by reopening the farm, at even steps of
	// its rounds.
	parks = 7
	// coldStarts is how many extra farm set-ups a farm-durable repeat
	// times besides its job's own: one takes about 5 ms, mostly fsync,
	// and single samples spread by half.
	coldStarts = 4
	// stallAfter fails a farm job that reports no round for this long,
	// so a hung farm ends the run instead of outliving its time limit.
	stallAfter = time.Minute
)

// seedsPerPass is how many campaign seeds one pass of each workload
// runs. Throughput depends on the seed (the bandit picks a different
// arm mix), so a run spreads over several campaigns to report a
// figure that does not hinge on one seed's mix.
var seedsPerPass = map[string]int{"fleet-mixed": 6, "fleet-learn": 8, "farm-durable": 4}

// resumePlan says where and how often a direct workload times the
// resume of a campaign's checkpoint: after each of points even steps of
// the campaign's budget, tries times. One resume takes 10 to 40 ms and
// single samples spread by a third, so a run takes about a hundred
// (fleet-mixed runs at least 24 campaigns, fleet-learn 16).
var resumePlan = map[string]struct{ points, tries int }{
	"fleet-mixed": {points: 2, tries: 2},
	"fleet-learn": {points: 2, tries: 3},
}

// campaignSeeds derives a run's campaign seeds from the workload seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i)
	}
	return out
}

func rocketDUT() rtl.DUT { return rocket.New() }
func boomDUT() rtl.DUT   { return boom.New() }

func mixedConfig(seed int64) campaign.Config {
	return campaign.Config{Shards: shards, BatchSize: batchSize, Seed: seed, Detect: true}
}

func mixedDUTs() []func() rtl.DUT { return []func() rtl.DUT{rocketDUT, boomDUT} }

func mixedArms() []campaign.ArmSpec {
	return []campaign.ArmSpec{campaign.TheHuzzArm(body), campaign.RandInstArm(body), campaign.RandFuzzArm(body)}
}

func learnArms(p *core.Pipeline) []campaign.ArmSpec {
	return []campaign.ArmSpec{campaign.LearningLLMArm(p), campaign.LLMArm(p), campaign.TheHuzzArm(body), campaign.RandInstArm(body)}
}

// farmSpec is the fleet-mixed spec as a farm submission.
func farmSpec(seed int64) farm.JobSpec {
	return farm.JobSpec{
		Name:      "farm-durable",
		DUTs:      []string{"rocket", "boom"},
		Arms:      []string{"thehuzz", "randinst", "randfuzz"},
		Tests:     mixedTests,
		Shards:    shards,
		BatchSize: batchSize,
		Seed:      seed,
		Body:      body,
		Detect:    true,
	}
}

// env is one invocation's context.
type env struct {
	dir string // scratch directory inside the checkout
	// ref holds the fleet-mixed trajectory digest of each campaign
	// seed, from an untimed campaign.RunTests at the same budget, which
	// every fleet-mixed and farm-durable repeat must reproduce.
	ref map[int64]string
	// resumeChecked holds the campaign seeds whose resumed fleet has
	// already run the check round in this invocation.
	resumeChecked map[int64]bool
}

// repeat is one closed-loop campaign of a workload: set-up, the
// measured rounds, and the checks on its outputs.
type repeat struct {
	seed   int64
	traced bool

	setup  time.Duration
	rounds []time.Duration // barrier-to-barrier samples
	tests  int             // tests committed in the sampled rounds
	wall   time.Duration   // wall time of the sampled rounds
	cpu    time.Duration
	allocs uint64
	// recover holds the times from restart to the first new round
	// (farm-durable) or to a resumed fleet (the direct workloads).
	recover []time.Duration
	// coldStarts are further set-up samples (farm-durable).
	coldStarts []time.Duration

	digest string
	cov    float64
	// attempted and failed count rounds; a round fails when the
	// outputs it belongs to differ from the reference.
	attempted, failed int
	problems          []string

	// spans are the benchmark-side timings around calls it makes.
	spans map[string][]time.Duration
	ckptB []int // checkpoint sizes in bytes

	// Traced repeats only.
	layers   map[string]layerTime
	roundUS  int64
	gapUS    int64
	dropped  int
	sim      map[string]simTotals
	simWait  time.Duration
	learnW   time.Duration
	probed   int
	snapHits int
	snapLook int
}

type simTotals struct{ runs, scratches, nanos int64 }

// newRepeat starts a repeat from a collected heap, so the garbage of
// the campaign before it does not land in its measured rounds.
func newRepeat(seed int64, traced bool) *repeat {
	runtime.GC()
	return &repeat{seed: seed, traced: traced, spans: map[string][]time.Duration{}}
}

func (r *repeat) time(name string, t0 time.Time) {
	r.spans[name] = append(r.spans[name], time.Since(t0))
}

func (r *repeat) fail(rounds int, format string, args ...any) {
	r.failed += rounds
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// phase measures a run phase: CPU time and heap allocations.
type phase struct {
	u0 usage
	m0 uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func startPhase() phase { return phase{u0: readUsage(), m0: mallocs()} }

func (p phase) stop(r *repeat) {
	r.cpu += readUsage().cpu - p.u0.cpu
	r.allocs += mallocs() - p.m0
}

// fleet is an orchestrator built by a repeat, with its trace plumbing
// when the repeat is traced.
type fleet struct {
	o     *campaign.Orchestrator
	rec   *telemetry.Recorder
	tf    *os.File
	sim   *simStats
	duts  []func() rtl.DUT // plain constructors, for resume
	specs []campaign.ArmSpec
}

// newFleet builds the orchestrator. A traced repeat adds exactly the
// measurement hooks: the span recorder, the scheduler probe and the
// timing DUT wrapper.
func (r *repeat) newFleet(e *env, cfg campaign.Config, duts []func() rtl.DUT, specs []campaign.ArmSpec) (*fleet, error) {
	f := &fleet{duts: duts, specs: specs}
	build := duts
	if r.traced {
		tf, err := os.Create(filepath.Join(e.dir, "trace.json"))
		if err != nil {
			return nil, err
		}
		f.tf = tf
		f.rec = telemetry.NewRecorder(tf)
		f.sim = newSimStats()
		cfg.Telemetry = f.rec
		cfg.Probe = true
		build = make([]func() rtl.DUT, len(duts))
		for i, d := range duts {
			build[i] = f.sim.wrap(d)
		}
	}
	t0 := time.Now()
	o, err := campaign.NewMixed(cfg, build, specs...)
	r.time("campaign.new", t0)
	if err != nil {
		if f.tf != nil {
			f.tf.Close()
		}
		return nil, err
	}
	f.o = o
	return f, nil
}

// runRounds runs the closed loop until the budget is committed: each
// round starts when the previous barrier returns. after, when set,
// runs inside the timed round (the farm runner's checkpoint).
func (r *repeat) runRounds(f *fleet, budget int, after func() error) error {
	ph := startPhase()
	t0, n0 := f.o.Tests(), f.o.Rounds()
	last := time.Now()
	start := last
	for f.o.Tests() < budget {
		if err := f.o.RunRound(); err != nil {
			return err
		}
		if after != nil {
			if err := after(); err != nil {
				return err
			}
		}
		now := time.Now()
		r.rounds = append(r.rounds, now.Sub(last))
		last = now
	}
	r.wall += last.Sub(start)
	r.tests += f.o.Tests() - t0
	r.attempted += f.o.Rounds() - n0
	ph.stop(r)
	return nil
}

// finishTrace closes the recorder and folds the trace, the probes and
// the DUT wrapper's counters into the repeat. It runs right after the
// measured rounds, before anything else touches the fleet.
func (r *repeat) finishTrace(f *fleet) error {
	if f.rec == nil {
		return nil
	}
	if err := f.rec.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.dropped = f.rec.Dropped()
	name := f.tf.Name()
	if err := f.tf.Close(); err != nil {
		return err
	}
	in, err := os.Open(name)
	if err != nil {
		return err
	}
	tf, err := readTrace(in)
	in.Close()
	if err != nil {
		return err
	}
	os.Remove(name)
	r.layers = selfTimes(tf.spans, tf.lanes())
	r.roundUS, r.gapUS = unattributed(tf.spans, telemetry.SpanRound)
	for _, p := range f.o.Probes() {
		r.simWait += p.SimWait
		r.learnW += p.LearnWait
		r.snapHits += p.SnapHits
		r.snapLook += p.SnapHits + p.SnapMisses
	}
	r.probed = len(f.o.Probes())
	r.sim = map[string]simTotals{}
	for _, d := range f.sim.designs() {
		c := f.sim.byDesign[d]
		r.sim[d] = simTotals{c.runs.Load(), c.scratches.Load(), c.nanos.Load()}
	}
	return nil
}

// runCampaign runs a direct campaign's rounds up to the budget in
// points segments, and between segments, outside the measured rounds,
// times the resume of the fleet's checkpoint tries times.
func (r *repeat) runCampaign(e *env, f *fleet, budget, points, tries int) error {
	for i := 1; i < points; i++ {
		if err := r.runRounds(f, budget*i/points, nil); err != nil {
			return err
		}
		res, err := r.timeResumes(e, f, tries)
		if err != nil {
			return err
		}
		res.Close()
	}
	return r.runRounds(f, budget, nil)
}

// timeResumes checkpoints the fleet and resumes it from the file tries
// times, which is what recover_s times on the direct workloads. Each
// resume starts from a collected heap, as a restarted process would.
// The resumed fleet must hold the running fleet's trajectory; the last
// one is returned for the caller to close.
func (r *repeat) timeResumes(e *env, f *fleet, tries int) (*campaign.Orchestrator, error) {
	path := filepath.Join(e.dir, "ckpt.json")
	t0 := time.Now()
	if err := f.o.CheckpointFile(path); err != nil {
		return nil, err
	}
	r.time("campaign.checkpoint", t0)
	if st, err := os.Stat(path); err == nil {
		r.ckptB = append(r.ckptB, int(st.Size()))
	}
	var res *campaign.Orchestrator
	for i := 0; i < tries; i++ {
		if res != nil {
			res.Close()
			res = nil
		}
		runtime.GC()
		t1 := time.Now()
		var err error
		if res, err = campaign.ResumeMixedFile(path, f.duts, f.specs...); err != nil {
			return nil, err
		}
		d := time.Since(t1)
		r.recover = append(r.recover, d)
		r.spans["campaign.resume"] = append(r.spans["campaign.resume"], d)
	}
	if a, b := trajectoryDigest(res.Trajectory()), trajectoryDigest(f.o.Trajectory()); a != b {
		r.fail(f.o.Rounds(), "resumed trajectory %s differs from the running fleet's %s", a, b)
	}
	return res, nil
}

// conclude records the repeat's outputs and resumes the finished fleet
// from its checkpoint. The first time a seed gets here in an
// invocation, the resumed fleet's first round must match the original
// fleet's next round (a fleet-learn round takes 0.3 s, so later passes
// skip it). That round is left out of recover_s: whether it trains
// depends on the arm the bandit picks, which would make the figure
// bimodal on fleet-learn.
func (r *repeat) conclude(e *env, f *fleet, learner string, tries int) error {
	traj := f.o.Trajectory()
	r.digest = "traj=" + trajectoryDigest(traj)
	if learner != "" {
		r.digest += " weights=" + weightsDigest(f.o.LearnedWeights(learner))
	}
	r.cov = f.o.Coverage()

	res, err := r.timeResumes(e, f, tries)
	if err != nil {
		return err
	}
	defer res.Close()
	if e.resumeChecked[r.seed] {
		return nil
	}
	e.resumeChecked[r.seed] = true
	if err := res.RunRound(); err != nil {
		return err
	}
	if err := f.o.RunRound(); err != nil {
		return err
	}
	r.attempted++
	if a, b := trajectoryDigest(res.Trajectory()), trajectoryDigest(f.o.Trajectory()); a != b {
		r.fail(1, "resumed round diverged: %s != %s", a, b)
	}
	return nil
}

func (f *fleet) close() {
	f.o.Close()
	if f.tf != nil {
		f.tf.Close()
		os.Remove(f.tf.Name())
	}
}

// runFleetMixed is one fleet-mixed repeat.
func runFleetMixed(e *env, seed int64, traced bool) (*repeat, error) {
	r := newRepeat(seed, traced)
	t0 := time.Now()
	f, err := r.newFleet(e, mixedConfig(seed), mixedDUTs(), mixedArms())
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.setup = time.Since(t0)
	plan := resumePlan["fleet-mixed"]
	if err := r.runCampaign(e, f, mixedTests, plan.points, plan.tries); err != nil {
		return nil, err
	}
	if err := r.finishTrace(f); err != nil {
		return nil, err
	}
	if d := "traj=" + trajectoryDigest(f.o.Trajectory()); d != e.ref[seed] {
		r.fail(f.o.Rounds(), "trajectory %s differs from campaign.RunTests %s", d, e.ref[seed])
	}
	return r, r.conclude(e, f, "", plan.tries)
}

// train builds the test-scale pipeline as campd does for a job with an
// LLM arm, timing each training step on its own into spans.
func train(spans map[string][]time.Duration) *core.Pipeline {
	p := core.NewPipeline(core.TestPipelineConfig())
	t := time.Now()
	p.Pretrain()
	spans["core.pretrain"] = append(spans["core.pretrain"], time.Since(t))
	t = time.Now()
	p.Cleanup()
	spans["core.cleanup"] = append(spans["core.cleanup"], time.Since(t))
	t = time.Now()
	p.CoverageTune(rocket.New())
	spans["core.covtune"] = append(spans["core.covtune"], time.Since(t))
	return p
}

// runFleetLearn is one fleet-learn repeat over a trained pipeline.
func runFleetLearn(e *env, seed int64, p *core.Pipeline, traced bool) (*repeat, error) {
	r := newRepeat(seed, traced)
	t0 := time.Now()
	f, err := r.newFleet(e, mixedConfig(seed), []func() rtl.DUT{rocketDUT}, learnArms(p))
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.setup = time.Since(t0)
	plan := resumePlan["fleet-learn"]
	if err := r.runCampaign(e, f, learnTests, plan.points, plan.tries); err != nil {
		return nil, err
	}
	if err := r.finishTrace(f); err != nil {
		return nil, err
	}
	return r, r.conclude(e, f, "chatfuzz-learn", plan.tries)
}

// mixedReference runs fleet-mixed once, untimed, for the digest every
// fleet-mixed and farm-durable repeat of this seed must reproduce.
func mixedReference(seed int64) (string, error) {
	o, err := campaign.NewMixed(mixedConfig(seed), mixedDUTs(), mixedArms()...)
	if err != nil {
		return "", err
	}
	defer o.Close()
	if err := o.RunTests(mixedTests); err != nil {
		return "", err
	}
	return "traj=" + trajectoryDigest(o.Trajectory()), nil
}

// expectedRounds is the round count of a campaign with this budget.
func expectedRounds(budget int) int {
	per := shards * batchSize
	return (budget + per - 1) / per
}

// observation is one round report seen by the poller.
type observation struct {
	t     time.Time
	round int
	tests int
}

// watchJob polls a farm job's status and records each new round
// report until done reports true. The first report opens a run phase
// and the last closes it.
func (r *repeat) watchJob(s *farm.Server, id string, after int, done func(farm.JobStatus) bool) ([]observation, error) {
	var obs []observation
	var ph phase
	progress := time.Now()
	for {
		if time.Since(progress) > stallAfter {
			return nil, fmt.Errorf("farm: job %s reported no round for %v", id, stallAfter)
		}
		st, ok := s.Job(id)
		if !ok {
			return nil, fmt.Errorf("farm: job %s vanished", id)
		}
		if st.State == farm.JobFailed {
			return nil, fmt.Errorf("farm: job %s failed: %s", id, st.Error)
		}
		if st.Round > after {
			now := time.Now()
			progress = now
			if len(obs) == 0 {
				ph = startPhase()
			}
			after = st.Round
			obs = append(obs, observation{now, st.Round, st.Tests})
			if done(st) {
				ph.stop(r)
				break
			}
		}
		time.Sleep(pollEvery)
	}
	// Rounds the poller saw together share the interval evenly.
	for i := 1; i < len(obs); i++ {
		a, b := obs[i-1], obs[i]
		n := b.round - a.round
		for k := 0; k < n; k++ {
			r.rounds = append(r.rounds, b.t.Sub(a.t)/time.Duration(n))
		}
	}
	if n := len(obs); n > 0 {
		r.wall += obs[n-1].t.Sub(obs[0].t)
		r.tests += obs[n-1].tests - obs[0].tests
	}
	return obs, nil
}

// parkRounds returns the rounds at which a farm-durable job is parked:
// parks even steps through its rounds.
func parkRounds() []int {
	total := expectedRounds(mixedTests)
	out := make([]int, parks)
	for i := range out {
		out[i] = total * (i + 1) / (parks + 1)
	}
	return out
}

// coldStart times one farm set-up on its own, in a fresh directory:
// farm.Open and Submit up to the job's first round report. The farm is
// then stopped, which parks the job, and the directory removed.
func (r *repeat) coldStart(dir string, seed int64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t0 := time.Now()
	s, err := farm.Open(farm.Config{Dir: dir})
	if err != nil {
		return err
	}
	st, err := s.Submit(farmSpec(seed))
	for err == nil {
		if st, _ = s.Job(st.ID); st.Round > 0 {
			r.coldStarts = append(r.coldStarts, time.Since(t0))
			break
		}
		if st.State == farm.JobFailed || time.Since(t0) > stallAfter {
			err = fmt.Errorf("farm: cold start job %s did not report a round: %s %s", st.ID, st.State, st.Error)
		}
		time.Sleep(pollEvery)
	}
	if serr := s.Stop(); err == nil {
		err = serr
	}
	return err
}

// runFarmDurable is one farm-durable repeat: submit fleet-mixed as a
// farm job, then stop the farm gracefully at each park round (the job
// parks at a checkpoint), reopen it, and let the job resume, until it
// finishes.
func runFarmDurable(e *env, seed int64) (*repeat, error) {
	r := newRepeat(seed, false)
	dir := filepath.Join(e.dir, "farm")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < coldStarts; i++ {
		if err := r.coldStart(filepath.Join(e.dir, "cold"), seed); err != nil {
			return nil, err
		}
	}
	total := expectedRounds(mixedTests)
	stops := append(parkRounds(), total)

	t0 := time.Now()
	s, err := farm.Open(farm.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	r.time("farm.open", t0)
	t := time.Now()
	st, err := s.Submit(farmSpec(seed))
	if err != nil {
		s.Stop()
		return nil, err
	}
	r.time("farm.submit", t)
	id := st.ID
	after, resumes := 0, 0
	for i, stop := range stops {
		if i > 0 {
			runtime.GC() // as in timeResumes: the restarted daemon starts clean
			t0 = time.Now()
			if s, err = farm.Open(farm.Config{Dir: dir}); err != nil {
				return nil, err
			}
			r.time("farm.open", t0)
		}
		obs, err := r.watchJob(s, id, after, func(st farm.JobStatus) bool { return st.Round >= stop })
		if err != nil {
			s.Stop()
			return nil, err
		}
		if i == 0 {
			r.setup = obs[0].t.Sub(t0)
		} else {
			r.recover = append(r.recover, obs[0].t.Sub(t0))
			// Each reopened farm counts the resumes it made itself.
			st, _ := s.Job(id)
			resumes += st.Resumes
		}
		if stop == total {
			break
		}
		t = time.Now()
		if err := s.Stop(); err != nil {
			return nil, err
		}
		r.time("farm.stop", t)
		parked, _ := s.Job(id)
		after = parked.Round
	}
	// The last round is reported before the final checkpoint and the
	// done record land.
	for deadline := time.Now().Add(stallAfter); ; time.Sleep(pollEvery) {
		st, _ := s.Job(id)
		if st.State == farm.JobDone {
			break
		}
		if st.State == farm.JobFailed || time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("farm: job %s did not finish: %s %s", id, st.State, st.Error)
		}
	}
	reps, _ := s.Rounds(id, 0)
	final, _ := s.Job(id)
	t = time.Now()
	if err := s.Stop(); err != nil {
		return nil, err
	}
	r.time("farm.stop", t)

	r.attempted += len(reps)
	r.digest = "traj=" + reportsDigest(reps)
	r.cov = final.Coverage
	if resumes != parks {
		r.fail(len(reps), "job resumed %d times, want %d", resumes, parks)
	}
	if r.digest != e.ref[seed] {
		r.fail(len(reps), "farm job trajectory %s differs from fleet-mixed %s", r.digest, e.ref[seed])
	}
	return r, nil
}

// replayFarmDurable is farm-durable's traced repeat. The farm builds
// its fleets internally, out of the tracer's reach, so the same job is
// replayed from outside: the traced fleet runs with the farm runner's
// per-round checkpoint, and at each park round the checkpoint is
// resumed once to time ResumeMixedFile.
func replayFarmDurable(e *env, seed int64) (*repeat, error) {
	r := newRepeat(seed, true)
	park := map[int]bool{}
	for _, p := range parkRounds() {
		park[p] = true
	}
	path := filepath.Join(e.dir, "ckpt.json")
	t0 := time.Now()
	f, err := r.newFleet(e, mixedConfig(seed), mixedDUTs(), mixedArms())
	if err != nil {
		return nil, err
	}
	defer f.close()
	r.setup = time.Since(t0)
	err = r.runRounds(f, mixedTests, func() error {
		t := time.Now()
		if err := f.o.CheckpointFile(path); err != nil {
			return err
		}
		r.time("campaign.checkpoint", t)
		if st, err := os.Stat(path); err == nil {
			r.ckptB = append(r.ckptB, int(st.Size()))
		}
		if !park[f.o.Rounds()] {
			return nil
		}
		t = time.Now()
		res, err := campaign.ResumeMixedFile(path, f.duts, f.specs...)
		if err != nil {
			return err
		}
		r.time("campaign.resume", t)
		if a, b := trajectoryDigest(res.Trajectory()), trajectoryDigest(f.o.Trajectory()); a != b {
			r.fail(f.o.Rounds(), "resumed trajectory %s differs from the running fleet's %s", a, b)
		}
		res.Close()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := r.finishTrace(f); err != nil {
		return nil, err
	}
	r.digest = "traj=" + trajectoryDigest(f.o.Trajectory())
	r.cov = f.o.Coverage()
	if r.digest != e.ref[seed] {
		r.fail(f.o.Rounds(), "replayed trajectory %s differs from fleet-mixed %s", r.digest, e.ref[seed])
	}
	return r, nil
}
