package main

import (
	"embed"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/imagestore"
	"insitu/internal/mergetree"
	"insitu/internal/metrics"
	"insitu/internal/netsim"
	"insitu/internal/obs"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/sim"
	viewers "insitu/internal/workload"
)

//go:embed configs/*.json
var configFS embed.FS

// workloadNames is the fixed order workloads run and print in; each
// has a committed config of the same name under configs/.
var workloadNames = []string{"hybrid-compute", "wire-codec", "durable-store", "tenants-shared"}

// layerOf maps a config analysis name onto the internal/<layer> whose
// kernels it runs, for the per-layer in-situ/in-transit columns.
var layerOf = map[string]string{
	"stats":    "stats",
	"autocorr": "stats",
	"viz":      "render",
	"topology": "mergetree",
}

// Viewer fleet shape: two closed-loop clients (never more generator
// goroutines than the two cores of the reference host) in back-to-back
// waves, short so the fleet stops soon after Run returns.
const (
	viewerClients  = 2
	viewerWaveReqs = 20
	viewerHotFrac  = 0.5
)

// harness carries one benchmark invocation's settings and its span
// recorder. Everything a pass needs beyond the workload's own config
// comes from here.
type harness struct {
	seed    int64
	scale   int    // step counts are divided by scale (smoke tests use 50)
	tmpRoot string // fresh stores, journals and generated configs go here
	outDir  string // the span file is written here
	rec     *obs.Recorder
	root    int64 // id of the workload-run span every other span descends from
	checks  checks
}

// checks counts what was attempted and what failed, for failed_frac
// and the exit status.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (c *checks) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

func (c *checks) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.failed += n
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// expect counts one invariant check and records its failure.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempt(1)
	if !ok {
		c.fail(1, format, args...)
	}
}

// span times fn as a child of parent in the benchmark's own recorder.
func (h *harness) span(parent int64, name string, fn func(id int64)) time.Duration {
	act := h.rec.Begin(parent, "bench", "bench", name)
	t0 := time.Now()
	fn(act.ID())
	d := time.Since(t0)
	act.End()
	return d
}

// loadTemplate strictly parses the committed config of a workload.
func loadTemplate(name string) (*registry.Config, error) {
	data, err := configFS.ReadFile("configs/" + name + ".json")
	if err != nil {
		return nil, err
	}
	cfg, err := registry.ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("configs/%s.json: %w", name, err)
	}
	return cfg, nil
}

// generate writes the config the program will see: the committed
// template with simSeed on every tenant's simulation and the durable
// planes pointed at dir. The program only ever loads this file.
func (h *harness) generate(name, dir string, simSeed int64) (string, error) {
	cfg, err := loadTemplate(name)
	if err != nil {
		return "", err
	}
	for i := range cfg.Tenants {
		cfg.Tenants[i].Sim.Seed = simSeed
	}
	if cfg.Recovery != nil {
		cfg.Recovery.Dir = filepath.Join(dir, "journal")
	}
	if cfg.Store != nil {
		cfg.Store.Dir = filepath.Join(dir, "store")
	}
	out, err := cfg.Marshal()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "config.json")
	return path, os.WriteFile(path, out, 0o644)
}

// setup is one LoadConfig + Build through the public construction
// path, timed per half.
type setup struct {
	built      *registry.Built
	load, make time.Duration
}

func (h *harness) setup(parent int64, path string) (setup, error) {
	var (
		s   setup
		cfg *registry.Config
		err error
	)
	s.load = h.span(parent, "load", func(int64) { cfg, err = registry.LoadConfig(path) })
	if err != nil {
		return s, err
	}
	s.make = h.span(parent, "build", func(int64) { s.built, err = registry.Build(cfg) })
	return s, err
}

// steps resolves a pass length from the config's step count.
func (h *harness) steps(cfg *registry.Config, div int) int {
	return max(cfg.Steps/(h.scale*div), 2)
}

// pass is everything one Run of a workload produced, read from the
// run's reports and counters after the drain.
type pass struct {
	dir     string // temp dir holding the generated config, store and journal
	steps   int    // run length per tenant
	nten    int
	traced  bool
	buckets int          // staging buckets the config declares
	sims    []sim.Config // each tenant's simulation, for the sim-alone base

	wall        time.Duration                 // of Run, through the drain
	stepWalls   []time.Duration               // every tenant's per-step sim-side wall, pooled
	stepWallSum time.Duration                 // the sum of stepWalls
	simSide     time.Duration                 // the longest tenant's sum of step walls: when the simulation side was done
	simTotal    time.Duration                 // sum over tenants of per-step solver time
	breakdown   map[string]*metrics.Breakdown // per layer, summed over its analyses and the tenants
	total       metrics.Breakdown             // all layers together
	net         netsim.Stats
	codec       dart.CodecStats
	res         metrics.Resilience
	over        metrics.Overload
	errs        int
	pinned      int
	creditsOut  int
	recovery    *core.RecoveryReport
	digests     map[string]string // tenant/analysis/step -> core.ResultDigest

	allocBytes, mallocs uint64
	gcPause             time.Duration
	heapPeak            uint64

	live, idle   viewerTotals
	firstFrame   time.Duration
	store        imagestore.Stats
	serve        serve.Stats
	indexBytes   int64
	journalBytes int64

	plane *obs.Plane // non-nil on a traced pass
	runID int64      // the benchmark's own "run" span
}

// totalSteps is the pipeline steps completed, summed over tenants.
func (p *pass) totalSteps() int { return p.steps * p.nten }

func (p *pass) stepsPerS() float64 { return float64(p.totalSteps()) / p.wall.Seconds() }

// viewerTotals accumulates back-to-back RunViewers waves.
type viewerTotals struct {
	requests, errors int64
	p50, p90         []float64 // per-wave percentiles, ms
}

func (v *viewerTotals) add(s viewers.ViewerStats) {
	v.requests += s.Requests
	v.errors += s.Errors
	v.p50 = append(v.p50, ms(s.P50))
	v.p90 = append(v.p90, ms(s.P90))
}

// passOpts selects the variant of a pass.
type passOpts struct {
	simSeed int64 // every tenant's sim.seed
	traced  bool
	fleet   bool // poll a store workload with the viewer fleet
	stepDiv int  // run cfg.Steps/stepDiv steps (1 = the workload's length)
}

// runPass builds the workload from a freshly generated config in a
// fresh directory, runs it once through Pipeline.Run or Scheduler.Run,
// verifies the run's invariants and returns what it measured. With
// o.fleet a store workload is polled by the viewer fleet while it runs
// and once more, read-only, after it. The directory stays (Resume reads it back) until
// the invocation removes its whole temp root.
func (h *harness) runPass(name string, o passOpts) (*pass, error) {
	if o.stepDiv < 1 {
		o.stepDiv = 1
	}
	dir, err := os.MkdirTemp(h.tmpRoot, name+"-")
	if err != nil {
		return nil, err
	}
	p := &pass{dir: dir, traced: o.traced}
	act := h.rec.Begin(h.root, "bench", "bench", "pass", obs.Str("workload", name), obs.Bool("traced", o.traced))
	defer act.End()

	path, err := h.generate(name, dir, o.simSeed)
	if err != nil {
		return nil, err
	}
	s, err := h.setup(act.ID(), path)
	if err != nil {
		return nil, err
	}
	b := s.built
	p.steps = h.steps(b.Config, o.stepDiv)
	p.nten = len(b.Tenants)
	p.buckets = b.Config.TransitBuckets()
	for _, t := range b.Tenants {
		p.sims = append(p.sims, t.Pipeline.Sim().Config())
	}
	if o.traced {
		if b.Scheduler != nil {
			p.plane = b.Scheduler.EnableObs()
		} else {
			p.plane = b.Pipeline.EnableObs()
		}
	}

	framesBefore := render.ImagesOutstanding()
	var fleet *liveFleet
	var srv *serve.Server
	var ts *httptest.Server
	if b.Store != nil && o.fleet {
		srv = serve.New(b.Store)
		ts = httptest.NewServer(srv)
		fleet = h.startFleet(act.ID(), ts.URL, b.Store)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var reports map[string]*core.Report
	var runErr error
	p.wall = h.span(act.ID(), "run", func(id int64) {
		p.runID = id
		if b.Scheduler != nil {
			reports, runErr = b.Scheduler.Run(p.steps)
		} else {
			var rep *core.Report
			rep, runErr = b.Pipeline.Run(p.steps)
			reports = map[string]*core.Report{b.Tenants[0].Name: rep}
		}
	})
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.heapPeak = m1.HeapSys - m1.HeapReleased

	if fleet != nil {
		p.live, p.firstFrame = fleet.stop()
		h.span(act.ID(), "viewers.idle", func(int64) {
			st, err := viewers.RunViewers(ts.URL, viewers.ViewerConfig{
				Viewers: viewerClients, Requests: viewerWaveReqs, Seed: h.seed, HotFrac: viewerHotFrac,
			})
			if err != nil {
				h.checks.fail(1, "%s: idle viewer wave: %v", name, err)
			}
			p.idle.add(st)
		})
		ts.Close()
		p.serve = srv.Stats()
		p.store = b.Store.Stats()
	}
	if runErr != nil {
		h.checks.fail(1, "%s: run: %v", name, runErr)
	}

	h.collect(name, p, b, reports)
	if b.Store != nil {
		info := b.Store.Info()
		h.checks.expect(info.Frames == p.steps*framesPerStep(b.Config),
			"%s: store holds %d specs, want %d", name, info.Frames, p.steps*framesPerStep(b.Config))
		p.indexBytes = fileSize(filepath.Join(b.Config.Store.Dir, "index.json"))
	}
	if b.Config.Recovery != nil {
		p.journalBytes = fileSize(filepath.Join(b.Config.Recovery.Dir, "journal.wal"))
	}
	h.span(act.ID(), "close", func(int64) {
		if err := b.Close(); err != nil {
			h.checks.fail(1, "%s: close: %v", name, err)
		}
	})
	if b.Store != nil {
		leaked := render.ImagesOutstanding() - framesBefore
		h.checks.expect(leaked == 0, "%s: %d pooled framebuffers leaked", name, leaked)
	}
	for _, v := range []viewerTotals{p.live, p.idle} {
		h.checks.attempt(int(v.requests))
		h.checks.fail(int(v.errors), "%s: %d viewer responses were neither 200 nor 304", name, v.errors)
	}
	return p, nil
}

// collect folds the per-tenant reports into the pass and checks the
// invariants every run must hold.
func (h *harness) collect(name string, p *pass, b *registry.Built, reports map[string]*core.Report) {
	p.breakdown = map[string]*metrics.Breakdown{"stats": {}, "render": {}, "mergetree": {}}
	p.digests = map[string]string{}
	for ti, t := range b.Tenants {
		rep := reports[t.Name]
		if rep == nil {
			h.checks.fail(1, "%s: tenant %q has no report", name, t.Name)
			continue
		}
		var walls time.Duration
		for _, d := range rep.Metrics.StepWalls() {
			p.stepWalls = append(p.stepWalls, d)
			walls += d
		}
		p.stepWallSum += walls
		p.simSide = max(p.simSide, walls)
		simTotal, _, _ := rep.Metrics.SimTime()
		p.simTotal += simTotal
		for ai, a := range t.Analyses {
			layer := layerOf[b.Config.Tenants[ti].Analyses[ai].Analysis]
			tot := rep.Metrics.Total(a.Name())
			for _, bd := range []*metrics.Breakdown{p.breakdown[layer], &p.total} {
				if bd == nil {
					continue // an analysis of no layer the tables name
				}
				bd.InSitu += tot.InSitu
				bd.MoveModeled += tot.MoveModeled
				bd.MoveWall += tot.MoveWall
				bd.InTransit += tot.InTransit
			}

			degraded := 0
			for step := 1; step <= p.steps; step++ {
				res := rep.Result(a.Name(), step)
				if _, bad := res.(core.Degraded); bad || res == nil {
					degraded++
				}
				p.digests[fmt.Sprintf("%s/%s/%d", t.Name, a.Name(), step)] = digest(res)
			}
			h.checks.attempt(p.steps)
			h.checks.fail(degraded, "%s: %s: %d steps degraded or missing", name, a.Name(), degraded)
		}
		p.errs += len(rep.Errs)
		h.checks.fail(len(rep.Errs), "%s: tenant %q: Report.Errs: %v", name, t.Name, rep.Errs)
		p.res.Retries += rep.Resilience.Retries
		p.res.ChecksumFailures += rep.Resilience.ChecksumFailures
		p.res.Requeues += rep.Resilience.Requeues
		p.res.DeadLetters += rep.Resilience.DeadLetters
		p.res.DegradedSteps += rep.Resilience.DegradedSteps
		p.over.CreditsDenied += rep.Overload.CreditsDenied
		p.pinned += t.Pipeline.PinnedRegions()
		if rep.Recovery != nil {
			p.recovery = rep.Recovery
		}
		// Tenants of a scheduler share one network, fabric and credit
		// account, so these read the same totals from every report.
		p.net, p.codec = rep.Net, rep.Codec
	}
	// A pipeline without overload control has no credit account.
	var credits *dataspaces.Credits
	if b.Scheduler != nil {
		credits = b.Scheduler.Credits()
	} else {
		credits = b.Pipeline.Credits()
	}
	if credits != nil {
		p.creditsOut = credits.Outstanding()
	}
	h.checks.expect(p.pinned == 0, "%s: %d regions still pinned after the drain", name, p.pinned)
	h.checks.expect(p.creditsOut == 0, "%s: %d credits outstanding after the drain", name, p.creditsOut)
}

// framesPerStep is how many image-store cells one step fills: the
// camera counts of the config's viz analyses.
func framesPerStep(cfg *registry.Config) int {
	n := 0
	for _, t := range cfg.Tenants {
		for _, a := range t.Analyses {
			if a.Analysis == "viz" {
				if a.Cameras > 1 {
					n += a.Cameras
				} else {
					n++
				}
			}
		}
	}
	return n
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// liveFleet polls the serving tier for as long as Run is in flight.
type liveFleet struct {
	quit chan struct{}
	done chan struct{}

	totals     viewerTotals
	firstFrame time.Duration
}

// startFleet waits (polling Store.Latest every millisecond, which is
// also the time-to-first-servable-frame probe) until the store has a
// frame — latest.json is a 404 before that, and the benchmark sends no
// request that must fail — then runs viewer waves back to back until
// stop.
func (h *harness) startFleet(parent int64, base string, st *imagestore.Store) *liveFleet {
	f := &liveFleet{quit: make(chan struct{}), done: make(chan struct{})}
	t0 := time.Now()
	go func() {
		defer close(f.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if _, ok := st.Latest(); ok {
				f.firstFrame = time.Since(t0)
				break
			}
			select {
			case <-f.quit:
				return
			case <-tick.C:
			}
		}
		for wave := int64(0); ; wave++ {
			select {
			case <-f.quit:
				return
			default:
			}
			h.span(parent, "viewers.live", func(int64) {
				s, err := viewers.RunViewers(base, viewers.ViewerConfig{
					Viewers: viewerClients, Requests: viewerWaveReqs,
					Seed: h.seed + wave*viewerClients, HotFrac: viewerHotFrac,
				})
				if err != nil {
					h.checks.fail(1, "live viewer wave %d: %v", wave, err)
					return
				}
				f.totals.add(s)
			})
		}
	}()
	return f
}

// stop ends the fleet after its current wave and returns what it saw.
func (f *liveFleet) stop() (viewerTotals, time.Duration) {
	close(f.quit)
	<-f.done
	return f.totals, f.firstFrame
}

// simAlone steps every tenant's simulation with no pipeline around it,
// concurrently as the scheduler would, and returns steps per second
// summed over tenants: the base of overhead_x.
func (h *harness) simAlone(cfgs []sim.Config, steps int) (float64, error) {
	sims := make([]*sim.Sim, len(cfgs))
	for i, c := range cfgs {
		s, err := sim.New(c)
		if err != nil {
			return 0, err
		}
		sims[i] = s
	}
	// Rank construction and field initialisation are set-up, not
	// stepping: each rank is timed from its first step to its last.
	var (
		mu         sync.Mutex
		first, end time.Time
		errs       = make([]error, len(sims))
	)
	h.span(h.root, "sim.alone", func(int64) {
		var wg sync.WaitGroup
		for i, s := range sims {
			wg.Add(1)
			go func(i int, s *sim.Sim) {
				defer wg.Done()
				errs[i] = sim.RunAll(s, func(rk *sim.Rank) error {
					rk.Comm().Barrier()
					t0 := time.Now()
					rk.RunSteps(steps)
					t1 := time.Now()
					mu.Lock()
					if first.IsZero() || t0.Before(first) {
						first = t0
					}
					if t1.After(end) {
						end = t1
					}
					mu.Unlock()
					return nil
				})
			}(i, s)
		}
		wg.Wait()
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(steps*len(sims)) / end.Sub(first).Seconds(), nil
}

// digest is core.ResultDigest, except that a topology result is
// digested by value: ResultDigest formats the tree's nested pointers as
// addresses, which differ between any two runs, so the tree is replaced
// by its sorted arc list.
func digest(res any) string {
	if t, ok := res.(*core.TopologyResult); ok && t != nil && t.Tree != nil {
		return core.ResultDigest(struct {
			Arcs     []mergetree.Arc
			Stream   mergetree.StreamStats
			Features []mergetree.Feature
		}{t.Tree.Arcs(), t.Stream, t.Features})
	}
	return core.ResultDigest(res)
}

// sameDigests reports how many (analysis, step) results differ between
// two passes over their common steps.
func sameDigests(a, b *pass) (compared, differing int) {
	keys := make([]string, 0, len(a.digests))
	for k := range a.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		other, ok := b.digests[k]
		if !ok {
			continue
		}
		compared++
		if other != a.digests[k] {
			differing++
		}
	}
	return compared, differing
}
