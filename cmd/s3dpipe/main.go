// Command s3dpipe is the thin launcher over the analysis registry: it
// turns a declarative pipeline config into a running hybrid
// in-situ/in-transit pipeline and prints the resulting Table II style
// cost breakdown. The preferred entry point is a config file:
//
//	s3dpipe -config examples/configs/quickstart.json
//
// The original ad-hoc flags still work and are converted into a
// generated legacy config (printable with -dump-config), so both paths
// construct pipelines through the identical registry.Build code:
//
//	s3dpipe -nx 64 -ny 48 -nz 16 -px 4 -py 4 -pz 2 -steps 10 \
//	        -stats hybrid -viz hybrid -topology -buckets 4
//
// See PIPELINES.md for the complete configuration reference.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"insitu/internal/core"
	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/trace"
	// Registers the "poison" drill analysis that
	// examples/configs/tenants.json names.
	_ "insitu/internal/workload"
)

func main() {
	var (
		configPath = flag.String("config", "", "declarative pipeline config file (JSON); supersedes the scenario flags below")
		dumpConfig = flag.Bool("dump-config", false, "print the effective pipeline config as JSON and exit without running")
		nx, ny, nz = flag.Int("nx", 56, "global grid x"), flag.Int("ny", 48, "global grid y"), flag.Int("nz", 16, "global grid z")
		px, py, pz = flag.Int("px", 4, "ranks in x"), flag.Int("py", 4, "ranks in y"), flag.Int("pz", 2, "ranks in z")
		steps      = flag.Int("steps", 5, "simulation steps")
		every      = flag.Int("every", 1, "analysis cadence in steps")
		substeps   = flag.Int("substeps", 1, "explicit sub-iterations per step (S3D-like cost)")
		buckets    = flag.Int("buckets", 4, "staging buckets (in-transit cores)")
		servers    = flag.Int("servers", 2, "DataSpaces service shards")
		statsMode  = flag.String("stats", "both", "descriptive statistics: off|insitu|hybrid|both")
		vizMode    = flag.String("viz", "both", "visualization: off|insitu|hybrid|both")
		topo       = flag.Bool("topology", true, "hybrid merge-tree topology")
		topoStream = flag.Bool("topology-streaming", false, "use the streaming in-transit topology variant")
		topoPar    = flag.Int("topology-workers", 0, ">1 switches to the parallel hierarchical glue")
		feat       = flag.Bool("featurestats", false, "hybrid feature-based statistics")
		autoc      = flag.Bool("autocorr", false, "hybrid temporal auto-correlation")
		conting    = flag.Bool("contingency", false, "hybrid contingency statistics (T vs OH)")
		assess     = flag.Bool("assess", false, "in-situ assess & test (outlier flags + normality test)")
		tracking   = flag.Bool("tracking", false, "hybrid feature tracking on the OH field")
		factor     = flag.Int("factor", 8, "hybrid visualization down-sampling factor")
		imgOut     = flag.String("images", "", "directory to write final-step renders to")
		seed       = flag.Int64("seed", 1, "simulation seed")
		timeline   = flag.Bool("timeline", false, "print the execution Gantt chart (temporal multiplexing)")
		obsAddr    = flag.String("obs", "", "serve the live observability endpoint (/metrics, /trace.json, /events.jsonl, /status, /debug/pprof) on this address, e.g. :6060")
		obsDump    = flag.String("obs-dump", "", "directory to write trace.json, events.jsonl, and metrics.prom to after the run")
		hold       = flag.Bool("hold", false, "with -obs: keep serving after the run until SIGINT/SIGTERM")
		journal    = flag.String("journal", "", "directory for the durable step journal and checkpoints (enables recovery)")
		resume     = flag.Bool("resume", false, "with -journal: continue an interrupted run from its last committed step")
		ckptEvery  = flag.Int("ckpt-every", 5, "with -journal: checkpoint cadence in steps")
		storeDir   = flag.String("store", "", "directory for the Cinema-style image database; rendered frames are filed there as the run goes")
		serveAddr  = flag.String("serve", "", "with -store: serve the image database over HTTP on this address, e.g. :8080 (viewer page, /db, /img, /latest.json)")
		cameras    = flag.Int("cameras", 0, "render each viz step from an orbit of N camera directions (the image database's camera axis; 0/1 = the single default view)")
	)
	flag.Parse()

	var cfg *registry.Config
	var err error
	if *configPath != "" {
		cfg, err = registry.LoadConfig(*configPath)
	} else {
		if *resume && *journal == "" {
			fail(fmt.Errorf("-resume requires -journal DIR"))
		}
		if *serveAddr != "" && *storeDir == "" {
			fail(fmt.Errorf("-serve requires -store DIR"))
		}
		cfg, err = registry.LegacyOptions{
			NX: *nx, NY: *ny, NZ: *nz,
			PX: *px, PY: *py, PZ: *pz,
			Steps: *steps, Every: *every, SubSteps: *substeps,
			Buckets: *buckets, Servers: *servers,
			StatsMode: *statsMode, VizMode: *vizMode,
			Topology: *topo, TopologyStreaming: *topoStream, TopologyWorkers: *topoPar,
			FeatureStats: *feat, AutoCorr: *autoc, Contingency: *conting,
			Assess: *assess, Tracking: *tracking,
			Factor: *factor, Cameras: *cameras, Seed: *seed,
			Journal: *journal, CkptEvery: *ckptEvery,
			StoreDir: *storeDir,
		}.Config()
	}
	if err != nil {
		fail(err)
	}
	if *dumpConfig {
		out, err := cfg.Marshal()
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(out)
		return
	}

	b, err := registry.Build(cfg)
	if err != nil {
		fail(err)
	}
	defer b.Close()

	runSteps := b.Steps(explicitSteps(), 5)
	if b.Scheduler != nil {
		runMulti(b, runSteps, *obsAddr, *obsDump, *hold)
		return
	}
	runSingle(b, runSteps, *resume, *timeline, *imgOut, *obsAddr, *obsDump, *hold, *serveAddr)
}

// explicitSteps returns the -steps value when the user set it on the
// command line, 0 otherwise — so a config's declared step count wins
// over the flag default but never over an explicit flag.
func explicitSteps() int {
	set := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "steps" {
			fmt.Sscanf(f.Value.String(), "%d", &set)
		}
	})
	return set
}

// runSingle runs a single-tenant topology and prints the classic
// s3dpipe report: recovery summary, timeline, store info, the Table II
// cost breakdown, the overload-control summary when the config arms an
// overload block, and the final-step topology/render artifacts.
func runSingle(b *registry.Built, steps int, resume, timeline bool, imgOut, obsAddr, obsDump string, hold bool, serveAddr string) {
	p := b.Pipeline
	t := &b.Config.Tenants[0]
	if resume && b.Config.Recovery == nil {
		fail(fmt.Errorf("-resume requires a recovery plane (-journal or a config recovery block)"))
	}

	var tl *trace.Timeline
	if timeline {
		tl = p.EnableTrace()
	}
	pl, stop := setupObs(p.EnableObs, func() any { return p.Status() }, obsAddr, obsDump)
	if b.Store != nil && pl != nil {
		b.Store.PublishTo(pl.Registry())
	}

	if serveAddr == "" && b.Config.Store != nil {
		serveAddr = b.Config.Store.Serve
	}
	if serveAddr != "" && b.Store == nil {
		fail(fmt.Errorf("serving requires an image store (-store DIR or a config store block)"))
	}
	// The serving tier starts before the run so live viewers can poll
	// latest.json while frames are still landing.
	var stopServe func()
	if serveAddr != "" {
		sv := serve.New(b.Store)
		if pl != nil {
			sv.PublishTo(pl.Registry())
		}
		ln, err := net.Listen("tcp", serveAddr)
		if err != nil {
			fail(err)
		}
		srv := &http.Server{Handler: sv}
		go srv.Serve(ln)
		fmt.Printf("image serving tier on http://%s/ (viewer page, /db/info.json, /latest.json)\n\n", ln.Addr())
		stopServe = func() { srv.Close() }
		defer stopServe()
	}

	fmt.Printf("s3dpipe: grid %dx%dx%d, %d simulation ranks, %d DataSpaces shards, %d buckets, %d steps\n\n",
		t.Sim.NX, t.Sim.NY, t.Sim.NZ, t.Sim.PX*t.Sim.PY*t.Sim.PZ,
		b.Config.Fabric.DSServers, b.Config.TransitBuckets(), steps)
	var rep *core.Report
	var err error
	if resume {
		rep, err = p.Resume(steps)
	} else {
		rep, err = p.Run(steps)
	}
	if err != nil {
		fail(err)
	}
	// Hold covers the serving tier too: with serving and -hold the
	// database stays browsable after the run until SIGINT/SIGTERM.
	defer finishObs(pl, stop, obsDump, hold && (obsAddr != "" || serveAddr != ""))

	if rec := rep.Recovery; rec != nil {
		fmt.Printf("recovery: %d commits, %d checkpoints, %d journal fsyncs\n",
			rec.Commits, rec.Checkpoints, rec.JournalFsyncs)
		if resume {
			fmt.Printf("resumed from step %d (checkpoint %d): %d tasks replayed in %.3fs\n",
				rec.ResumedFrom, rec.CheckpointStep, rec.ReplayedTasks, rec.ResumeSeconds)
		}
		for _, w := range rep.Warnings {
			fmt.Println("warning:", w)
		}
		fmt.Println()
	}

	if tl != nil {
		fmt.Println(tl.Gantt(100))
		util := tl.Utilization()
		fmt.Print("lane utilization:")
		for _, lane := range tl.Lanes() {
			fmt.Printf(" %s=%.0f%%", lane, 100*util[lane])
		}
		fmt.Println()
		fmt.Println()
	}

	if b.Store != nil {
		info := b.Store.Info()
		fmt.Printf("image store: %d frames in %d blobs (%.2f MB) under %s; vars %v, cams %v, latest step %d\n\n",
			info.Frames, info.Blobs, float64(info.Bytes)/1e6, b.Config.Store.Dir, info.Vars, info.Cams, info.LatestStep)
	}

	total, perStep, n := rep.Metrics.SimTime()
	fmt.Printf("simulation: %d steps, %v total, %v per step\n\n", n, total.Round(1e6), perStep.Round(1e6))
	fmt.Println(rep.Metrics.TableII())
	fmt.Printf("network: %d transfers, %.3f MB moved, %v modeled busy\n",
		rep.Net.Transfers, float64(rep.Net.BytesMoved)/1e6, rep.Net.ModeledBusy.Round(1e3))
	if t.Overload != nil {
		printOverload(p, rep, b.Tenants[0].Routes, steps)
	}

	for _, a := range b.Tenants[0].Analyses {
		if a.Name() != "hybrid topology" {
			continue
		}
		if tr, ok := rep.Result(a.Name(), lastDue(steps, a.Every())).(*core.TopologyResult); ok && tr != nil {
			fmt.Printf("topology (final step): %d tree nodes resident of %d streamed (peak %d), %d maxima",
				len(tr.Tree.Nodes), tr.Stream.Declared, tr.Stream.PeakLive, len(tr.Tree.Maxima()))
			if len(tr.Features) > 0 {
				fmt.Printf(", %d features above threshold", len(tr.Features))
			}
			fmt.Println()
		}
	}

	if imgOut != "" {
		if err := os.MkdirAll(imgOut, 0o755); err != nil {
			fail(err)
		}
		saved := map[string]bool{}
		for _, a := range b.Tenants[0].Analyses {
			var file string
			switch a.(type) {
			case *core.VizInSitu:
				file = "insitu.png"
			case *core.VizHybrid:
				file = "hybrid.png"
			default:
				continue
			}
			if saved[file] {
				continue
			}
			if img, ok := rep.Result(a.Name(), lastDue(steps, a.Every())).(*render.Image); ok {
				save(img, filepath.Join(imgOut, file))
				saved[file] = true
			}
		}
	}
}

// runMulti runs a multi-tenant config topology and prints the
// per-tenant fabric summary, driven entirely by the config's tenant
// list.
func runMulti(b *registry.Built, steps int, obsAddr, obsDump string, hold bool) {
	s := b.Scheduler
	fmt.Printf("s3dpipe: multi-tenant fabric %q, %d tenants, %d buckets, %d steps\n\n",
		b.Config.Name, len(b.Tenants), b.Config.TransitBuckets(), steps)

	names := make([]string, 0, len(b.Tenants))
	for _, t := range b.Tenants {
		names = append(names, t.Name)
	}
	pl, stop := setupObs(s.EnableObs, func() any {
		return map[string]any{
			"tenants":        names,
			"active_buckets": s.Staging().ActiveBuckets(),
		}
	}, obsAddr, obsDump)

	reps, err := s.Run(steps)
	if err != nil {
		// Analysis-route failures (e.g. a drill route's deliberate
		// crashes) leave the per-tenant reports usable; surface the
		// error and summarize what ran.
		fmt.Printf("run finished with analysis errors: %v\n\n", err)
	}
	defer finishObs(pl, stop, obsDump, hold && obsAddr != "")

	for _, t := range b.Tenants {
		rep := reps[t.Name]
		if rep == nil {
			continue
		}
		o := rep.Overload
		r := rep.Resilience
		fmt.Printf("tenant %s:\n", t.Name)
		fmt.Printf("  worst step wall      %v\n", rep.Metrics.MaxStepWall().Round(1e3))
		fmt.Printf("  steps shaped/shed    %d/%d\n", o.StepsShaped, o.StepsShed)
		fmt.Printf("  in-situ fallbacks    %d\n", o.StepsFallback)
		fmt.Printf("  breaker opens        %d\n", o.BreakerOpens)
		fmt.Printf("  retries/dead letters %d/%d\n", r.Retries, r.DeadLetters)
		for _, ep := range s.TenantEndpoints(t.Name) {
			st := ep.Stats()
			fmt.Printf("  endpoint %-16s %d retries, %d crc failures, %.3f MB moved\n",
				ep.Name(), st.Retries, st.ChecksumFailures, float64(ep.TransferBytes())/1e6)
		}
	}

	fmt.Println("\nshared fabric:")
	q := s.Quarantine()
	fmt.Printf("  quarantine           %d opens, %d releases\n", q.Opens(), q.Releases())
	if a := s.Autoscaler(); a != nil {
		fmt.Printf("  bucket pool          %d grows, %d shrinks, %d active\n",
			a.Grows(), a.Shrinks(), s.Staging().ActiveBuckets())
	}
	out, avail, total := s.Credits().Snapshot()
	fmt.Printf("  credits              %d/%d available, %d outstanding\n", avail, total, out)

	fmt.Println("\nrecovery:")
	for _, t := range b.Tenants {
		if rep := reps[t.Name]; rep != nil {
			printRouteRecovery(rep, t.Name+"/", t.Routes, steps)
		}
	}
}

// printOverload prints a single-tenant run's overload-control summary:
// what was shaped, shed, or run in-situ, how the breakers cycled, and
// when each route recovered full hybrid.
func printOverload(p *core.Pipeline, rep *core.Report, routes []string, steps int) {
	o := rep.Overload
	fmt.Println("\noverload control:")
	fmt.Printf("  credits denied       %d\n", o.CreditsDenied)
	fmt.Printf("  steps shaped         %d\n", o.StepsShaped)
	fmt.Printf("  steps shed           %d\n", o.StepsShed)
	fmt.Printf("  in-situ fallbacks    %d\n", o.StepsFallback)
	fmt.Printf("  breaker opens        %d\n", o.BreakerOpens)
	fmt.Printf("  breaker transitions  %d\n", o.BreakerTransitions)
	r := rep.Resilience
	fmt.Println("resilience:")
	fmt.Printf("  faults injected      %d\n", r.Faults)
	fmt.Printf("  retries              %d\n", r.Retries)
	fmt.Printf("  requeues             %d\n", r.Requeues)
	fmt.Printf("  dead letters         %d\n", r.DeadLetters)
	fmt.Printf("  degraded steps       %d\n", r.DegradedSteps)

	fmt.Println("\nrecovery:")
	printRouteRecovery(rep, "", routes, steps)
	for name, st := range p.BreakerStates() {
		fmt.Printf("  %-28s breaker %v\n", name, st)
	}
	c := p.Credits()
	fmt.Printf("  credits drained: %d/%d available, %d outstanding\n",
		c.Available(), c.Total(), c.Outstanding())
	fmt.Printf("  worst step wall: %v\n", rep.Metrics.MaxStepWall().Round(1e3))
}

// printRouteRecovery prints, per hybrid route, the step from which the
// route ran full hybrid again after its last degraded step.
func printRouteRecovery(rep *core.Report, prefix string, routes []string, steps int) {
	for _, route := range routes {
		lastDegraded := 0
		for step := 1; step <= steps; step++ {
			if _, ok := rep.Result(route, step).(core.Degraded); ok {
				lastDegraded = step
			}
		}
		if lastDegraded == 0 {
			fmt.Printf("  %s%-28s never degraded\n", prefix, route)
		} else {
			fmt.Printf("  %s%-28s full hybrid again from step %d/%d\n",
				prefix, route, lastDegraded+1, steps)
		}
	}
}

// setupObs enables the observability plane when -obs or -obs-dump was
// given and, for -obs, starts the live HTTP endpoint with status as its
// /status document. It returns the plane (nil when observability is
// off) and a server stop function (nil when no endpoint was started).
func setupObs(enable func() *obs.Plane, status func() any, addr, dump string) (*obs.Plane, func()) {
	if addr == "" && dump == "" {
		return nil, nil
	}
	pl := enable()
	if addr == "" {
		return pl, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: obs.Handler(pl, status)}
	go srv.Serve(ln)
	fmt.Printf("observability endpoint on http://%s/\n\n", ln.Addr())
	return pl, func() { srv.Close() }
}

// finishObs writes the post-run export files, optionally holds the
// live endpoint open until SIGINT/SIGTERM, and shuts the server down.
func finishObs(pl *obs.Plane, stop func(), dump string, hold bool) {
	if pl != nil && dump != "" {
		dumpObs(dump, pl)
	}
	if hold {
		fmt.Println("holding observability endpoint open; SIGINT/SIGTERM to exit")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		<-ch
	}
	if stop != nil {
		stop()
	}
}

// dumpObs writes trace.json, events.jsonl, and metrics.prom under dir.
// Each export is rendered in memory and landed with an atomic
// temp-file+rename, so a crash mid-dump never leaves a torn artifact
// where a previous run's good one stood.
func dumpObs(dir string, pl *obs.Plane) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	write := func(name string, render func(io.Writer) error) {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			fail(err)
		}
		if err := recovery.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
	}
	write("trace.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, pl.Recorder()) })
	write("events.jsonl", func(w io.Writer) error { return obs.WriteJSONL(w, pl.Recorder()) })
	write("metrics.prom", func(w io.Writer) error { return pl.Registry().WritePrometheus(w) })
}

// lastDue returns the last step at which a cadence-every analysis ran.
func lastDue(steps, every int) int {
	if every < 1 {
		every = 1
	}
	return steps - steps%every
}

func save(img *render.Image, path string) {
	if err := img.SavePNG(path); err != nil {
		fail(err)
	}
	fmt.Println("wrote", path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "s3dpipe:", err)
	os.Exit(1)
}
