// Command s3dpipe is the thin launcher over the analysis registry: it
// turns a declarative pipeline config into a running hybrid
// in-situ/in-transit pipeline and prints, per tenant, the Table II
// style cost breakdown and, once per fabric, the transit summary.
//
//	s3dpipe -config examples/configs/quickstart.json
//	s3dpipe -list                  # the registered analysis catalog
//
// A config is the only way to declare a run; the flags say how long to
// run, what to export and what to keep serving. See PIPELINES.md.
package main

import (
	"bytes"
	"cmp"
	"errors"
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
	"insitu/internal/imagestore"
	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/registry"
	"insitu/internal/serve"
	// Registers the "poison" drill analysis that
	// examples/configs/tenants.json names.
	_ "insitu/internal/workload"
)

// options are the operational flags; none changes what the config declares.
type options struct {
	config, images, obsAddr, obsDump, serveAddr string
	steps                                       int
	resume, replay, timeline, hold              bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams as parameters, so tests
// drive it in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("s3dpipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.config, "config", "", "declarative pipeline config file (JSON); required")
	list := fs.Bool("list", false, "print the registered analysis catalog and exit")
	fs.IntVar(&o.steps, "steps", 0, "simulation steps (default: the config's steps, else 5)")
	fs.BoolVar(&o.resume, "resume", false, "continue an interrupted run from its last committed step (needs a config recovery block)")
	fs.BoolVar(&o.replay, "replay", false, "rerun the config's routes over the checkpoints its run saved, writing nothing (needs a config recovery block)")
	fs.BoolVar(&o.timeline, "timeline", false, "print the execution Gantt chart (temporal multiplexing)")
	fs.StringVar(&o.images, "images", "", "directory to write the final step's frames to, read from the image store (needs a config store block)")
	fs.StringVar(&o.obsAddr, "obs", "", "serve the live observability endpoint (/metrics, /trace.json, /events.jsonl, /status, /debug/pprof) on this address, e.g. :6060")
	fs.StringVar(&o.obsDump, "obs-dump", "", "directory to write trace.json, events.jsonl, and metrics.prom to after the run")
	fs.StringVar(&o.serveAddr, "serve", "", "serve the image database over HTTP on this address, overriding the config's store.serve (needs a config store block)")
	fs.BoolVar(&o.hold, "hold", false, "with -obs or a serving tier: keep serving after the run until SIGINT/SIGTERM")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: s3dpipe -config FILE [flags], e.g. s3dpipe -config examples/configs/quickstart.json")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "A run is declared by its config: the scenario flags (-nx, -viz, -stats, -store, ...) are gone;\n"+
			"\"Migrating from flags\" in PIPELINES.md maps each of them to its config key.")
	}
	if fs.Parse(args) != nil {
		return 2 // Parse has printed the error and the usage
	}
	if *list {
		for _, name := range registry.Names() {
			info, _ := registry.Lookup(name)
			fmt.Fprintf(stdout, "%-14s %v\n               %s\n", name, info.Placements, info.Doc)
		}
		return 0
	}
	if o.config == "" {
		fs.Usage()
		return 2
	}
	if o.resume && o.replay {
		fmt.Fprintln(stderr, "s3dpipe: -resume and -replay are mutually exclusive")
		return 2
	}
	if err := launch(o, stdout); err != nil {
		fmt.Fprintln(stderr, "s3dpipe:", err)
		if errors.Is(err, errImagesNeedStore) {
			return 2 // a usage error, like a flag Parse rejects
		}
		return 1
	}
	return 0
}

var errImagesNeedStore = errors.New("-images reads the frames from the image store: it needs a config with a store block, e.g. examples/configs/store-serve.json")

// launch builds the config's topology, starts the endpoints asked for, runs, and prints the report.
func launch(o options, out io.Writer) error {
	cfg, err := registry.LoadConfig(o.config)
	if err != nil {
		return err
	}
	b, err := registry.Build(cfg)
	if err != nil {
		return err
	}
	defer b.Close()
	mode := core.RunFresh
	switch {
	case o.resume:
		mode = core.RunResume
	case o.replay:
		mode = core.RunReplay
	}
	if mode != core.RunFresh && cfg.Recovery == nil {
		return errors.New("-resume and -replay require a config with a recovery block")
	}
	if cfg.Store != nil {
		o.serveAddr = cmp.Or(o.serveAddr, cfg.Store.Serve)
	} else if o.serveAddr != "" {
		return errors.New("-serve requires a config with a store block")
	} else if o.images != "" {
		return errImagesNeedStore
	}
	steps := b.Steps(o.steps, 5)

	var pl *obs.Plane
	if o.timeline || o.obsAddr != "" || o.obsDump != "" {
		pl = b.Scheduler.EnableObs()
		if b.Store != nil {
			b.Store.PublishTo(pl.Registry())
		}
	}
	if o.obsAddr != "" {
		stop, err := serveHTTP(out, "observability endpoint", o.obsAddr, obs.Handler(pl, func() any { return b.Scheduler.Status() }))
		if err != nil {
			return err
		}
		defer stop()
	}
	// Serving starts before the run: viewers poll latest.json as frames land.
	if o.serveAddr != "" {
		sv := serve.New(b.Store)
		if pl != nil {
			sv.PublishTo(pl.Registry())
		}
		stop, err := serveHTTP(out, "image serving tier (viewer page, /db/info.json, /latest.json)", o.serveAddr, sv)
		if err != nil {
			return err
		}
		defer stop()
	}

	span := fmt.Sprintf("%d steps", steps)
	if mode == core.RunReplay {
		span = fmt.Sprintf("a replay of the checkpoints at or below step %d", steps)
	}
	fmt.Fprintf(out, "s3dpipe: %s: %d tenant(s), %d buckets, %s\n\n", cfg.Name, len(b.Tenants), cfg.TransitBuckets(), span)
	reps, err := b.Run(steps, mode)
	if len(reps) == 0 {
		return err
	}
	if err != nil {
		// Failed routes (say, a drill's deliberate crashes) leave the reports usable.
		fmt.Fprintf(out, "run finished with analysis errors: %v\n\n", err)
	}

	if o.timeline {
		fmt.Fprintln(out, obs.Gantt(pl.Recorder(), 100))
		util := obs.Utilization(pl.Recorder())
		fmt.Fprint(out, "lane utilization:")
		for _, lane := range obs.TimelineLanes(pl.Recorder()) {
			fmt.Fprintf(out, " %s=%.0f%%", lane, 100*util[lane])
		}
		fmt.Fprint(out, "\n\n")
	}
	for i, t := range b.Tenants {
		renderTenant(out, t, &cfg.Tenants[i], reps[t.Name], steps, mode)
		if o.images != "" {
			if err := saveRenders(out, o.images, b.Store, t, reps[t.Name], steps); err != nil {
				return err
			}
		}
	}
	renderFabric(out, b, reps)

	if o.obsDump != "" {
		if err := dumpObs(out, o.obsDump, pl); err != nil {
			return err
		}
	}
	if o.hold && (o.obsAddr != "" || o.serveAddr != "") {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(ch)
		// Announced once the signals are caught: whoever reads this line
		// may send one.
		fmt.Fprintln(out, "holding endpoints open; SIGINT/SIGTERM to exit")
		<-ch
	}
	return nil
}

// renderTenant prints one tenant's block: Table II, the recovery and
// overload/resilience summaries when the config arms those planes, when
// each hybrid route last ran degraded, and the final-step topology.
func renderTenant(out io.Writer, t registry.BuiltTenant, tc *registry.TenantConfig, rep *core.Report, steps int, mode core.RunMode) {
	total, perStep, n := rep.Metrics.SimTime()
	fmt.Fprintf(out, "tenant %s: grid %dx%dx%d, %d simulation ranks\nsimulation: %d steps, %v total, %v per step, worst step wall %v\n\n",
		cmp.Or(t.Name, "default"), tc.Sim.NX, tc.Sim.NY, tc.Sim.NZ, tc.Sim.PX*tc.Sim.PY*tc.Sim.PZ,
		n, total.Round(1e6), perStep.Round(1e6), rep.Metrics.MaxStepWall().Round(1e3))
	fmt.Fprintln(out, rep.Metrics.TableII())

	if rec := rep.Recovery; rec != nil {
		fmt.Fprintf(out, "recovery: %d commits, %d checkpoints, %d journal fsyncs\n", rec.Commits, rec.Checkpoints, rec.JournalFsyncs)
		if mode == core.RunResume {
			fmt.Fprintf(out, "resumed from step %d (checkpoint %d): %d tasks replayed in %.3fs\n", rec.ResumedFrom, rec.CheckpointStep, rec.ReplayedTasks, rec.ResumeSeconds)
		} else if mode == core.RunReplay {
			fmt.Fprintf(out, "replayed %d checkpoint steps, read in %.3fs before the first; the simulation time above is their restore\n", n, rec.CheckpointReadSeconds)
		}
		for _, w := range rep.Warnings {
			fmt.Fprintln(out, "warning:", w)
		}
	}
	if tc.Overload != nil {
		o, r := rep.Overload, rep.Resilience
		fmt.Fprintf(out, "overload control: %d credits denied, %d steps delta, %d quantized, %d shaped, %d shed, %d in-situ fallbacks, %d breaker opens in %d transitions\n",
			o.CreditsDenied, o.StepsDelta, o.StepsQuantized, o.StepsShaped, o.StepsShed, o.StepsFallback, o.BreakerOpens, o.BreakerTransitions)
		fmt.Fprintf(out, "resilience: %d retries, %d checksum failures, %d degraded steps\n",
			r.Retries, r.ChecksumFailures, r.DegradedSteps)
	}
	breakers := t.Pipeline.BreakerStates()
	for _, route := range t.Routes {
		line := "never degraded"
		for step := steps; step >= 1; step-- {
			if _, ok := rep.Result(route, step).(core.Degraded); ok {
				line = fmt.Sprintf("full hybrid again from step %d/%d", step+1, steps)
				break
			}
		}
		if st, ok := breakers[route]; ok {
			line += fmt.Sprintf(", breaker %v", st)
		}
		fmt.Fprintf(out, "route %-32s %s\n", route, line)
	}
	for _, a := range t.Analyses {
		if tr, ok := finalResult(rep, a, steps).(*core.TopologyResult); ok && tr != nil {
			fmt.Fprintf(out, "%s (final step): %d tree nodes resident of %d streamed (peak %d), %d maxima, %d features above threshold\n",
				a.Name(), tr.Tree.Len(), tr.Stream.Declared, tr.Stream.PeakLive, len(tr.Tree.Maxima()), len(tr.Features))
		}
	}
	fmt.Fprintln(out)
}

// renderFabric prints what the tenants share: network, the faults it
// absorbed (dead letters summed over the tenants' reports), credit
// account, the quarantine, the autoscaler when the config arms one, and
// the image store.
func renderFabric(out io.Writer, b *registry.Built, reps map[string]*core.Report) {
	s := b.Scheduler
	ns, as := s.Network().Stats(), s.Staging().Resilience()
	var deadLetters int64
	for _, rep := range reps {
		deadLetters += rep.Resilience.DeadLetters
	}
	fmt.Fprintln(out, "fabric:")
	fmt.Fprintf(out, "  network      %d transfers, %.3f MB moved, %v modeled busy\n",
		ns.Transfers, float64(ns.BytesMoved)/1e6, ns.ModeledBusy.Round(1e3))
	fmt.Fprintf(out, "  faults       %d faults injected, %d requeues, %d bucket crashes, %d dead letters\n",
		ns.Faulted, as.Requeues, as.Crashes, deadLetters)
	if c := s.Credits(); c != nil {
		outstanding, avail, total := c.Snapshot()
		fmt.Fprintf(out, "  credits      %d/%d available, %d outstanding\n", avail, total, outstanding)
	}
	opens, releases := s.QuarantineCounts()
	fmt.Fprintf(out, "  quarantine   %d opens, %d releases\n", opens, releases)
	if a := s.Autoscaler(); a != nil {
		fmt.Fprintf(out, "  bucket pool  %d grows, %d shrinks, %d active\n", a.Grows(), a.Shrinks(), s.Staging().ActiveBuckets())
	}
	if b.Store != nil {
		info := b.Store.Info()
		fmt.Fprintf(out, "  image store  %d frames in %d blobs (%.2f MB) under %s; vars %v, cams %v, latest step %d\n",
			info.Frames, info.Blobs, float64(info.Bytes)/1e6, b.Config.Store.Dir, info.Vars, info.Cams, info.LatestStep)
	}
}

// finalResult is the analysis's result at the last step it was due.
func finalResult(rep *core.Report, a core.Analysis, steps int) any {
	return rep.Result(a.Name(), steps-steps%max(a.Every(), 1))
}

// saveRenders writes the tenant's final-step frames, as the image store
// holds them, under dir: one <var>-<cam>.png per camera, prefixed with
// the tenant's name when it has one.
func saveRenders(out io.Writer, dir string, st *imagestore.Store, t registry.BuiltTenant, rep *core.Report, steps int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range t.Analyses {
		res := finalResult(rep, a, steps)
		if d, ok := res.(core.Degraded); ok {
			res = d.Value
		}
		refs, _ := res.([]core.FrameRef)
		for _, ref := range refs {
			png, _, err := st.Frame(imagestore.Spec{Var: ref.Var, Step: ref.Step, Cam: ref.Cam})
			if err != nil {
				return err
			}
			file := ref.Var + "-" + ref.Cam + ".png"
			if t.Name != "" {
				file = t.Name + "-" + file
			}
			path := filepath.Join(dir, file)
			if err := os.WriteFile(path, png, 0o644); err != nil {
				return err
			}
			fmt.Fprintln(out, "wrote", path)
		}
	}
	return nil
}

// serveHTTP serves h on addr in the background, announces it, and
// returns the function that shuts the server down.
func serveHTTP(out io.Writer, what, addr string, h http.Handler) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	fmt.Fprintf(out, "%s on http://%s/\n\n", what, ln.Addr())
	return func() { srv.Close() }, nil
}

// dumpObs writes trace.json, events.jsonl, and metrics.prom under dir,
// each rendered in memory and landed with an atomic temp-file+rename, so
// a crash mid-dump never tears a previous run's good artifact.
func dumpObs(out io.Writer, dir string, pl *obs.Plane) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		fmt.Fprintln(out, "writing", path)
		return recovery.WriteFileAtomic(path, buf.Bytes(), 0o644)
	}
	return errors.Join(
		write("trace.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, pl.Recorder()) }),
		write("events.jsonl", func(w io.Writer) error { return obs.WriteJSONL(w, pl.Recorder()) }),
		write("metrics.prom", pl.Registry().WritePrometheus),
	)
}
