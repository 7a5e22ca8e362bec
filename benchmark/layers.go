package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"insitu/internal/obs"
)

// perLayer are the metrics printed by the --trace 1 run. They carry no
// bound. First the wall-clock end-to-end metrics ISSUE 12 names, which
// are too unsteady on the reference host to be bounded (see endToEnd);
// then the metrics of single layers (layer = internal/<name>). A metric
// of a layer the workload leaves idle reads 0. Sources: counters the
// run's report already exposes, drivers in drivers.go timing a layer's
// public functions, and the program's own spans from the traced pass.
var perLayer = []metricDef{
	{"steps_per_s", "1/s", "higher"},
	{"step_wall_p50_ms", "ms", "lower"},
	{"step_wall_p90_ms", "ms", "lower"},
	{"overhead_x", "ratio", "lower"},
	{"drain_tail_pct", "%", "lower"},
	{"viewer_p50_ms", "ms", "lower"},
	{"viewer_req_per_s", "1/s", "higher"},
	{"resume_s", "s", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"registry.load_ms", "ms", "lower"},
	{"registry.build_ms", "ms", "lower"},
	{"sim.step_ms", "ms", "lower"},
	{"sim.share_pct", "%", "lower"},
	{"sim.alone_steps_per_s", "1/s", "higher"},
	{"core.step_self_ms", "ms", "lower"},
	{"core.drain_tail_ms", "ms", "lower"},
	{"core.degraded_steps", "count", "lower"},
	{"core.errs", "count", "lower"},
	{"core.pinned_regions_end", "count", "lower"},
	{"stats.insitu_ms", "ms", "lower"},
	{"stats.intransit_ms", "ms", "lower"},
	{"stats.learn_ns_per_cell", "ns", "lower"},
	{"render.insitu_ms", "ms", "lower"},
	{"render.intransit_ms", "ms", "lower"},
	{"render.raycast_ns_per_px", "ns", "lower"},
	{"mergetree.insitu_ms", "ms", "lower"},
	{"mergetree.intransit_ms", "ms", "lower"},
	{"mergetree.subtree_ns_per_cell", "ns", "lower"},
	{"codec.ratio", "ratio", "higher"},
	{"codec.max_err", "abs", "lower"},
	{"codec.encode_mb_s.delta", "MB/s", "higher"},
	{"codec.decode_mb_s.delta", "MB/s", "higher"},
	{"codec.encode_mb_s.quantize", "MB/s", "higher"},
	{"codec.decode_mb_s.quantize", "MB/s", "higher"},
	{"dart.transfers_per_step", "count", "lower"},
	{"dart.move_wall_us", "us", "lower"},
	{"dart.move_modeled_us", "us", "lower"},
	{"dart.retries", "count", "lower"},
	{"dart.checksum_failures", "count", "lower"},
	{"dart.bytes_spread", "B", "lower"},
	{"dart.get_mb_s", "MB/s", "higher"},
	{"dataspaces.queue_wait_p50_us", "us", "lower"},
	{"dataspaces.queue_wait_p90_us", "us", "lower"},
	{"dataspaces.credits_denied", "count", "lower"},
	{"dataspaces.requeues", "count", "lower"},
	{"dataspaces.credits_outstanding_end", "count", "lower"},
	{"staging.tasks", "count", "higher"},
	{"staging.attempt_p50_ms", "ms", "lower"},
	{"staging.busy_pct", "%", "lower"},
	{"staging.dead_letters", "count", "lower"},
	{"recovery.append_us_first100", "us", "lower"},
	{"recovery.append_us_last100", "us", "lower"},
	{"recovery.open_ms", "ms", "lower"},
	{"recovery.checkpoint_ms", "ms", "lower"},
	{"recovery.fsyncs_per_step", "count", "lower"},
	{"recovery.journal_bytes_end", "B", "lower"},
	{"imagestore.put_us_first100", "us", "lower"},
	{"imagestore.put_us_last100", "us", "lower"},
	{"imagestore.frame_hit_us", "us", "lower"},
	{"imagestore.frame_miss_us", "us", "lower"},
	{"imagestore.open_ms", "ms", "lower"},
	{"imagestore.first_frame_ms", "ms", "lower"},
	{"imagestore.index_bytes_end", "B", "lower"},
	{"imagestore.cache_hit_frac", "ratio", "higher"},
	{"imagestore.dedup_frac", "ratio", "higher"},
	{"serve.handler_hot_us", "us", "lower"},
	{"serve.handler_img_us", "us", "lower"},
	{"serve.live_p90_ms", "ms", "lower"},
	{"serve.idle_p50_ms", "ms", "lower"},
	{"serve.304_frac", "ratio", "higher"},
	{"serve.errors", "count", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"obs.spans_per_step", "count", "lower"},
	{"obs.export_ms", "ms", "lower"},
	{"parallel.speedup_x", "ratio", "higher"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.allocs_per_step", "count", "lower"},
}

// Share of --seconds the alternating plain/traced passes of the
// --trace 1 run may use; the rest is left to the resume, speed-up and
// driver stages, which are sized in work, not time.
const tracedShare = 0.6

// resumeRuns is how many Build+Resume pairs resume_s is the median of.
const resumeRuns = 3

// speedupWorkload is the one workload parallel.speedup_x is measured
// on: the one whose step is kernel work that the worker pool spreads.
const speedupWorkload = "hybrid-compute"

// perLayer is the --trace 1 run: plain and traced passes alternate (so
// host drift hits both alike and their difference is the tracing
// overhead), then Resume, the GOMAXPROCS pair and the drivers of the
// layers the workload's config turns on. It returns the metrics and the
// last traced pass, whose spans the caller writes out.
func (h *harness) perLayer(name string, seconds float64) (map[string]float64, *pass, error) {
	m := make(map[string]float64, len(perLayer))
	cfg, err := loadTemplate(name)
	if err != nil {
		return nil, nil, err
	}
	r, err := h.timedPasses(name, seconds*tracedShare, true)
	if err != nil {
		return nil, nil, err
	}
	m["registry.load_ms"] = 1e3 * quantile(r.setup.load, setupQuantile)
	m["registry.build_ms"] = 1e3 * quantile(r.setup.build, setupQuantile)
	var plain, traced []*pass
	for _, p := range r.passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	// Only the last traced pass's spans are read; a plane keeps its whole
	// pipeline, results included, alive.
	for _, p := range traced[:len(traced)-1] {
		p.plane = nil
	}
	reportWall(m, plain, r.alone)
	reportCounters(m, plain, usesCodec(cfg))

	last := plain[len(plain)-1]
	if last.recovery != nil {
		if m["resume_s"], err = h.resume(name, last); err != nil {
			return nil, nil, err
		}
	}
	if name == speedupWorkload {
		if err := h.speedup(m, name, plain[0]); err != nil {
			return nil, nil, err
		}
	}
	if err := h.drivers(m, cfg, last); err != nil {
		return nil, nil, err
	}

	tp := traced[len(traced)-1]
	reportSpans(m, tp)
	// Best pass against best pass, as for steps_per_s. Not on a store
	// workload: filing frames next to the viewers sets its rate, and one
	// slow fsync moves it further than tracing does.
	if cfg.Store == nil {
		m["obs.overhead_pct"] = 100 * (1 - ratio(quantile(rates(traced), 1), quantile(rates(plain), 1)))
	}
	m["obs.export_ms"] = ms(h.span(h.root, "driver:obs.export", func(int64) {
		err = obs.WriteChromeTrace(io.Discard, tp.plane.Recorder())
	}))
	if err != nil {
		return nil, nil, err
	}

	m["failed_frac"] = ratio(float64(h.checks.failed), float64(h.checks.attempted))
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0 // the workload leaves this layer idle
		}
	}
	return m, tp, nil
}

// reportWall fills the wall-clock end-to-end metrics. The host's
// slowdowns only ever make a pass slower, so they are taken from the
// best pass: the highest rate, the lowest per-pass percentiles, and the
// best sim-alone rate over the best pass rate.
func reportWall(m map[string]float64, passes []*pass, alone []float64) {
	var p50, p90 []float64
	samples := 0
	for _, p := range passes {
		walls := durationsMS(p.stepWalls)
		samples += len(walls)
		p50 = append(p50, quantile(walls, 0.5))
		p90 = append(p90, quantile(walls, 0.9))
	}
	best := quantile(rates(passes), 1)
	m["steps_per_s"] = best
	m["step_wall_p50_ms"] = quantile(p50, 0)
	m["step_wall_p90_ms"] = quantile(p90, 0)
	m["sim.alone_steps_per_s"] = quantile(alone, 1)
	m["overhead_x"] = ratio(quantile(alone, 1), best)
	fmt.Printf("samples plain-passes=%d step_walls=%d (%d a pass) GOMAXPROCS=%d\n",
		len(passes), samples, samples/len(passes), runtime.GOMAXPROCS(0))
}

func rates(passes []*pass) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.stepsPerS()
	}
	return out
}

// reportCounters fills the metrics read from the plain passes' reports
// and counters: timings as medians over passes, counts from the last.
// The codec counters also tally routes that ship raw, so they are only
// read when the config sets a codec.
func reportCounters(m map[string]float64, passes []*pass, codecOn bool) {
	over := func(f func(p *pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	perStep := func(d func(p *pass) time.Duration) float64 {
		return over(func(p *pass) float64 { return ms(d(p)) / float64(p.totalSteps()) })
	}
	m["sim.step_ms"] = perStep(func(p *pass) time.Duration { return p.simTotal })
	m["sim.share_pct"] = over(func(p *pass) float64 { return 100 * ratio(float64(p.simTotal), float64(p.stepWallSum)) })
	// What is left of the sim-side step wall after the solver and the
	// in-situ stages: admission, registration and submission.
	m["core.step_self_ms"] = perStep(func(p *pass) time.Duration { return p.stepWallSum - p.simTotal - p.total.InSitu })
	for _, layer := range []string{"stats", "render", "mergetree"} {
		layer := layer
		m[layer+".insitu_ms"] = perStep(func(p *pass) time.Duration { return p.breakdown[layer].InSitu })
		m[layer+".intransit_ms"] = perStep(func(p *pass) time.Duration { return p.breakdown[layer].InTransit })
	}
	m["dart.move_wall_us"] = 1e3 * perStep(func(p *pass) time.Duration { return p.total.MoveWall })
	m["dart.move_modeled_us"] = 1e3 * perStep(func(p *pass) time.Duration { return p.total.MoveModeled })
	moved := make([]float64, len(passes))
	for i, p := range passes {
		moved[i] = float64(p.net.BytesMoved)
	}
	m["dart.bytes_spread"] = quantile(moved, 1) - quantile(moved, 0)
	m["go.heap_peak_mb"] = over(func(p *pass) float64 { return float64(p.heapPeak) / (1 << 20) })
	m["go.gc_pause_ms"] = over(func(p *pass) float64 { return ms(p.gcPause) })
	m["go.allocs_per_step"] = over(func(p *pass) float64 { return float64(p.mallocs) / float64(p.totalSteps()) })
	// What is left of Run once the simulation side is done: the wait for
	// in-transit work. A step wall is a maximum over ranks, so their sum
	// can pass the wall of a run with no tail; that reads 0.
	tail := func(p *pass) time.Duration { return max(p.wall-p.simSide, 0) }
	m["core.drain_tail_ms"] = over(func(p *pass) float64 { return ms(tail(p)) })
	m["drain_tail_pct"] = over(func(p *pass) float64 { return 100 * ratio(float64(tail(p)), float64(p.wall)) })
	m["viewer_p50_ms"] = over(func(p *pass) float64 { return median(p.live.p50) })
	m["viewer_req_per_s"] = over(func(p *pass) float64 { return float64(p.live.requests) / p.wall.Seconds() })
	m["serve.live_p90_ms"] = over(func(p *pass) float64 { return median(p.live.p90) })
	m["serve.idle_p50_ms"] = over(func(p *pass) float64 { return median(p.idle.p50) })
	m["imagestore.first_frame_ms"] = over(func(p *pass) float64 { return ms(p.firstFrame) })

	p := passes[len(passes)-1]
	steps := float64(p.totalSteps())
	m["core.degraded_steps"] = float64(p.res.DegradedSteps)
	m["core.errs"] = float64(p.errs)
	m["core.pinned_regions_end"] = float64(p.pinned)
	if codecOn {
		m["codec.ratio"] = p.codec.Ratio()
		m["codec.max_err"] = p.codec.MaxError
	}
	m["dart.transfers_per_step"] = float64(p.net.Transfers) / steps
	m["dart.retries"] = float64(p.res.Retries)
	m["dart.checksum_failures"] = float64(p.res.ChecksumFailures)
	m["dataspaces.credits_denied"] = float64(p.over.CreditsDenied)
	m["dataspaces.requeues"] = float64(p.res.Requeues)
	m["dataspaces.credits_outstanding_end"] = float64(p.creditsOut)
	m["staging.dead_letters"] = float64(p.res.DeadLetters)
	if p.recovery != nil {
		m["recovery.fsyncs_per_step"] = float64(p.recovery.JournalFsyncs) / steps
		m["recovery.journal_bytes_end"] = float64(p.journalBytes)
	}
	m["imagestore.index_bytes_end"] = float64(p.indexBytes)
	m["imagestore.cache_hit_frac"] = ratio(float64(p.store.CacheHits), float64(p.store.CacheHits+p.store.CacheMisses))
	m["imagestore.dedup_frac"] = ratio(float64(p.store.Dedups), float64(p.store.Puts))
	m["serve.304_frac"] = ratio(float64(p.serve.NotModified), float64(p.serve.Requests))
	m["serve.errors"] = float64(p.serve.Errors)
}

// reportSpans derives the queue and bucket metrics from the program's
// existing task spans of the traced pass: a task waits from its
// task.submit event to the start of its first task.attempt, and a
// bucket is busy for the length of its attempts.
func reportSpans(m map[string]float64, p *pass) {
	rec := p.plane.Recorder()
	submitted := map[string]time.Time{}
	var waits, attempts []float64
	var busy time.Duration
	done := 0
	attr := func(s obs.Span, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for _, s := range rec.SpansCat(obs.CatTask) {
		switch s.Name {
		case "task.submit":
			submitted[attr(s, "task")] = s.Start
		case "task.attempt":
			d := s.End.Sub(s.Start)
			busy += d
			attempts = append(attempts, ms(d))
			if t0, ok := submitted[attr(s, "task")]; ok && attr(s, "attempt") == "1" {
				waits = append(waits, us(s.Start.Sub(t0)))
			}
		case "task.done":
			done++
		}
	}
	m["dataspaces.queue_wait_p50_us"] = quantile(waits, 0.5)
	m["dataspaces.queue_wait_p90_us"] = quantile(waits, 0.9)
	m["staging.tasks"] = float64(done)
	m["staging.attempt_p50_ms"] = median(attempts)
	m["staging.busy_pct"] = 100 * ratio(float64(busy), float64(p.buckets)*float64(p.wall))
	m["obs.spans_per_step"] = float64(rec.Len()) / float64(p.totalSteps())
}

// resume times a fresh Build on a finished run's journal and store plus
// Pipeline.Resume with no step left to run: the cost of reading the
// durable state back.
func (h *harness) resume(name string, p *pass) (float64, error) {
	var secs []float64
	for i := 0; i < resumeRuns; i++ {
		var err error
		d := h.span(h.root, "resume", func(id int64) {
			var s setup
			if s, err = h.setup(id, filepath.Join(p.dir, "config.json")); err != nil {
				return
			}
			defer s.built.Close()
			rep, rerr := s.built.Pipeline.Resume(p.steps)
			if rerr != nil {
				h.checks.fail(1, "%s: resume: %v", name, rerr)
			}
			from := -1
			if rep != nil && rep.Recovery != nil {
				from = rep.Recovery.ResumedFrom
			}
			h.checks.expect(from == p.steps, "%s: Resume continued from step %d, want %d", name, from, p.steps)
		})
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// speedup runs the workload at a quarter of its length with one
// scheduler thread and with all of them. On a one-core host the ratio
// is unresolved and reads 0, as it does on every workload but
// speedupWorkload.
func (h *harness) speedup(m map[string]float64, name string, ref *pass) error {
	if runtime.NumCPU() < 2 {
		fmt.Println("env parallel.speedup_x unresolved: nproc = 1")
		return nil
	}
	procs := runtime.GOMAXPROCS(1)
	one, err := h.runPass(name, passOpts{simSeed: h.simSeed(0), stepDiv: 4})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	all, err := h.runPass(name, passOpts{simSeed: h.simSeed(0), stepDiv: 4})
	if err != nil {
		return err
	}
	for _, p := range []*pass{one, all} {
		n, diff := sameDigests(ref, p)
		h.checks.attempt(n)
		h.checks.fail(diff, "%s: %d of %d result digests differ at another GOMAXPROCS or length", name, diff, n)
	}
	m["parallel.speedup_x"] = ratio(all.stepsPerS(), one.stepsPerS())
	return nil
}

// writeTrace copies the traced pass's program spans under the
// benchmark's own "run" span of that pass and writes the one recorder
// as a Chrome trace to <outDir>/<workload>.trace.json.
func (h *harness) writeTrace(name string, p *pass) error {
	ids := map[int64]int64{0: p.runID}
	spans := p.plane.Recorder().Spans()
	// A parent's id is assigned before any of its children's, so id
	// order visits parents first.
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		attrs := append([]obs.Attr{obs.Str("program_id", strconv.FormatInt(s.ID, 10))}, s.Attrs...)
		ids[s.ID] = h.rec.Record(ids[s.Parent], s.Cat, s.Lane, s.Name, s.Start, s.End, attrs...)
	}
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(h.outDir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, h.rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
