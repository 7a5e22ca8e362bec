package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"insitu/internal/bp"
	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/dart"
	"insitu/internal/grid"
	"insitu/internal/imagestore"
	"insitu/internal/mergetree"
	"insitu/internal/netsim"
	"insitu/internal/recovery"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// Driver sizes. The durable drivers write enough records for the first
// and the last hundred to differ when a write costs O(records so far).
const (
	driverReps     = 5   // repeats a kernel timing is the median of
	driverWarmup   = 3   // sim steps before blocks are captured
	driverVersions = 6   // consecutive steps a codec stream is encoded over
	journalRecords = 600 // four per step, as the pipeline writes them
	storePuts      = 800 // distinct frames, eight per step
	storeFrameSize = 3 << 10
	dartGetBytes   = 256 << 10
	dartGets       = 200
)

// rankBlock is what one rank of the workload's simulation holds after a
// few steps: the inputs the in-situ kernels, the codecs and the
// checkpoint writer see in a run.
type rankBlock struct {
	rank     int
	owned    grid.Box
	ghostedT *grid.Field
	fields   []*grid.Field // every variable's owned block
	stream   [][]byte      // the marshalled full-resolution T block at consecutive steps
}

// captureBlocks steps the simulation and snapshots every rank.
func captureBlocks(cfg sim.Config) ([]rankBlock, grid.Box, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, grid.Box{}, err
	}
	blocks := make([]rankBlock, s.Ranks())
	err = sim.RunAll(s, func(rk *sim.Rank) error {
		rk.RunSteps(driverWarmup)
		b := rankBlock{rank: rk.Comm().ID(), owned: rk.OwnedBox()}
		for v := 0; v < driverVersions; v++ {
			payload, _ := render.DownsampleForTransit(rk.GhostedField("T"), b.owned, 1)
			b.stream = append(b.stream, payload)
			rk.Step()
		}
		b.ghostedT = rk.GhostedField("T")
		b.fields = rk.CheckpointFields()
		blocks[b.rank] = b
		return nil
	})
	return blocks, cfg.Global, err
}

// timeMedian runs fn driverReps times and returns the median duration.
func timeMedian(fn func() error) (time.Duration, error) {
	var ds []float64
	for i := 0; i < driverReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// drivers times the public functions of each layer the workload's
// config turns on, from outside, on inputs built the way the workload
// builds them, every call under a span. Every workload moves data
// through dart and learns statistics; the rest is per config.
func (h *harness) drivers(m map[string]float64, cfg *registry.Config, p *pass) error {
	blocks, global, err := captureBlocks(p.sims[0])
	if err != nil {
		return err
	}
	type driver struct {
		name string
		fn   func() error
	}
	ds := []driver{
		{"kernels", func() error { return driveKernels(m, blocks, global, cfg) }},
		{"dart", func() error { return driveDart(m) }},
	}
	if usesCodec(cfg) {
		ds = append(ds, driver{"codec", func() error { return driveCodecs(m, blocks[0]) }})
	}
	if cfg.Recovery != nil {
		ds = append(ds, driver{"recovery", func() error {
			return driveRecovery(m, blocks[0], filepath.Join(p.dir, "driver-journal"), max(journalRecords/h.scale, 200))
		}})
	}
	if cfg.Store != nil {
		ds = append(ds, driver{"imagestore+serve", func() error {
			return driveStore(m, h.seed, filepath.Join(p.dir, "driver-store"), max(storePuts/h.scale, 200))
		}})
	}
	for _, d := range ds {
		var err error
		h.span(h.root, "driver:"+d.name, func(int64) { err = d.fn() })
		if err != nil {
			return fmt.Errorf("driver %s: %w", d.name, err)
		}
	}
	return nil
}

// hasAnalysis reports whether any tenant of the config runs the named
// analysis.
func hasAnalysis(cfg *registry.Config, analysis string) bool {
	for _, t := range cfg.Tenants {
		for _, a := range t.Analyses {
			if a.Analysis == analysis {
				return true
			}
		}
	}
	return false
}

// usesCodec reports whether any tenant or route of the config sets a
// transfer-path codec.
func usesCodec(cfg *registry.Config) bool {
	for _, t := range cfg.Tenants {
		if t.Codec != nil {
			return true
		}
		for _, a := range t.Analyses {
			if a.Codec != nil {
				return true
			}
		}
	}
	return false
}

// driveKernels times the in-situ kernels of the analyses the config
// runs on rank 0's block, and the in-transit ray caster on the
// assembled down-sampled blocks at the frame geometry of the config's
// first viz analysis.
func driveKernels(m map[string]float64, blocks []rankBlock, global grid.Box, cfg *registry.Config) error {
	b := blocks[0]
	cells := float64(b.owned.Size())

	d, err := timeMedian(func() error {
		mo := stats.NewModel()
		for _, f := range b.fields {
			mo.LearnFieldParallel(f)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["stats.learn_ns_per_cell"] = float64(d) / (cells * float64(len(b.fields)))

	if hasAnalysis(cfg, "topology") {
		d, err = timeMedian(func() error {
			_, err := mergetree.LocalSubtree(b.ghostedT, global, b.owned, b.rank, mergetree.KeepSharedBoundary)
			return err
		})
		if err != nil {
			return err
		}
		m["mergetree.subtree_ns_per_cell"] = float64(d) / cells
	}
	if !hasAnalysis(cfg, "viz") {
		return nil
	}

	w, hgt, factor := registry.DefaultVizWidth, registry.DefaultVizHeight, registry.DefaultVizFactor
	for _, a := range cfg.Tenants[0].Analyses {
		if a.Analysis == "viz" && a.Width > 0 && a.Height > 0 && a.Factor > 0 {
			w, hgt, factor = a.Width, a.Height, a.Factor
			break
		}
	}
	bt := render.NewBlockTable()
	for _, rb := range blocks {
		payload, _ := render.DownsampleForTransit(rb.ghostedT, rb.owned, factor)
		if err := bt.AddMarshalled(payload); err != nil {
			return err
		}
	}
	r, err := render.NewRenderer(w, hgt, render.HotMetal(0.2, 2.0), render.DefaultDir, [3]float64{0, 1, 0}, 0.5, bt.Bounds())
	if err != nil {
		return err
	}
	d, err = timeMedian(func() error {
		img, err := r.RenderTable(bt)
		if err == nil {
			render.PutImage(img)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["render.raycast_ns_per_px"] = float64(d) / float64(w*hgt)
	return nil
}

// driveCodecs encodes and decodes one rank's T block over consecutive
// steps, the stream a hybrid route hands the codec layer. The first
// version only seeds the delta base and is not timed.
func driveCodecs(m map[string]float64, b rankBlock) error {
	off, ok := grid.FloatTailOffset(b.stream[0])
	if !ok {
		return fmt.Errorf("payload is not a field marshal")
	}
	for _, c := range []struct {
		name string
		spec codec.Spec
	}{
		{"delta", codec.Spec{ID: codec.Delta}},
		{"quantize", codec.Spec{ID: codec.Quantize, MaxError: 1e-4}},
	} {
		var enc, dec []float64
		for rep := 0; rep < driverReps; rep++ {
			reg := codec.NewRegistry()
			key := codec.Key("driver", b.rank)
			var encT, decT time.Duration
			var bytes int
			for v, raw := range b.stream {
				t0 := time.Now()
				res, err := reg.Encode(c.spec, key, v, raw, off)
				t1 := time.Now()
				if err != nil {
					return err
				}
				if res.Frame == nil {
					continue // the codec chose identity: nothing to decode
				}
				out, _, err := reg.Decode(res.Frame)
				t2 := time.Now()
				if err != nil {
					return err
				}
				if len(out) != len(raw) {
					return fmt.Errorf("%s: decoded %d bytes of %d", c.name, len(out), len(raw))
				}
				bufpool.Put(out)
				bufpool.Put(res.Frame)
				if v > 0 {
					encT += t1.Sub(t0)
					decT += t2.Sub(t1)
					bytes += len(raw)
				}
			}
			enc = append(enc, ratio(float64(bytes)/1e6, encT.Seconds()))
			dec = append(dec, ratio(float64(bytes)/1e6, decT.Seconds()))
		}
		m["codec.encode_mb_s."+c.name] = median(enc)
		m["codec.decode_mb_s."+c.name] = median(dec)
	}
	return nil
}

// driveDart pulls one pinned 256 KB region repeatedly, returning each
// buffer to the pool as a staging bucket does.
func driveDart(m map[string]float64) error {
	fabric := dart.NewFabric(netsim.New(netsim.Gemini()))
	prod, cons := fabric.Register("sim"), fabric.Register("bucket")
	h := prod.RegisterMem(make([]byte, dartGetBytes))
	t0 := time.Now()
	for i := 0; i < dartGets; i++ {
		data, _, err := cons.Get(h)
		if err != nil {
			return err
		}
		bufpool.Put(data)
	}
	m["dart.get_mb_s"] = float64(dartGets*dartGetBytes) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// driveRecovery appends a run's worth of records to a fresh journal,
// reopens it, and writes one rank's checkpoint.
func driveRecovery(m map[string]float64, b rankBlock, dir string, records int) error {
	j, err := recovery.Open(dir)
	if err != nil {
		return err
	}
	appends := make([]float64, 0, records)
	for i := 0; i < records; i++ {
		step := i/4 + 1
		rec := recovery.Record{Kind: recovery.KindSubmit, Step: step, Analysis: "hybrid visualization"}
		switch i % 4 {
		case 0:
			rec = recovery.Record{Kind: recovery.KindAdmit, Step: step}
		case 3:
			rec = recovery.Record{Kind: recovery.KindCommit, Step: step, Digests: map[string]string{
				"hybrid visualization": "0123456789abcdef", "hybrid descriptive statistics": "fedcba9876543210"}}
		}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		appends = append(appends, us(time.Since(t0)))
	}
	m["recovery.append_us_first100"] = median(appends[:100])
	m["recovery.append_us_last100"] = median(appends[len(appends)-100:])

	d, err := timeMedian(func() error {
		j, err := recovery.Open(dir)
		if err == nil && len(j.Records()) != records {
			err = fmt.Errorf("journal reopened with %d of %d records", len(j.Records()), records)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["recovery.open_ms"] = ms(d)

	d, err = timeMedian(func() error {
		_, err := bp.WriteFile(filepath.Join(dir, recovery.CheckpointFile(1, b.rank)), b.fields)
		return err
	})
	if err != nil {
		return err
	}
	m["recovery.checkpoint_ms"] = ms(d)
	return nil
}

// driveStore files distinct frames into a fresh image store, reads them
// back through a warm and a cold cache, and calls the serving tier's
// handler on a recorder: no socket, the handler's own cost.
func driveStore(m map[string]float64, seed int64, dir string, frames int) error {
	st, err := imagestore.Open(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	specs := make([]imagestore.Spec, 0, frames)
	digests := make([]string, 0, frames)
	puts := make([]float64, 0, frames)
	for i := 0; i < frames; i++ {
		frame := make([]byte, storeFrameSize)
		rng.Read(frame)
		sp := imagestore.Spec{Var: "T.hybrid", Step: i/8 + 1, Cam: render.CameraName(i % 8)}
		t0 := time.Now()
		digest, err := st.Put(sp, frame)
		if err != nil {
			st.Close()
			return err
		}
		puts = append(puts, us(time.Since(t0)))
		specs, digests = append(specs, sp), append(digests, digest)
	}
	m["imagestore.put_us_first100"] = median(puts[:100])
	m["imagestore.put_us_last100"] = median(puts[len(puts)-100:])

	readAll := func(st *imagestore.Store) (float64, error) {
		reads := make([]float64, 0, 200)
		for _, sp := range specs[len(specs)-200:] {
			t0 := time.Now()
			if _, _, err := st.Frame(sp); err != nil {
				return 0, err
			}
			reads = append(reads, us(time.Since(t0)))
		}
		return median(reads), nil
	}
	if m["imagestore.frame_hit_us"], err = readAll(st); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	t0 := time.Now()
	if st, err = imagestore.Open(dir); err != nil {
		return err
	}
	defer st.Close()
	m["imagestore.open_ms"] = ms(time.Since(t0))
	if m["imagestore.frame_miss_us"], err = readAll(st); err != nil {
		return err
	}

	srv := serve.New(st)
	call := func(path, etag string, want int) (time.Duration, string, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.Code != want {
			return 0, "", fmt.Errorf("GET %s: status %d, want %d", path, w.Code, want)
		}
		return d, w.Header().Get("ETag"), nil
	}
	_, etag, err := call("/latest.json", "", http.StatusOK)
	if err != nil {
		return err
	}
	var hot, img []float64
	for i := 0; i < 200; i++ {
		d, _, err := call("/latest.json", etag, http.StatusNotModified)
		if err != nil {
			return err
		}
		hot = append(hot, us(d))
		d, _, err = call("/img/"+digests[i], "", http.StatusOK)
		if err != nil {
			return err
		}
		img = append(img, us(d))
	}
	m["serve.handler_hot_us"] = median(hot)
	m["serve.handler_img_us"] = median(img)
	return nil
}
