// Serving-tier benches: BenchmarkServe* load the image store and its
// HTTP tier with the deterministic viewer fleet and report the fleet's
// observed latency percentiles and bytes served alongside the usual
// timing numbers.
package insitu

import (
	"net/http/httptest"
	"testing"
	"time"

	"insitu/internal/imagestore"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/workload"
)

// benchStoreFrame synthesizes one deterministic frame: the bench loads
// the serving path, not the renderer, so frames are cheap gradients.
func benchStoreFrame(step, cam int) *render.Image {
	im := render.NewImage(160, 120)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float64((x*3+y*7+step*13+cam*29)%32) / 32
			im.Set(x, y, v, v/2, 1-v, v)
		}
	}
	return im
}

// benchServer builds a populated store and its serving tier.
func benchServer(b *testing.B, steps, cams int) *httptest.Server {
	b.Helper()
	st, err := imagestore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for step := 1; step <= steps; step++ {
		for cam := 0; cam < cams; cam++ {
			if _, err := st.PutFrame("T.insitu", step, render.CameraName(cam), benchStoreFrame(step, cam)); err != nil {
				b.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(serve.New(st))
	b.Cleanup(ts.Close)
	return ts
}

// BenchmarkServeViewerWave measures one wave of the deterministic
// viewer fleet against a populated database: 32 concurrent pollers
// mixing hot latest.json polls with cold random spec reads, ETags
// remembered across requests. Reported p50/p99 are the fleet's
// end-to-end request latencies; bytes-served counts response bodies.
func BenchmarkServeViewerWave(b *testing.B) {
	ts := benchServer(b, 8, 2)
	cfg := workload.ViewerConfig{Viewers: 32, Requests: 25, HotFrac: 0.5}
	var p50, p99 time.Duration
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i) // a fresh cold-cache walk per wave
		stats, err := workload.RunViewers(ts.URL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Errors != 0 {
			b.Fatalf("%d viewer errors", stats.Errors)
		}
		p50 += stats.P50
		p99 += stats.P99
		bytes += stats.Bytes
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(p50.Milliseconds())/n, "p50-ms")
	b.ReportMetric(float64(p99.Milliseconds())/n, "p99-ms")
	b.ReportMetric(float64(bytes)/n, "bytes-served")
}

// BenchmarkServeHotPoll measures the steady-state hot path alone: one
// client re-polling latest.json with its ETag, the per-request cost a
// dashboard's refresh loop pays when nothing changed (always a 304).
func BenchmarkServeHotPoll(b *testing.B) {
	ts := benchServer(b, 8, 2)
	cfg := workload.ViewerConfig{Viewers: 1, Requests: 100, HotFrac: 1.0, Seed: 1}
	b.ResetTimer()
	var reqs, notMod int64
	for i := 0; i < b.N; i++ {
		stats, err := workload.RunViewers(ts.URL, cfg)
		if err != nil {
			b.Fatal(err)
		}
		reqs += stats.Requests
		notMod += stats.NotModified
	}
	b.StopTimer()
	if reqs > 0 {
		b.ReportMetric(float64(notMod)/float64(reqs), "304-frac")
	}
}
