package workload

import (
	"net/http/httptest"
	"testing"

	"insitu/internal/imagestore"
	"insitu/internal/render"
	"insitu/internal/serve"
)

func viewerFrame(seed int) *render.Image {
	im := render.NewImage(12, 8)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float64((x+y*5+seed)%9) / 9
			im.Set(x, y, v, v, 1-v, v)
		}
	}
	return im
}

func viewerServer(t *testing.T) (*imagestore.Store, *serve.Server, *httptest.Server) {
	t.Helper()
	st, err := imagestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for step := 0; step < 4; step++ {
		for _, cam := range []string{"cam00", "cam01"} {
			if _, err := st.PutFrames("T.insitu", step, []render.Frame{{Cam: cam, Img: viewerFrame(step)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sv := serve.New(st)
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	return st, sv, ts
}

func TestRunViewers(t *testing.T) {
	_, sv, ts := viewerServer(t)
	stats, err := RunViewers(ts.URL, ViewerConfig{
		Viewers: 16, Requests: 25, Seed: 42, HotFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 16*25 {
		t.Fatalf("requests %d, want %d", stats.Requests, 16*25)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d viewer errors", stats.Errors)
	}
	// Repeat polls of an unchanged latest.json must ride the ETag path.
	if stats.NotModified == 0 {
		t.Fatal("no conditional-GET hits: viewers are not sending If-None-Match")
	}
	if stats.OK == 0 || stats.Bytes == 0 {
		t.Fatalf("no successful fetches: %+v", stats)
	}
	if stats.P50 <= 0 || stats.P99 < stats.P50 || stats.Max < stats.P99 {
		t.Fatalf("percentiles out of order: %+v", stats)
	}
	if sv.Stats().Requests < stats.Requests {
		t.Fatalf("server saw %d requests, fleet sent %d", sv.Stats().Requests, stats.Requests)
	}
}

// TestRunViewersDeterministicSequence: the same seed walks the same
// spec cells — run twice against the same immutable database, the
// fleet's 200/304 split is identical.
func TestRunViewersDeterministicSequence(t *testing.T) {
	_, _, ts := viewerServer(t)
	cfg := ViewerConfig{Viewers: 4, Requests: 30, Seed: 7, HotFrac: 0.3}
	a, err := RunViewers(ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunViewers(ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OK != b.OK || a.NotModified != b.NotModified || a.Bytes != b.Bytes {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunViewersEmptyStore(t *testing.T) {
	st, err := imagestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(serve.New(st))
	defer ts.Close()
	stats, err := RunViewers(ts.URL, ViewerConfig{Viewers: 2, Requests: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// latest.json 404s on an empty store: counted as errors, not a
	// crash — a fleet can start before the run's first frame lands.
	if stats.Requests != 6 || stats.Errors != 6 {
		t.Fatalf("empty-store stats: %+v", stats)
	}
}

func TestRunViewersServerGone(t *testing.T) {
	ts := httptest.NewServer(nil)
	url := ts.URL
	ts.Close()
	if _, err := RunViewers(url, ViewerConfig{Viewers: 1, Requests: 1}); err == nil {
		t.Fatal("expected an error when the tier is unreachable")
	}
}
