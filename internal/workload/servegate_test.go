package workload

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"insitu/internal/imagestore"
	"insitu/internal/registry"
	"insitu/internal/render"
	"insitu/internal/serve"
)

// storeServeRun builds examples/configs/store-serve.json filing into a
// fresh temp store (the launcher's serving address cleared: the test
// serves the store itself). Frames are shrunk from 320x240 so the
// fleet's 10 000 requests load the tier's request path rather than push
// a gigabyte of PNG through the race detector.
func storeServeRun(t *testing.T) *registry.Built {
	t.Helper()
	cfg := loadExample(t, "store-serve")
	cfg.Store.Dir, cfg.Store.Serve = t.TempDir(), ""
	viz := &cfg.Tenants[0].Analyses[0]
	viz.Width, viz.Height = 48, 32
	return buildExample(t, cfg)
}

// TestStoreServeGate is the end-to-end image-serving gate on
// examples/configs/store-serve.json: the serving tier is up, with a live
// latest.json poller, before the run's first frame lands; the run leaks
// no pooled framebuffer; an independent second run files every spec
// under the same content digest; every cell is fetchable with correct
// conditional and immutable GET semantics; and a 250-viewer fleet
// finishes with zero errors, some 304s and a p99 under a bound generous
// enough for a loaded CI machine.
func TestStoreServeGate(t *testing.T) {
	const (
		viewers = 250
		reqs    = 40
		p99Max  = 2 * time.Second
	)
	b := storeServeRun(t)
	sv := serve.New(b.Store)
	ts := httptest.NewServer(sv)
	defer ts.Close()

	// Until the first frame lands latest.json has nothing to point at and
	// answers 404, which the tier counts as an error response: the only
	// ones the gate allows, so the poller counts them.
	stopLive := make(chan struct{})
	var live sync.WaitGroup
	sawLatest, early404s := false, 0
	live.Add(1)
	go func() {
		defer live.Done()
		for {
			select {
			case <-stopLive:
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := http.Get(ts.URL + "/latest.json")
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusOK:
				sawLatest = true
			case resp.StatusCode == http.StatusNotFound && !sawLatest:
				early404s++
			}
		}
	}()

	steps := b.Steps(0, 4)
	before := render.ImagesOutstanding()
	if _, err := b.Pipeline.Run(steps); err != nil {
		t.Fatal(err)
	}
	if after := render.ImagesOutstanding(); after != before {
		t.Errorf("frame leak: %d pooled images outstanding after the run (was %d)", after, before)
	}
	close(stopLive)
	live.Wait()
	if !sawLatest {
		t.Error("the live poller never saw latest.json answer 200 during the run")
	}

	// Determinism: an independent run files identical digests.
	b2 := storeServeRun(t)
	if _, err := b2.Pipeline.Run(steps); err != nil {
		t.Fatal(err)
	}
	specs := b.Store.Info().Specs
	if want := steps * b.Config.Tenants[0].Analyses[0].Cameras; len(specs) != want || len(b2.Store.Info().Specs) != want {
		t.Fatalf("%d and %d spec cells across the two runs, want %d each", len(specs), len(b2.Store.Info().Specs), want)
	}

	get := func(url, etag string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("get %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", url, err)
		}
		return resp, body
	}
	for _, key := range specs {
		sp, err := imagestore.ParseSpec(key)
		if err != nil {
			t.Fatal(err)
		}
		_, digest, err := b.Store.Frame(sp)
		if _, d2, err2 := b2.Store.Frame(sp); err != nil || err2 != nil || digest != d2 {
			t.Errorf("digest for %s not stable across re-runs: %q vs %q (%v, %v)", key, digest, d2, err, err2)
		}
		etag := `"` + digest + `"`
		url := ts.URL + "/db/" + key
		resp, body := get(url, "")
		if isPNG := bytes.HasPrefix(body, []byte{0x89, 'P', 'N', 'G'}); resp.StatusCode != http.StatusOK || !isPNG {
			t.Errorf("%s: status %d, PNG magic %v", key, resp.StatusCode, isPNG)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("%s: ETag %s does not match store digest %s", key, got, digest)
		}
		if resp, body := get(url, etag); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("%s: revalidation gave %d with %d body bytes, want bare 304", key, resp.StatusCode, len(body))
		}
		if resp, body := get(ts.URL+"/img/"+digest, etag); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("/img/%s: immutable revalidation gave %d with %d bytes", digest, resp.StatusCode, len(body))
		}
	}

	stats, err := RunViewers(ts.URL, ViewerConfig{Viewers: viewers, Requests: reqs, Seed: 20120101, HotFrac: 0.5})
	if err != nil {
		t.Fatalf("viewer fleet: %v", err)
	}
	t.Logf("%d viewers x %d requests: %s", viewers, reqs, stats)
	if stats.Errors != 0 {
		t.Errorf("%d viewer errors under load", stats.Errors)
	}
	if stats.NotModified == 0 {
		t.Error("fleet produced no 304s; conditional polling is broken")
	}
	if stats.P99 > p99Max {
		t.Errorf("p99 %v exceeds the %v bound", stats.P99, p99Max)
	}
	if got := sv.Stats().Errors; got != int64(early404s) {
		t.Errorf("serving tier counted %d error responses, want only the %d latest.json 404s from before the first frame", got, early404s)
	}
}
