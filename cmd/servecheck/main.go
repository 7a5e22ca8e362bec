// Command servecheck is the CI gate for the Cinema-style image store
// and its HTTP serving tier. It runs the whole stack in-process:
//
//  1. serve an empty store and start background latest.json pollers —
//     live viewers attach before the run's first frame lands,
//  2. run a short pipeline (both viz modes, two orbit cameras) with
//     the store attached, asserting zero pooled-framebuffer leaks,
//  3. run the identical pipeline into a second store and assert every
//     spec maps to the same content digest — frame addresses are
//     stable across re-encodes and re-runs,
//  4. fetch every spec cell over HTTP (status, PNG magic, ETag =
//     store digest), revalidate it (304, zero body), and check the
//     immutable policy on the digest route,
//  5. drive a large deterministic viewer fleet and gate on zero
//     errors, conditional-GET traffic, and a generous p99 bound.
//
// It exits non-zero on the first violation. Usage: servecheck
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/imagestore"
	"insitu/internal/netsim"
	"insitu/internal/render"
	"insitu/internal/serve"
	"insitu/internal/sim"
	"insitu/internal/workload"
)

const (
	steps   = 4
	cams    = 2
	viewers = 250
	reqs    = 40
	p99Max  = 2 * time.Second // generous: the gate runs on loaded CI machines
)

func main() {
	dir1, err := os.MkdirTemp("", "servecheck1-*")
	if err != nil {
		fatal("servecheck: %v", err)
	}
	defer os.RemoveAll(dir1)
	dir2, err := os.MkdirTemp("", "servecheck2-*")
	if err != nil {
		fatal("servecheck: %v", err)
	}
	defer os.RemoveAll(dir2)

	// 1. The serving tier is up, with live pollers, before any frame
	// exists: a run must be watchable from step one.
	st1, err := imagestore.Open(dir1)
	if err != nil {
		fatal("servecheck: open store: %v", err)
	}
	sv := serve.New(st1)
	ts := httptest.NewServer(sv)
	defer ts.Close()
	stopLive := make(chan struct{})
	var live sync.WaitGroup
	// Until the first frame lands latest.json has nothing to point at and
	// answers 404, which the tier counts as an error response: the only
	// ones the gate allows, so the poller counts them.
	sawLatest, early404s := false, 0
	live.Add(1)
	go func() {
		defer live.Done()
		for {
			select {
			case <-stopLive:
				return
			case <-time.After(5 * time.Millisecond):
				resp, err := http.Get(ts.URL + "/latest.json")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == 200:
						sawLatest = true
					case resp.StatusCode == 404 && !sawLatest:
						early404s++
					}
				}
			}
		}
	}()

	// 2. The run, with the pool ledger bracketing it.
	before := render.ImagesOutstanding()
	runPipeline(st1)
	if after := render.ImagesOutstanding(); after != before {
		fatal("servecheck: frame leak: %d pooled images outstanding after the run (was %d)", after, before)
	}
	close(stopLive)
	live.Wait()
	if !sawLatest {
		fatal("servecheck: live pollers never saw latest.json answer 200 during the run")
	}
	fmt.Printf("servecheck: run complete, zero pooled-framebuffer leaks, live polling worked (%d latest.json 404s before the first frame)\n", early404s)

	// 3. Determinism: the identical run must produce identical digests
	// for every spec cell.
	st2, err := imagestore.Open(dir2)
	if err != nil {
		fatal("servecheck: open second store: %v", err)
	}
	runPipeline(st2)
	info1, info2 := st1.Info(), st2.Info()
	if len(info1.Specs) == 0 || len(info1.Specs) != len(info2.Specs) {
		fatal("servecheck: spec sets differ across re-runs: %d vs %d", len(info1.Specs), len(info2.Specs))
	}
	wantSpecs := 2 * steps * cams // two viz vars x steps x cameras
	if len(info1.Specs) != wantSpecs {
		fatal("servecheck: %d spec cells, want %d", len(info1.Specs), wantSpecs)
	}
	for _, key := range info1.Specs {
		sp, err := imagestore.ParseSpec(key)
		if err != nil {
			fatal("servecheck: %v", err)
		}
		d1, ok1 := st1.Digest(sp)
		d2, ok2 := st2.Digest(sp)
		if !ok1 || !ok2 || d1 != d2 {
			fatal("servecheck: digest for %s not stable across re-runs: %q vs %q", key, d1, d2)
		}
	}
	st2.Close()
	fmt.Printf("servecheck: %d spec cells, digests identical across an independent re-run\n", len(info1.Specs))

	// 4. Every cell is fetchable over HTTP with correct cache semantics.
	for _, key := range info1.Specs {
		sp, _ := imagestore.ParseSpec(key)
		digest, _ := st1.Digest(sp)
		url := ts.URL + "/db/" + key
		resp, body := get(url, "")
		if resp.StatusCode != 200 {
			fatal("servecheck: %s: status %d", key, resp.StatusCode)
		}
		if !bytes.HasPrefix(body, []byte{0x89, 'P', 'N', 'G'}) {
			fatal("servecheck: %s: body is not a PNG", key)
		}
		etag := resp.Header.Get("ETag")
		if etag != `"`+digest+`"` {
			fatal("servecheck: %s: ETag %s does not match store digest %s", key, etag, digest)
		}
		if resp2, body2 := get(url, etag); resp2.StatusCode != 304 || len(body2) != 0 {
			fatal("servecheck: %s: revalidation gave %d with %d body bytes, want bare 304", key, resp2.StatusCode, len(body2))
		}
		imm, body3 := get(ts.URL+"/img/"+digest, `"`+digest+`"`)
		if imm.StatusCode != 304 || len(body3) != 0 {
			fatal("servecheck: /img/%s: immutable revalidation gave %d with %d bytes", digest[:12], imm.StatusCode, len(body3))
		}
	}
	fmt.Println("servecheck: every spec cell fetchable; conditional and immutable GET semantics hold")

	// 5. The viewer fleet.
	t0 := time.Now()
	stats, err := workload.RunViewers(ts.URL, workload.ViewerConfig{
		Viewers: viewers, Requests: reqs, Seed: 20120101, HotFrac: 0.5,
	})
	if err != nil {
		fatal("servecheck: viewer fleet: %v", err)
	}
	fmt.Printf("servecheck: %d viewers x %d requests in %v: %s\n",
		viewers, reqs, time.Since(t0).Round(time.Millisecond), stats)
	if stats.Errors != 0 {
		fatal("servecheck: %d viewer errors under load", stats.Errors)
	}
	if stats.NotModified == 0 {
		fatal("servecheck: fleet produced no 304s; conditional polling is broken")
	}
	if stats.P99 > p99Max {
		fatal("servecheck: p99 %v exceeds the %v bound", stats.P99, p99Max)
	}
	ss := sv.Stats()
	if ss.Errors != int64(early404s) {
		fatal("servecheck: serving tier counted %d error responses, want only the %d latest.json 404s from before the first frame",
			ss.Errors, early404s)
	}
	st1.Close()
	fmt.Println("servecheck: OK")
}

// runPipeline executes the gate's fixed pipeline into the given store:
// both visualization modes, two orbit cameras, fixed seed.
func runPipeline(st *imagestore.Store) {
	simCfg := sim.DefaultConfig(grid.NewBox(16, 8, 8), 2, 1, 1)
	simCfg.Seed = 7
	cfg := core.Config{Sim: simCfg, DSServers: 2, Buckets: 2, Net: netsim.Gemini(), Store: st}
	p, err := core.NewPipeline(cfg)
	if err != nil {
		fatal("servecheck: %v", err)
	}
	vizIS := core.NewVizInSitu(48, 32)
	vizIS.Cameras = cams
	vizHy := core.NewVizHybrid(48, 32, 2)
	vizHy.Cameras = cams
	p.Register(vizIS)
	p.Register(vizHy)
	if _, err := p.Run(steps); err != nil {
		fatal("servecheck: pipeline run: %v", err)
	}
}

func get(url, etag string) (*http.Response, []byte) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		fatal("servecheck: %v", err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatal("servecheck: get %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fatal("servecheck: read %s: %v", url, err)
	}
	return resp, body
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
