package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ViewerConfig shapes a deterministic synthetic viewer fleet against
// the image-serving tier: N concurrent pollers, each mixing the hot
// path (polling latest.json with a remembered ETag, the live-dashboard
// pattern) with cold random walks over the database's spec cells.
type ViewerConfig struct {
	Viewers  int     // concurrent pollers
	Requests int     // requests per viewer
	Seed     int64   // per-viewer streams derive from Seed+index
	HotFrac  float64 // probability a request polls latest.json (default 0.5)
}

// viewerTimeout bounds each viewer request.
const viewerTimeout = 10 * time.Second

// ViewerStats aggregates the fleet's outcome: request counters and the
// latency distribution the serving tier is benchmarked on.
type ViewerStats struct {
	Requests    int64
	OK          int64 // 200s
	NotModified int64 // 304s
	Errors      int64 // transport errors and non-2xx/304 statuses
	Bytes       int64 // body bytes received

	P50, P90, P99, Max time.Duration
}

// String renders the stats as one summary line: request outcomes, bytes
// received, and the latency quantiles rounded to the microsecond.
func (s ViewerStats) String() string {
	return fmt.Sprintf("%d requests (%d ok, %d not-modified, %d errors), %d bytes, p50 %s p90 %s p99 %s max %s",
		s.Requests, s.OK, s.NotModified, s.Errors, s.Bytes,
		s.P50.Round(time.Microsecond), s.P90.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// storeInfo is the slice of the serving tier's /db/info.json the
// viewers need: the full spec-cell list to walk.
type storeInfo struct {
	Specs []string `json:"Specs"`
}

// RunViewers drives the viewer fleet against the serving tier at base
// (e.g. "http://127.0.0.1:8080") and returns the aggregate stats. The
// request sequence of each viewer is deterministic given cfg.Seed; the
// interleaving across viewers is not, which is exactly a load test's
// job. An empty database is not an error: viewers then poll
// latest.json only.
func RunViewers(base string, cfg ViewerConfig) (ViewerStats, error) {
	if cfg.Viewers < 1 {
		cfg.Viewers = 1
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.HotFrac <= 0 || cfg.HotFrac > 1 {
		cfg.HotFrac = 0.5
	}

	// One transport sized for the fleet: per-viewer clients would
	// benchmark connection setup, not the serving tier.
	tr := &http.Transport{
		MaxIdleConns:        cfg.Viewers,
		MaxIdleConnsPerHost: cfg.Viewers,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: viewerTimeout}

	specs, err := fetchSpecs(client, base)
	if err != nil {
		return ViewerStats{}, err
	}

	var (
		mu        sync.Mutex
		stats     ViewerStats
		latencies = make([]time.Duration, 0, cfg.Viewers*cfg.Requests)
	)
	var wg sync.WaitGroup
	for v := 0; v < cfg.Viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(v)))
			etags := make(map[string]string) // url -> last seen ETag
			local := make([]time.Duration, 0, cfg.Requests)
			var ok, notMod, errs, bytes int64
			for i := 0; i < cfg.Requests; i++ {
				url := base + "/latest.json"
				if len(specs) > 0 && rng.Float64() >= cfg.HotFrac {
					url = base + "/db/" + specs[rng.Intn(len(specs))]
				}
				t0 := time.Now()
				status, etag, n := fetchOnce(client, url, etags[url])
				local = append(local, time.Since(t0))
				bytes += n
				switch {
				case status == http.StatusOK:
					ok++
					if etag != "" {
						etags[url] = etag
					}
				case status == http.StatusNotModified:
					notMod++
				default:
					errs++
				}
			}
			mu.Lock()
			stats.Requests += int64(cfg.Requests)
			stats.OK += ok
			stats.NotModified += notMod
			stats.Errors += errs
			stats.Bytes += bytes
			latencies = append(latencies, local...)
			mu.Unlock()
		}(v)
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	stats.P50 = percentile(latencies, 0.50)
	stats.P90 = percentile(latencies, 0.90)
	stats.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		stats.Max = latencies[n-1]
	}
	return stats, nil
}

// fetchSpecs pulls the database's spec-cell list from /db/info.json.
func fetchSpecs(client *http.Client, base string) ([]string, error) {
	resp, err := client.Get(base + "/db/info.json")
	if err != nil {
		return nil, fmt.Errorf("workload: fetch db info: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: db info: status %d", resp.StatusCode)
	}
	var info storeInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("workload: decode db info: %w", err)
	}
	return info.Specs, nil
}

// fetchOnce performs one conditional GET, draining the body so the
// connection is reusable. A transport failure reports as status 0.
func fetchOnce(client *http.Client, url, etag string) (status int, newETag string, n int64) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, "", 0
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", 0
	}
	n, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), n
}

// percentile reads the q-quantile from sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
