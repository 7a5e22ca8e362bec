// Package serve is the externally-facing HTTP tier over the
// Cinema-style image store — the "millions of users" face of the
// pipeline. It is grown beside the internal obs.Handler endpoint and
// follows CDN-shaped cache semantics:
//
//	/                    minimal built-in viewer page (polls latest.json)
//	/db/info.json        browsable index: variables, cameras, every spec cell
//	/db/<var>/<step>/<cam>  one frame by spec (PNG; ETag = content digest,
//	                     revalidatable with If-None-Match → 304)
//	/img/<digest>        one blob by content address (immutable: ETag +
//	                     Cache-Control max-age=31536000, immutable)
//	/latest.json         pointer to the newest step's frames — the hot
//	                     poll target thousands of viewers hit against a
//	                     live run; ETag'd so unchanged polls cost a 304
//
// Spec URLs are mutable names over immutable content: the body a spec
// serves today may be superseded tomorrow, so they revalidate
// (no-cache + ETag). Digest URLs can never change meaning, so they are
// marked immutable and a well-behaved client never refetches one.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"insitu/internal/imagestore"
	"insitu/internal/obs"
)

// Server serves one image store. Create with New, optionally attach
// metrics with PublishTo, and mount it as an http.Handler.
type Server struct {
	st  *imagestore.Store
	mux *http.ServeMux

	// The lifetime counters, one per fact: Stats reads them, and
	// PublishTo exports them as scrape-time functions.
	requests [len(routes)]atomic.Int64 // by route
	notMod   atomic.Int64
	errors   atomic.Int64
	bytes    atomic.Int64

	// Per-route latency histograms (nil until PublishTo).
	lat []*obs.Histogram
}

// routes is the label set requests are classified under; classify
// returns an index into it.
var routes = [...]string{"index", "info", "db", "img", "latest", "other"}

// New builds the serving tier over st.
func New(st *imagestore.Store) *Server {
	s := &Server{st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /db/info.json", s.handleInfo)
	s.mux.HandleFunc("GET /db/{var}/{step}/{cam}", s.handleSpec)
	s.mux.HandleFunc("GET /img/{digest}", s.handleBlob)
	s.mux.HandleFunc("GET /latest.json", s.handleLatest)
	return s
}

// PublishTo registers the serve-tier metric families on an
// observability registry: per-route request counters and latency
// histograms, 304 and bytes-sent counters. Nil is a no-op.
func (s *Server) PublishTo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	counter := func(name, help string, c *atomic.Int64, labels ...obs.Attr) {
		reg.CounterFunc(name, help, func() float64 { return float64(c.Load()) }, labels...)
	}
	lat := make([]*obs.Histogram, len(routes))
	for i, r := range routes {
		counter("serve_requests_total", "image-serving requests by route", &s.requests[i], obs.Str("route", r))
		lat[i] = reg.Histogram("serve_latency_seconds",
			"image-serving request latency by route", obs.LatencyBuckets, obs.Str("route", r))
	}
	counter("serve_not_modified_total", "conditional GETs answered 304 with zero body bytes", &s.notMod)
	counter("serve_bytes_total", "response body bytes sent by the serving tier", &s.bytes)
	s.lat = lat
}

// Stats are the server's lifetime counters, for gates that run without
// an observability plane.
type Stats struct {
	Requests    int64
	NotModified int64
	Errors      int64 // 4xx responses
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		NotModified: s.notMod.Load(),
		Errors:      s.errors.Load(),
	}
	for i := range s.requests {
		st.Requests += s.requests[i].Load()
	}
	return st
}

// ServeHTTP implements http.Handler with per-route accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	route := classify(r.URL.Path)
	s.requests[route].Add(1)
	s.mux.ServeHTTP(&countingWriter{ResponseWriter: w, s: s}, r)
	if s.lat != nil {
		s.lat[route].Observe(time.Since(t0).Seconds())
	}
}

// classify maps a request path onto its index in routes.
func classify(path string) int {
	switch {
	case path == "/":
		return 0 // index
	case path == "/db/info.json":
		return 1 // info
	case strings.HasPrefix(path, "/db/"):
		return 2 // db
	case strings.HasPrefix(path, "/img/"):
		return 3 // img
	case path == "/latest.json":
		return 4 // latest
	}
	return 5 // other
}

// countingWriter folds status and body bytes into the server counters.
type countingWriter struct {
	http.ResponseWriter
	s *Server
}

func (c *countingWriter) WriteHeader(code int) {
	switch {
	case code == http.StatusNotModified:
		c.s.notMod.Add(1)
	case code >= 400:
		c.s.errors.Add(1)
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.s.bytes.Add(int64(n))
	return n, err
}

// etagMatch implements If-None-Match: a "*" or any listed entity tag
// (weak validators compare by opaque tag) matching etag.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// writeConditional serves body under etag with the given cache policy;
// an If-None-Match hit answers 304 with zero body bytes.
func writeConditional(w http.ResponseWriter, r *http.Request, etag, cacheControl, contentType string, body []byte) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", cacheControl)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

const (
	ccImmutable  = "public, max-age=31536000, immutable"
	ccRevalidate = "no-cache"
)

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	body, err := json.MarshalIndent(s.st.Info(), "", " ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(body)
	writeConditional(w, r, `"`+hex.EncodeToString(sum[:16])+`"`, ccRevalidate,
		"application/json; charset=utf-8", body)
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	sp, err := imagestore.ParseSpec(r.PathValue("var") + "/" + r.PathValue("step") + "/" + r.PathValue("cam"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data, digest, err := s.st.Frame(sp)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	// A spec is a mutable name over immutable content: revalidate, and
	// point clients at the immutable address too.
	w.Header().Set("Link", `</img/`+digest+`>; rel="canonical"`)
	writeConditional(w, r, `"`+digest+`"`, ccRevalidate, "image/png", data)
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	etag := `"` + digest + `"`
	// Content-addressed bytes can never change: a revalidation of the
	// tag the URL itself names is answerable without touching the
	// store at all — immutable digests are never re-served.
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", ccImmutable)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, err := s.st.Blob(digest)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	writeConditional(w, r, etag, ccImmutable, "image/png", data)
}

// latestPayload is the /latest.json shape: the newest step and its
// frames, each with the spec URL and the immutable content address.
type latestPayload struct {
	Step   int                    `json:"step"`
	Frames map[string]latestFrame `json:"frames"` // "var/cam" -> frame
}

type latestFrame struct {
	Digest string `json:"digest"`
	URL    string `json:"url"` // immutable /img/<digest>
	Spec   string `json:"spec"`
}

func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	step, ok := s.st.Latest()
	if !ok {
		http.Error(w, "no frames stored yet", http.StatusNotFound)
		return
	}
	out := latestPayload{Step: step, Frames: map[string]latestFrame{}}
	for vc, digest := range s.st.StepFrames(step) {
		v, cam, _ := strings.Cut(vc, "/")
		out.Frames[vc] = latestFrame{
			Digest: digest,
			URL:    "/img/" + digest,
			Spec:   "/db/" + v + "/" + strconv.Itoa(step) + "/" + cam,
		}
	}
	body, err := json.MarshalIndent(&out, "", " ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The ETag covers the content, so a poll of an unchanged run —
	// the overwhelmingly common case under heavy viewer traffic —
	// costs a 304 and zero body bytes.
	sum := sha256.Sum256(body)
	writeConditional(w, r, `"`+hex.EncodeToString(sum[:16])+`"`, ccRevalidate,
		"application/json; charset=utf-8", body)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(viewerHTML))
}

// viewerHTML is the minimal built-in viewer: it polls latest.json
// (conditional requests via the browser cache) and shows each frame by
// its immutable address.
const viewerHTML = `<!doctype html>
<meta charset="utf-8">
<title>insitu image store</title>
<style>body{font-family:monospace;margin:1.5em}img{image-rendering:pixelated;border:1px solid #888;margin:4px}</style>
<h1>insitu image store</h1>
<p>step <span id="step">–</span> · <a href="/db/info.json">db/info.json</a> · <a href="/latest.json">latest.json</a></p>
<div id="frames"></div>
<script>
async function poll(){
  try{
    const r = await fetch('/latest.json',{cache:'no-cache'});
    if(r.ok){
      const j = await r.json();
      document.getElementById('step').textContent = j.step;
      const div = document.getElementById('frames');
      div.replaceChildren(...Object.entries(j.frames).map(([name,f])=>{
        const fig=document.createElement('figure');
        const img=document.createElement('img');
        img.src=f.url; img.title=name; img.width=320;
        const cap=document.createElement('figcaption');
        cap.textContent=name;
        fig.append(img,cap);
        return fig;
      }));
    }
  }catch(e){}
  setTimeout(poll,1000);
}
poll();
</script>
`
