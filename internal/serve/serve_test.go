package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"insitu/internal/imagestore"
	"insitu/internal/obs"
	"insitu/internal/render"
)

func frame(seed int) *render.Image {
	im := render.NewImage(16, 12)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float64((x*5+y*11+seed)%16) / 16
			im.Set(x, y, v, 1-v, v/3, v)
		}
	}
	return im
}

// putFrame files one camera's frame as a one-frame set.
func putFrame(st *imagestore.Store, variable string, step int, cam string, img *render.Image) (string, error) {
	digests, err := st.PutFrames(variable, step, []render.Frame{{Cam: cam, Img: img}})
	if err != nil {
		return "", err
	}
	return digests[0], nil
}

// newServer builds a store with a few frames and a test server over it.
func newServer(t *testing.T) (*imagestore.Store, *Server, *httptest.Server) {
	t.Helper()
	st, err := imagestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for step := 0; step < 3; step++ {
		for _, cam := range []string{"cam00", "cam01"} {
			if _, err := putFrame(st, "T.insitu", step, cam, frame(step*2+len(cam)%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sv := New(st)
	ts := httptest.NewServer(sv)
	t.Cleanup(ts.Close)
	return st, sv, ts
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

var pngMagic = []byte{0x89, 'P', 'N', 'G'}

func TestSpecRouteServesPNGWithETag(t *testing.T) {
	st, _, ts := newServer(t)
	resp, body := get(t, ts.URL+"/db/T.insitu/1/cam00", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.HasPrefix(body, pngMagic) {
		t.Fatal("body is not a PNG")
	}
	_, digest, err := st.Frame(imagestore.Spec{Var: "T.insitu", Step: 1, Cam: "cam00"})
	if err != nil {
		t.Fatalf("store lost the spec: %v", err)
	}
	if got := resp.Header.Get("ETag"); got != `"`+digest+`"` {
		t.Fatalf("ETag %s, want quoted %s", got, digest)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != ccRevalidate {
		t.Fatalf("spec route Cache-Control %q", cc)
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, digest) {
		t.Fatalf("no canonical link to the immutable address: %q", link)
	}
}

// TestConditionalGet304ZeroBody: If-None-Match on every cacheable route
// must answer 304 with zero body bytes on the wire.
func TestConditionalGet304ZeroBody(t *testing.T) {
	_, sv, ts := newServer(t)
	reg := obs.NewRegistry()
	sv.PublishTo(reg)
	for _, path := range []string{
		"/db/T.insitu/1/cam00",
		"/db/info.json",
		"/latest.json",
	} {
		resp, body := get(t, ts.URL+path, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", path)
		}
		sent := bytesSent(t, reg)
		resp2, body2 := get(t, ts.URL+path, map[string]string{"If-None-Match": etag})
		if resp2.StatusCode != http.StatusNotModified {
			t.Fatalf("%s: revalidation status %d, want 304", path, resp2.StatusCode)
		}
		if len(body2) != 0 {
			t.Fatalf("%s: 304 carried %d body bytes", path, len(body2))
		}
		if bytesSent(t, reg) != sent {
			t.Fatalf("%s: 304 moved the bytes-sent counter", path)
		}
		if len(body) == 0 {
			t.Fatalf("%s: initial body empty", path)
		}
	}
	if sv.Stats().NotModified != 3 {
		t.Fatalf("NotModified = %d, want 3", sv.Stats().NotModified)
	}
}

// TestImmutableDigestNeverReServed: the /img route must mark responses
// immutable and answer a revalidation of its own digest with 304 —
// without consulting the store (no cache traffic).
func TestImmutableDigestNeverReServed(t *testing.T) {
	st, _, ts := newServer(t)
	_, digest, err := st.Frame(imagestore.Spec{Var: "T.insitu", Step: 2, Cam: "cam01"})
	if err != nil {
		t.Fatalf("store lost the spec: %v", err)
	}
	resp, body := get(t, ts.URL+"/img/"+digest, nil)
	if resp.StatusCode != 200 || !bytes.HasPrefix(body, pngMagic) {
		t.Fatalf("immutable fetch: status %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != ccImmutable {
		t.Fatalf("Cache-Control %q, want %q", cc, ccImmutable)
	}
	hits := st.Stats().CacheHits
	misses := st.Stats().CacheMisses
	for i := 0; i < 5; i++ {
		resp2, body2 := get(t, ts.URL+"/img/"+digest,
			map[string]string{"If-None-Match": `"` + digest + `"`})
		if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
			t.Fatalf("revalidation %d: status %d, %d bytes", i, resp2.StatusCode, len(body2))
		}
		if cc := resp2.Header.Get("Cache-Control"); cc != ccImmutable {
			t.Fatalf("304 lost the immutable policy: %q", cc)
		}
	}
	if st.Stats().CacheHits != hits || st.Stats().CacheMisses != misses {
		t.Fatal("immutable revalidations touched the store")
	}
}

// ifNoneMatchVariants maps If-None-Match headers to whether they match
// the entity tag `"abc"`.
var ifNoneMatchVariants = map[string]bool{
	"":                  false,
	`"abc"`:             true,
	`W/"abc"`:           true,
	`"zzz", "abc"`:      true,
	`"zzz" , W/"abc"`:   true,
	"*":                 true,
	`"ab"`:              false,
	`"zzz"`:             false,
	`"abc`:              false,
	`"zzz", "yyy"`:      false,
	`W/"zzz", W/"uvw" `: false,
}

func TestIfNoneMatchVariants(t *testing.T) {
	for hdr, want := range ifNoneMatchVariants {
		if got := etagMatch(hdr, `"abc"`); got != want {
			t.Errorf("etagMatch(%q) = %v, want %v", hdr, got, want)
		}
	}
}

// FuzzEtagMatch fuzzes the If-None-Match parser, which reads a header
// straight off the wire: it never panics, a header whose last element
// is the tag always matches, and a header none of whose comma-separated,
// trimmed, W/-stripped elements is "*" or the tag never does.
func FuzzEtagMatch(f *testing.F) {
	for hdr := range ifNoneMatchVariants {
		f.Add(hdr, `"abc"`)
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		got := etagMatch(header, etag)
		// A tag as the server writes one: a single element, no
		// surrounding space, no weak prefix.
		if !strings.Contains(etag, ",") && strings.TrimSpace(etag) == etag && !strings.HasPrefix(etag, "W/") {
			if h := header + ", " + etag; !etagMatch(h, etag) {
				t.Fatalf("etagMatch(%q, %q) = false, want true", h, etag)
			}
		}
		listed := false
		for _, part := range strings.Split(header, ",") {
			part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
			listed = listed || part == "*" || part == etag
		}
		if got && !listed {
			t.Fatalf("etagMatch(%q, %q) = true, but no element is \"*\" or the tag", header, etag)
		}
	})
}

func TestLatestPointer(t *testing.T) {
	st, _, ts := newServer(t)
	resp, body := get(t, ts.URL+"/latest.json", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got latestPayload
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Step != 2 || len(got.Frames) != 2 {
		t.Fatalf("latest = step %d with %d frames", got.Step, len(got.Frames))
	}
	etag := resp.Header.Get("ETag")

	// Each advertised URL must be fetchable and match its digest.
	for name, f := range got.Frames {
		r2, b2 := get(t, ts.URL+f.URL, nil)
		if r2.StatusCode != 200 || !bytes.HasPrefix(b2, pngMagic) {
			t.Fatalf("%s: %s -> %d", name, f.URL, r2.StatusCode)
		}
		r3, _ := get(t, ts.URL+f.Spec, nil)
		if r3.StatusCode != 200 || r3.Header.Get("ETag") != `"`+f.Digest+`"` {
			t.Fatalf("%s: spec URL disagrees with digest", name)
		}
	}

	// A new step must churn the pointer's ETag so pollers see it.
	if _, err := putFrame(st, "T.insitu", 3, "cam00", frame(9)); err != nil {
		t.Fatal(err)
	}
	resp4, _ := get(t, ts.URL+"/latest.json", map[string]string{"If-None-Match": etag})
	if resp4.StatusCode != 200 {
		t.Fatalf("stale ETag still matched after a new step: %d", resp4.StatusCode)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Fatal("latest.json ETag did not churn with a new step")
	}
}

func TestNotFoundAndBadRequest(t *testing.T) {
	_, sv, ts := newServer(t)
	for path, want := range map[string]int{
		"/db/T.insitu/99/cam00":      404,
		"/db/nosuch/1/cam00":         404,
		"/db/T.insitu/notanum/cam00": 400,
		"/db/T.insitu/01/cam00":      400, // step 1's frame under a second name
		"/db/T.insitu/+1/cam00":      400,
		"/db/T.insitu/-1/cam00":      400,
		"/img/deadbeef":              404,
		"/nosuch":                    404,
	} {
		resp, _ := get(t, ts.URL+path, nil)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
	if sv.Stats().Errors != 8 {
		t.Errorf("Errors = %d, want 8", sv.Stats().Errors)
	}
}

func TestEmptyStoreLatest(t *testing.T) {
	st, err := imagestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(New(st))
	defer ts.Close()
	resp, _ := get(t, ts.URL+"/latest.json", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("empty store latest: %d", resp.StatusCode)
	}
	resp2, _ := get(t, ts.URL+"/db/info.json", nil)
	if resp2.StatusCode != 200 {
		t.Fatalf("empty store info: %d", resp2.StatusCode)
	}
}

func TestIndexPage(t *testing.T) {
	_, _, ts := newServer(t)
	resp, body := get(t, ts.URL+"/", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "latest.json") {
		t.Fatalf("index page: %d", resp.StatusCode)
	}
}

// TestConcurrentServeWhileWriting is the serving tier's -race gate:
// viewers hammer every route while a run keeps appending frames.
func TestConcurrentServeWhileWriting(t *testing.T) {
	st, sv, ts := newServer(t)
	reg := obs.NewRegistry()
	sv.PublishTo(reg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the live run
		defer wg.Done()
		for step := 3; step < 15; step++ {
			if _, err := putFrame(st, "T.insitu", step, "cam00", frame(step)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for v := 0; v < 8; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			etag := ""
			for i := 0; i < 40; i++ {
				hdr := map[string]string{}
				if etag != "" {
					hdr["If-None-Match"] = etag
				}
				resp, body := get(t, ts.URL+"/latest.json", hdr)
				switch resp.StatusCode {
				case 200:
					etag = resp.Header.Get("ETag")
					var p latestPayload
					if err := json.Unmarshal(body, &p); err != nil {
						t.Errorf("viewer %d: %v", v, err)
						return
					}
					for _, f := range p.Frames {
						r2, _ := get(t, ts.URL+f.URL, nil)
						if r2.StatusCode != 200 {
							t.Errorf("viewer %d: %s -> %d", v, f.URL, r2.StatusCode)
							return
						}
					}
				case 304:
				default:
					t.Errorf("viewer %d: latest -> %d", v, resp.StatusCode)
					return
				}
				get(t, ts.URL+fmt.Sprintf("/db/T.insitu/%d/cam00", i%3), nil)
			}
		}(v)
	}
	wg.Wait()
	if sv.Stats().Requests == 0 || bytesSent(t, reg) == 0 {
		t.Fatalf("counters did not move: %+v, %d bytes sent", sv.Stats(), bytesSent(t, reg))
	}
}

// bytesSent scrapes the serve_bytes_total sample from reg.
func bytesSent(t *testing.T, reg *obs.Registry) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "serve_bytes_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("serve_bytes_total %q: %v", v, err)
			}
			return int64(n)
		}
	}
	t.Fatal("serve_bytes_total missing from the exposition")
	return 0
}

func TestPublishTo(t *testing.T) {
	_, sv, ts := newServer(t)
	reg := obs.NewRegistry()
	sv.PublishTo(reg)
	sv.PublishTo(nil) // nil registry must be a no-op, not a panic
	get(t, ts.URL+"/db/T.insitu/0/cam00", nil)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, fam := range []string{"serve_requests_total", "serve_latency_seconds", "serve_not_modified_total", "serve_bytes_total"} {
		if !strings.Contains(text, fam) {
			t.Errorf("metrics exposition missing %s", fam)
		}
	}
}
