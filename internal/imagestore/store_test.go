package imagestore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"insitu/internal/recovery"
	"insitu/internal/render"
)

func frame(seed int) *render.Image {
	im := render.NewImage(16, 12)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			v := float64((x*7+y*3+seed)%16) / 16
			im.Set(x, y, v, v/2, 1-v, v)
		}
	}
	return im
}

// putFrame files one camera's frame as a one-frame set.
func putFrame(s *Store, variable string, step int, cam string, img *render.Image) (string, error) {
	digests, err := s.PutFrames(variable, step, []render.Frame{{Cam: cam, Img: img}})
	if err != nil {
		return "", err
	}
	return digests[0], nil
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := Spec{Var: "T", Step: 3, Cam: "cam00"}
	digest, err := putFrame(s, sp.Var, sp.Step, sp.Cam, frame(1))
	if err != nil {
		t.Fatal(err)
	}
	data, got, err := s.Frame(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got != digest {
		t.Fatalf("digest %s != %s", got, digest)
	}
	want, _ := frame(1).AppendPNG(nil)
	if !bytes.Equal(data, want) {
		t.Fatal("stored bytes differ from a fresh encode")
	}
	blob, err := s.Blob(digest)
	if err != nil || !bytes.Equal(blob, want) {
		t.Fatalf("blob fetch by digest: %v", err)
	}
	if step, ok := s.Latest(); !ok || step != 3 {
		t.Fatalf("latest = %d,%v", step, ok)
	}
}

func TestDigestStableAcrossReencode(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d1, err := putFrame(s, "T", 1, "cam00", frame(7))
	if err != nil {
		t.Fatal(err)
	}
	// The same pixels re-encoded (a re-run of a deterministic
	// pipeline) must address the same blob.
	d2, err := putFrame(s, "T", 2, "cam00", frame(7))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("re-encode changed the digest: %s vs %s", d1, d2)
	}
	st, info := s.Stats(), s.Info()
	if info.Blobs != 1 || st.Dedups != 1 || info.Frames != 2 {
		t.Fatalf("dedup accounting: %+v, %d frames over %d blobs", st, info.Frames, info.Blobs)
	}
}

func TestIdempotentPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	png, _ := frame(2).AppendPNG(nil)
	sp := Spec{Var: "OH", Step: 5, Cam: "cam01"}
	if _, err := s.Put(sp, png); err != nil {
		t.Fatal(err)
	}
	size1 := s.Info().Bytes
	if _, err := s.Put(sp, append([]byte(nil), png...)); err != nil {
		t.Fatal(err)
	}
	if s.Info().Bytes != size1 {
		t.Fatal("idempotent put appended bytes")
	}
}

func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for step := 1; step <= 3; step++ {
		for _, cam := range []string{"cam00", "cam01"} {
			d, err := putFrame(s, "T", step, cam, frame(step*2+len(cam)))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Info()
	if info.Frames != 6 || info.LatestStep != 3 {
		t.Fatalf("reopened info: %+v", info)
	}
	for i, key := range []string{"T/1/cam00", "T/1/cam01", "T/2/cam00", "T/2/cam01", "T/3/cam00", "T/3/cam01"} {
		sp, err := ParseSpec(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, d, err := r.Frame(sp); err != nil || d != want[i] {
			t.Fatalf("%s after reopen: digest %s want %s, err %v", key, d, want[i], err)
		}
	}

	// An index whose first record is not this format's header, or is
	// the header of another format version, fails the open with the
	// typed sentinel: it is never silently trusted.
	index := filepath.Join(dir, indexName)
	records := logPayloads(t, index)
	if len(records) != 7 || string(records[0]) != indexHeader {
		t.Fatalf("index.log holds %d records, want the header + one per put", len(records))
	}
	for name, header := range map[string][]byte{
		"undecodable":    {0xff, 0x00, 0x7f},
		"future version": []byte("imagestore index v3"),
	} {
		writeLog(t, index, append([][]byte{header}, records[1:]...)...)
		if bs, err := Open(dir); !errors.Is(err, ErrCorruptIndex) {
			if bs != nil {
				bs.Close()
			}
			t.Errorf("%s header: Open err = %v, want ErrCorruptIndex", name, err)
		}
	}

	// A blob ref whose offset and length sum past int64 is out of the
	// segment like any other: dropped at open with the frames naming
	// it, never handed to a read as a length.
	wrapped := append([][]byte(nil), records...)
	for i, rec := range wrapped[1:] {
		if sp, digest, _, err := decodePutRecord(rec); err != nil {
			t.Fatal(err)
		} else if digest == want[0] {
			sum := [sha256.Size]byte(rec[:sha256.Size])
			wrapped[1+i] = appendPutRecord(nil, sp, sum, blobRef{Off: math.MaxInt64, Len: math.MaxInt64})
		}
	}
	writeLog(t, index, wrapped...)
	ws, err := Open(dir)
	if err != nil {
		t.Fatalf("wrapping blob ref: Open err = %v", err)
	}
	defer ws.Close()
	if got := ws.Stats().Dropped; got != 3 {
		t.Errorf("wrapping blob ref: dropped %d index entries, want 3 (the blob and step 1's two frames)", got)
	}
	if _, err := ws.Blob(want[0]); err == nil {
		t.Error("wrapping blob ref: the blob is still served")
	}
	if info := ws.Info(); info.Frames != 4 || info.LatestStep != 3 {
		t.Errorf("wrapping blob ref: %d frames up to step %d survive, want steps 2 and 3's four", info.Frames, info.LatestStep)
	}
}

// logPayloads returns every record of the log at path.
func logPayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := recovery.OpenLog(path, func(p []byte) bool {
		out = append(out, append([]byte(nil), p...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeLog replaces the log at path with one holding payloads.
func writeLog(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	l, err := recovery.OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(payloads...); err != nil {
		t.Fatal(err)
	}
}

// TestTornSegmentDropped: an index entry pointing past the segment's
// end (external truncation) must be dropped at open, never served
// torn; intact entries survive.
func TestTornSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := putFrame(s, "T", 1, "cam00", frame(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := putFrame(s, "T", 2, "cam00", frame(2)); err != nil {
		t.Fatal(err)
	}
	firstLen := int64(0)
	{
		b, _ := s.Blob(d1)
		firstLen = int64(len(b))
	}
	s.Close()

	seg := filepath.Join(dir, segmentFile)
	if err := os.Truncate(seg, firstLen+10); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Frame(Spec{Var: "T", Step: 1, Cam: "cam00"}); err != nil {
		t.Fatalf("intact frame lost: %v", err)
	}
	if _, _, err := r.Frame(Spec{Var: "T", Step: 2, Cam: "cam00"}); err == nil {
		t.Fatal("torn frame served")
	}
	if r.Stats().Dropped == 0 {
		t.Fatal("dropped counter did not move")
	}
}

// TestOrphanTailHarmless: bytes appended to the segment after the last
// indexed blob (a crash between segment append and index write) are
// skipped over — the store reopens and keeps appending safely.
func TestOrphanTailHarmless(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := putFrame(s, "T", 1, "cam00", frame(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("orphan blob bytes the index never saw"))
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Frame(Spec{Var: "T", Step: 1, Cam: "cam00"}); err != nil {
		t.Fatal(err)
	}
	d2, err := putFrame(r, "T", 2, "cam00", frame(2))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := frame(2).AppendPNG(nil)
	if got, err := r.Blob(d2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-orphan append unreadable: %v", err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	png1, _ := frame(1).AppendPNG(nil)
	s.cache = newLRUCache(int64(len(png1)) + 16) // room for roughly one frame
	d1, _ := s.Put(Spec{Var: "T", Step: 1, Cam: "cam00"}, png1)
	png2, _ := frame(2).AppendPNG(nil)
	d2, _ := s.Put(Spec{Var: "T", Step: 2, Cam: "cam00"}, png2)
	if _, err := s.Blob(d2); err != nil {
		t.Fatal(err)
	}
	h0 := s.Stats().CacheHits
	if _, err := s.Blob(d2); err != nil {
		t.Fatal(err)
	}
	if s.Stats().CacheHits != h0+1 {
		t.Fatal("expected a cache hit on the resident blob")
	}
	m0 := s.Stats().CacheMisses
	if _, err := s.Blob(d1); err != nil {
		t.Fatal(err)
	}
	if s.Stats().CacheMisses != m0+1 {
		t.Fatal("expected a cache miss on the evicted blob")
	}
}

func TestSpecValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	png, _ := frame(0).AppendPNG(nil)
	for _, sp := range []Spec{
		{Var: "", Step: 1, Cam: "cam00"},
		{Var: "T", Step: 1, Cam: ""},
		{Var: "a/b", Step: 1, Cam: "cam00"},
		{Var: "T", Step: -1, Cam: "cam00"},
	} {
		if _, err := s.Put(sp, png); err == nil {
			t.Fatalf("spec %+v accepted", sp)
		}
	}
	if _, err := s.Put(Spec{Var: "T", Step: 1, Cam: "cam00"}, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	for _, key := range nonCanonicalKeys {
		if sp, err := ParseSpec(key); err == nil {
			t.Errorf("ParseSpec(%q) = %+v, want an error", key, sp)
		}
	}
}

// nonCanonicalKeys are keys no Spec.Key renders: malformed, or another
// spelling of a valid step ("T/007/cam00" would name step 7's frame a
// second time).
var nonCanonicalKeys = []string{
	"T/notanumber/cam00", "toofew/parts", "T/007/cam00", "T/+7/cam00", "T/-0/cam00", "T/-1/cam00", "T/7/cam00/x",
}

// FuzzParseSpec: a key ParseSpec accepts is the canonical rendering of
// a valid spec — Key gives back exactly the key, and validate passes.
func FuzzParseSpec(f *testing.F) {
	f.Add("T/7/cam00")
	f.Add("T.insitu/0/cam03")
	for _, key := range nonCanonicalKeys {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		sp, err := ParseSpec(key)
		if err != nil {
			return
		}
		if sp.Key() != key {
			t.Fatalf("ParseSpec(%q) = %+v, whose key is %q", key, sp, sp.Key())
		}
		if err := sp.validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", key, err)
		}
	})
}

// TestConcurrentReadWrite hammers readers against a writer — run under
// -race this is the store's concurrency gate.
func TestConcurrentReadWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := putFrame(s, "T", 0, "cam00", frame(0)); err != nil {
		t.Fatal(err)
	}
	const steps = 20
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: a run appending frames
		defer wg.Done()
		for step := 1; step <= steps; step++ {
			for _, cam := range []string{"cam00", "cam01"} {
				if _, err := putFrame(s, "T", step, cam, frame(step)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for v := 0; v < 8; v++ { // readers: viewers polling a live run
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				latest, ok := s.Latest()
				if !ok {
					continue
				}
				// Every step up to Latest has its cam00: the writer
				// commits it first.
				sp := Spec{Var: "T", Step: (i + v) % (latest + 1), Cam: "cam00"}
				if _, _, err := s.Frame(sp); err != nil {
					t.Errorf("viewer %d: %v", v, err)
					return
				}
				s.Info()
				s.StepFrames(latest)
			}
		}(v)
	}
	wg.Wait()
	if got := s.Info().Frames; got != 2*steps+1 {
		t.Fatalf("frames %d, want %d", got, 2*steps+1)
	}
}

func TestInfoShape(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for step := 1; step <= 2; step++ {
		for _, v := range []string{"T.hybrid", "T.insitu"} {
			if _, err := putFrame(s, v, step, "cam00", frame(step)); err != nil {
				t.Fatal(err)
			}
		}
	}
	info := s.Info()
	if fmt.Sprint(info.Vars) != "[T.hybrid T.insitu]" {
		t.Fatalf("vars %v", info.Vars)
	}
	if len(info.Specs) != 4 || info.Specs[0] != "T.hybrid/1/cam00" {
		t.Fatalf("specs %v", info.Specs)
	}
	if got := s.StepFrames(2); len(got) != 2 {
		t.Fatalf("step frames %v", got)
	}
}
