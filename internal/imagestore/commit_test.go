package imagestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"insitu/internal/render"
)

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// failingIndex opens a store whose index.log cannot be opened for
// appending (a directory sits at its path) and puts one frame into it:
// the blob reaches the segment, the index append fails. It returns the
// store, the frame, and the call that lets the log through again.
func failingIndex(t *testing.T, dir string) (s *Store, sp Spec, png []byte, heal func()) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	index := filepath.Join(dir, indexName)
	if err := os.Mkdir(index, 0o755); err != nil {
		t.Fatal(err)
	}
	sp = Spec{Var: "T", Step: 1, Cam: "cam00"}
	png, _ = frame(1).AppendPNG(nil)
	digest, err := s.Put(sp, png)
	if err == nil {
		t.Fatal("put with an unwritable index succeeded")
	}

	// Nothing of the failed put is visible: not the frame, not the blob
	// (from the maps or the cache), not Latest, not a counter.
	if _, d, err := s.Frame(sp); err == nil || d != "" || digest != "" {
		t.Error("failed put: Frame serves it, or a digest is indexed or returned")
	}
	if _, ok := s.Latest(); ok {
		t.Error("failed put: Latest moved")
	}
	if st, info := s.Stats(), s.Info(); st.Puts != 0 || st.Dedups != 0 || info.Frames != 0 || info.Blobs != 0 || info.Bytes != 0 {
		t.Errorf("failed put: stats moved: %+v, info %+v", st, info)
	}
	// Durability order: the blob was in the segment before the index
	// append was even attempted.
	if got := fileSize(t, filepath.Join(dir, segmentFile)); got != int64(len(png)) {
		t.Errorf("segment holds %d bytes after the failed put, want the blob's %d", got, len(png))
	}
	return s, sp, png, func() {
		if err := os.Remove(index); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedPutIsRetryable: a put whose index append fails publishes
// nothing, and the same put retried goes through the whole write path
// again — it used to take the idempotent branch, report success, and
// never write an index entry — and survives a reopen.
func TestFailedPutIsRetryable(t *testing.T) {
	dir := t.TempDir()
	s, sp, png, heal := failingIndex(t, dir)
	heal()
	digest, err := s.Put(sp, png)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if st, info := s.Stats(), s.Info(); st.Puts != 1 || st.Dedups != 0 || info.Bytes != int64(len(png)) {
		t.Errorf("retry: stats %+v, %d segment bytes: want one put of one blob written where the failed one was", st, info.Bytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, d, err := r.Frame(sp); err != nil || d != digest || !bytes.Equal(got, png) {
		t.Fatalf("retried put after reopen: digest %s want %s, err %v", d, digest, err)
	}
}

// TestCrashAfterSegmentSync: a process that dies between the segment
// fsync and the index append leaves an orphan blob tail. Reopening
// skips it, and the next put lands after it and reads back.
func TestCrashAfterSegmentSync(t *testing.T) {
	dir := t.TempDir()
	s, _, orphan, heal := failingIndex(t, dir)
	s.Close() // the "crash": the failed put is never retried
	heal()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info := r.Info(); info.Frames != 0 || info.Bytes != int64(len(orphan)) {
		t.Fatalf("reopen over an orphan tail: %+v, want no frames and the tail counted as segment bytes", info)
	}
	sp := Spec{Var: "T", Step: 2, Cam: "cam00"}
	png, _ := frame(2).AppendPNG(nil)
	digest, err := r.Put(sp, png)
	if err != nil {
		t.Fatal(err)
	}
	if ref := r.blobs[digest]; ref.Off != int64(len(orphan)) {
		t.Fatalf("the put after the orphan landed at %d, want %d (after it)", ref.Off, len(orphan))
	}
	r.Close()
	if r, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _, err := r.Frame(sp); err != nil || !bytes.Equal(got, png) {
		t.Fatalf("frame put after the orphan tail: %v", err)
	}
}

// TestFrameSetIsOneCommit: a multi-camera set costs one index append
// (one fsync) however many frames it holds, two identical images in it
// store one blob under two specs, and re-putting the whole set writes
// nothing.
func TestFrameSetIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	set := func(seed int) []render.Frame {
		return []render.Frame{
			{Cam: "cam00", Img: frame(seed)},
			{Cam: "cam01", Img: frame(seed)},
			{Cam: "cam02", Img: frame(seed + 1)},
		}
	}
	digests, err := s.PutFrames("T", 1, set(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 3 || digests[0] != digests[1] || digests[0] == digests[2] {
		t.Fatalf("digests %v: want cam00 == cam01 != cam02", digests)
	}
	if st, info := s.Stats(), s.Info(); info.Frames != 3 || info.Blobs != 2 || st.Puts != 3 || st.Dedups != 1 {
		t.Fatalf("identical images in one set: %+v, %d specs over %d blobs: want 3 specs over 2 blobs", st, info.Frames, info.Blobs)
	}
	if got := s.idx.Fsyncs(); got != 2 {
		t.Fatalf("first set issued %d index fsyncs, want 2 (the new file's directory + one append)", got)
	}
	if _, err := s.PutFrames("T", 2, set(5)); err != nil {
		t.Fatal(err)
	}
	if got := s.idx.Fsyncs(); got != 3 {
		t.Fatalf("second set brought index fsyncs to %d, want 3: one per set, not per frame", got)
	}

	seg, idx := fileSize(t, filepath.Join(dir, segmentFile)), fileSize(t, filepath.Join(dir, indexName))
	again, err := s.PutFrames("T", 1, set(1))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again) != fmt.Sprint(digests) {
		t.Fatalf("re-put returned %v, want %v", again, digests)
	}
	if s2, i2 := fileSize(t, filepath.Join(dir, segmentFile)), fileSize(t, filepath.Join(dir, indexName)); s2 != seg || i2 != idx || s.idx.Fsyncs() != 3 {
		t.Fatalf("re-putting a whole set wrote: segment %d -> %d, index %d -> %d, fsyncs %d", seg, s2, idx, i2, s.idx.Fsyncs())
	}
	for i, cam := range []string{"cam00", "cam01", "cam02"} {
		want, _ := set(1)[i].Img.AppendPNG(nil)
		if got, _, err := s.Frame(Spec{Var: "T", Step: 1, Cam: cam}); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: stored bytes differ from a fresh encode (%v)", cam, err)
		}
	}
}

// TestPutIsConstantCost is the O(1) guard: the bytes one Put allocates
// do not grow with the store. Re-marshalling the whole index per frame
// made put #800 allocate far more than put #10. Medians over a window
// of calls, so one amortised map growth does not trip it.
func TestPutIsConstantCost(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	windows := [][2]int{{5, 15}, {795, 805}}
	deltas := make([]uint64, windows[1][1]+1)
	var m0, m1 runtime.MemStats
	for i := 1; i < len(deltas); i++ {
		png := []byte(fmt.Sprintf("frame %06d: any bytes do, the store never decodes them", i))
		sp := Spec{Var: "T", Step: i/8 + 1, Cam: render.CameraName(i % 8)}
		runtime.ReadMemStats(&m0)
		_, err := s.Put(sp, png)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		deltas[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	var med [2]uint64
	for w, win := range windows {
		d := append([]uint64(nil), deltas[win[0]:win[1]+1]...)
		sort.Slice(d, func(i, k int) bool { return d[i] < d[k] })
		med[w] = d[len(d)/2]
	}
	if med[1] > 2*med[0] {
		t.Fatalf("put #800 allocates %d B, put #10 %d B: the cost of a put grows with the store", med[1], med[0])
	}
}

// FuzzOpenIndex feeds arbitrary bytes as index.log beside a fixed
// two-blob segment. The contract: Open returns a store or an error
// wrapping ErrCorruptIndex — never a panic — and a store it returns
// never serves a ref that reaches outside the segment.
func FuzzOpenIndex(f *testing.F) {
	seedDir := f.TempDir()
	s, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	for step := 1; step <= 2; step++ {
		if _, err := putFrame(s, "T", step, "cam00", frame(step)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	segment, err := os.ReadFile(filepath.Join(seedDir, segmentFile))
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(seedDir, indexName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(good[:8+len(indexHeader)]) // the header alone
	f.Add([]byte{})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 4
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, index []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentFile), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, indexName), index, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrCorruptIndex) {
				t.Fatalf("Open err = %v, want a store or ErrCorruptIndex", err)
			}
			return
		}
		defer s.Close()
		for digest, ref := range s.blobs {
			if ref.Off < 0 || ref.Len <= 0 || ref.Off+ref.Len > int64(len(segment)) || ref.Off+ref.Len < 0 {
				t.Fatalf("blob %s served from [%d, +%d) of a %d-byte segment", digest, ref.Off, ref.Len, len(segment))
			}
			if _, err := s.Blob(digest); err != nil {
				t.Fatalf("an indexed blob does not read: %v", err)
			}
		}
		for sp, digest := range s.frames {
			if _, ok := s.blobs[digest]; !ok {
				t.Fatalf("frame %s names a blob that is not indexed", sp.Key())
			}
		}
	})
}

// frameSet returns cams frames of w×h pixels whose bytes differ by
// step and camera, so no frame of one set dedups against another.
func frameSet(step, cams, w, h int) []render.Frame {
	set := make([]render.Frame, cams)
	for c := range set {
		im := render.NewImage(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := float64((x+3*y+5*c+7*step)%32) / 32
				im.Set(x, y, v, 1-v, v/2, 1)
			}
		}
		im.Set(0, 0, float64(step%251)/251, float64(c)/float64(cams), 0, 1)
		set[c] = render.Frame{Cam: render.CameraName(c), Img: im}
	}
	return set
}

// TestPutFramesAllocatesFlat is the O(1) guard of the frame write
// path: a step of eight 80×60 frames is encoded into the store's
// reused commit buffer, so a late step allocates less than one frame's
// PNG. Each frame used to get its own exact-size slice for the cache
// to keep: eight PNGs a step. Nor does a late step allocate more than
// the digests it returns: one string per frame and their slice. Each
// digest used to be hex-encoded through a scratch slice of its own.
func TestPutFramesAllocatesFlat(t *testing.T) {
	const steps, cams, w, h = 32, 8, 80, 60
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	png, err := frameSet(0, 1, w, h)[0].Img.AppendPNG(nil)
	if err != nil {
		t.Fatal(err)
	}
	deltas, mallocs := make([]uint64, steps), make([]uint64, steps)
	var m0, m1 runtime.MemStats
	for step := range deltas {
		set := frameSet(step, cams, w, h)
		runtime.ReadMemStats(&m0)
		_, err := s.PutFrames("T", step, set)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		deltas[step] = m1.TotalAlloc - m0.TotalAlloc
		mallocs[step] = m1.Mallocs - m0.Mallocs
	}
	if blobs := s.Info().Blobs; blobs != steps*cams {
		t.Fatalf("%d blobs stored, want %d distinct frames", blobs, steps*cams)
	}
	// The cheapest step of a late window, as in core's in-situ guard: a
	// map growth lands on single steps and is not what this is about.
	if late := slices.Min(deltas[steps-10:]); late >= uint64(len(png)) {
		t.Errorf("a step of %d frames allocates %d B, one frame's PNG is %d B: each frame is encoded into a buffer of its own", cams, late, len(png))
	}
	if late := slices.Min(mallocs[steps-10:]); late > cams+1 {
		t.Errorf("a step of %d frames makes %d allocations, want at most %d: its digest strings and their slice", cams, late, cams+1)
	}
}

// TestCacheFillsOnReadAndNeverAliasesTheCommitBuffer: a put leaves the
// read cache alone, the first read of a frame misses and fills it, the
// second hits; and while a writer keeps committing, every slice a
// reader gets hashes to its digest — no read is served from the commit
// buffer the next commit overwrites. Run under -race it is also the
// gate on that buffer's sharing.
func TestCacheFillsOnReadAndNeverAliasesTheCommitBuffer(t *testing.T) {
	const cams, w, h, base, steps = 4, 40, 30, 1, 20
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	digests, err := s.PutFrames("T", base, frameSet(base, cams, w, h))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("a put moved the read cache: %d hits, %d misses", st.CacheHits, st.CacheMisses)
	}
	sp := Spec{Var: "T", Step: base, Cam: render.CameraName(0)}
	for i, want := range [][2]int64{{0, 1}, {1, 1}} {
		if _, _, err := s.Frame(sp); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.CacheHits != want[0] || st.CacheMisses != want[1] {
			t.Fatalf("read %d: %d hits, %d misses, want %d and %d", i+1, st.CacheHits, st.CacheMisses, want[0], want[1])
		}
	}

	// Room for about one frame, so the readers keep missing, filling
	// and evicting while the writer commits.
	png, _ := frameSet(base, 1, w, h)[0].Img.AppendPNG(nil)
	s.cache = newLRUCache(int64(len(png)) + 16)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c := (i + r) % cams
				data, digest, err := s.Frame(Spec{Var: "T", Step: base, Cam: render.CameraName(c)})
				if err != nil {
					t.Error(err)
					return
				}
				if sum := sha256.Sum256(data); digest != digests[c] || hex.EncodeToString(sum[:]) != digest {
					t.Errorf("reader %d: step %d %s read bytes that do not hash to its digest", r, base, render.CameraName(c))
					return
				}
			}
		}(r)
	}
	for step := base + 1; step <= base+steps; step++ {
		if _, err := s.PutFrames("T", step, frameSet(step, cams, w, h)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}
