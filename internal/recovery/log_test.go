package recovery

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// readLog opens the log at path and returns it with a copy of every
// payload replayed.
func readLog(t testing.TB, path string) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := OpenLog(path, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// tornVariants writes n records and returns them with the intact file
// and every damaged form of its last frame: the file cut at each byte
// offset inside that frame (from dropping it whole to missing its last
// byte), and the whole file with one bit flipped at each of the frame's
// bytes. Reopening any of them must yield exactly the first n-1 records.
func tornVariants(t testing.TB, n int) (recs [][]byte, good []byte, torn [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := readLog(t, path)
	for i := 0; i < n; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record %d %s", i, bytes.Repeat([]byte{'x'}, i))))
	}
	if err := l.Append(recs[:n-1]...); err != nil {
		t.Fatal(err)
	}
	lastStart := int(l.Size())
	if err := l.Append(recs[n-1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(good)) != l.Size() {
		t.Fatalf("log file is %d bytes, Size() = %d", len(good), l.Size())
	}
	for cut := lastStart; cut < len(good); cut++ {
		torn = append(torn, good[:cut:cut])
	}
	for at := lastStart; at < len(good); at++ {
		flipped := append([]byte(nil), good...)
		flipped[at] ^= 1 << (at % 8)
		torn = append(torn, flipped)
	}
	return recs, good, torn
}

// TestLogTornTail is the torn-tail property with the truncate-before-
// append rule: whatever a crash did to the last frame, reopening
// returns the records before it, and a record appended after that
// reopen is returned by the next one — the damaged bytes do not stay
// in the file in front of it.
func TestLogTornTail(t *testing.T) {
	const n = 4
	recs, _, torn := tornVariants(t, n)
	path := filepath.Join(t.TempDir(), "x.log")
	after := []byte("appended after the torn reopen")
	for i, data := range torn {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := readLog(t, path)
		if !samePayloads(got, recs[:n-1]) {
			t.Fatalf("variant %d (%d bytes): reopened %d records, want the first %d", i, len(data), len(got), n-1)
		}
		if err := l.Append(after); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, got = readLog(t, path)
		if want := append(append([][]byte(nil), recs[:n-1]...), after); !samePayloads(got, want) {
			t.Fatalf("variant %d: after append + reopen got %d records, want %d ending in the appended one", i, len(got), len(want))
		}
	}
}

// TestLogCreatesNothingUntilAppend: opening a log that is not there
// leaves the directory empty; the first append creates the file and
// counts the directory fsync beside its own.
func TestLogCreatesNothingUntilAppend(t *testing.T) {
	dir := t.TempDir()
	l, got := readLog(t, filepath.Join(dir, "x.log"))
	if ents, _ := os.ReadDir(dir); len(ents) != 0 || len(got) != 0 || l.Size() != 0 {
		t.Fatalf("open of a missing log: %d dir entries, %d records, size %d", len(ents), len(got), l.Size())
	}
	if err := l.Append([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if l.Fsyncs() != 2 {
		t.Fatalf("first append of two payloads issued %d fsyncs, want 2 (directory + file)", l.Fsyncs())
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if l.Fsyncs() != 3 {
		t.Fatalf("second append brought fsyncs to %d, want 3", l.Fsyncs())
	}
	l.Close()
	if _, got := readLog(t, filepath.Join(dir, "x.log")); len(got) != 3 {
		t.Fatalf("reopened %d records, want 3", len(got))
	}
}

// allocMedian calls op(1), op(2), ... and returns, for each window
// {lo, hi} of call numbers, the median of the bytes those calls
// allocated. A window, not one call: an amortised slice or map growth
// lands on some single call and is not what the guard is about.
func allocMedian(t testing.TB, windows [][2]int, op func(i int)) []uint64 {
	t.Helper()
	last := windows[len(windows)-1][1]
	deltas := make([]uint64, last+1)
	var m0, m1 runtime.MemStats
	for i := 1; i <= last; i++ {
		runtime.ReadMemStats(&m0)
		op(i)
		runtime.ReadMemStats(&m1)
		deltas[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	out := make([]uint64, len(windows))
	for w, win := range windows {
		d := append([]uint64(nil), deltas[win[0]:win[1]+1]...)
		sort.Slice(d, func(i, k int) bool { return d[i] < d[k] })
		out[w] = d[len(d)/2]
	}
	return out
}

// TestJournalAppendIsConstantCost is the O(1) guard: the bytes one
// Append allocates do not grow with the journal. Rewriting the journal
// per record made append #1000 allocate about a hundred times what
// append #10 did.
func TestJournalAppendIsConstantCost(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	med := allocMedian(t, [][2]int{{5, 15}, {995, 1005}}, func(i int) {
		rec := Record{Kind: KindCommit, Step: i, Digests: map[string]string{"hybrid visualization": "0123456789abcdef"}}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if med[1] > 2*med[0] {
		t.Fatalf("append #1000 allocates %d B, append #10 %d B: the cost of an append grows with the journal", med[1], med[0])
	}
}

// FuzzOpenLog: arbitrary file bytes replay to some prefix of frames or
// fail with an error, never a panic, and the log stays appendable:
// append-then-reopen returns exactly that prefix plus the new record.
func FuzzOpenLog(f *testing.F) {
	_, good, torn := tornVariants(f, 3)
	f.Add(good)
	for _, data := range torn {
		f.Add(data)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'}) // a length field past any file
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, prefix := readLog(t, path)
		if l.Size() > int64(len(data)) {
			t.Fatalf("good prefix of %d bytes in a %d-byte file", l.Size(), len(data))
		}
		if err := l.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, got := readLog(t, path)
		if want := append(prefix, []byte("new")); !samePayloads(got, want) {
			t.Fatalf("append + reopen returned %d records, want the %d replayed + 1", len(got), len(prefix))
		}
	})
}
