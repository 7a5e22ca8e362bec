package recovery

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindAdmit, Step: 1},
		{Kind: KindSubmit, Step: 1, Analysis: "hybrid visualization"},
		{Kind: KindCheckpoint, Step: 1, Files: []string{"ckpt-00001-r000.bp"}},
		{Kind: KindCommit, Step: 1, Digests: map[string]string{"hybrid visualization": "aa"}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Fsyncs() == 0 {
		t.Fatal("no fsyncs counted")
	}

	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := j2.Records()
	if len(got) != len(recs) {
		t.Fatalf("reopened %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i].Kind != r.Kind || got[i].Step != r.Step || got[i].Analysis != r.Analysis {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
	if got[3].Digests["hybrid visualization"] != "aa" {
		t.Fatalf("commit digests lost: %+v", got[3])
	}
	// The ckpt record is the checkpoint binding Resume replays.
	if got[2].Step != 1 || len(got[2].Files) != 1 || got[2].Files[0] != recs[2].Files[0] {
		t.Fatalf("checkpoint binding lost: %+v", got[2])
	}
}

// TestJournalWithRetiredKeysStillOpens: journals written before the
// write-only "epoch" and "ckpt_step" keys were dropped open to the same
// records — the unknown keys are ignored — and resume from them.
func TestJournalWithRetiredKeysStillOpens(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(filepath.Join(dir, journalFile), func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(
		[]byte(`{"kind":"admit","step":1}`),
		[]byte(`{"kind":"ckpt","step":1,"files":["ckpt-00001-r000.bp"],"epoch":1}`),
		[]byte(`{"kind":"commit","step":1,"ckpt_step":1,"digests":{"stats":"aa"}}`),
	); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := j.Records()
	want := []Record{
		{Kind: KindAdmit, Step: 1},
		{Kind: KindCheckpoint, Step: 1, Files: []string{"ckpt-00001-r000.bp"}},
		{Kind: KindCommit, Step: 1, Digests: map[string]string{"stats": "aa"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old journal opens to %+v, want %+v", got, want)
	}
	st := Analyze(got)
	if cks := st.CheckpointsFor(st.LastCommit); st.LastCommit != 1 || len(cks) != 1 || cks[0].Files[0] != "ckpt-00001-r000.bp" {
		t.Fatalf("old journal resumes at step %d from %+v", st.LastCommit, cks)
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 3; s++ {
		if err := j.Append(Record{Kind: KindAdmit, Step: s}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A truncated tail loses only the last record.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j2.Records()); n != 2 {
		t.Fatalf("truncated journal yielded %d records, want 2", n)
	}
	// ...and the torn bytes do not shadow what is appended next.
	if err := j2.Append(Record{Kind: KindCommit, Step: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if j2, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if recs := j2.Records(); len(recs) != 3 || recs[2].Kind != KindCommit {
		t.Fatalf("append after a torn reopen: reread %+v, want 2 admits + the commit", recs)
	}

	// A bit flip in the middle stops parsing at the corrupt frame.
	bad := append([]byte(nil), data...)
	bad[12] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j3.Records()); n != 0 {
		t.Fatalf("corrupt first frame yielded %d records, want 0", n)
	}
}

func TestJournalKill(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: KindAdmit, Step: 1}); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	if !j.Killed() {
		t.Fatal("Killed() = false after Kill")
	}
	if err := j.Append(Record{Kind: KindAdmit, Step: 2}); !errors.Is(err, ErrKilled) {
		t.Fatalf("append after kill: err = %v, want ErrKilled", err)
	}
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j2.Records()); n != 1 {
		t.Fatalf("killed journal has %d durable records, want 1", n)
	}
}

func TestAnalyze(t *testing.T) {
	recs := []Record{
		{Kind: KindAdmit, Step: 1},
		{Kind: KindCommit, Step: 1},
		{Kind: KindCheckpoint, Step: 2, Files: []string{"a"}},
		{Kind: KindCommit, Step: 2},
		{Kind: KindAdmit, Step: 3},
		{Kind: KindSubmit, Step: 3, Analysis: "stats"},
		{Kind: KindCheckpoint, Step: 4, Files: []string{"b"}},
		// Step 4 committed but 3 is not: LastCommit must stop at 2.
		{Kind: KindCommit, Step: 4},
	}
	st := Analyze(recs)
	if st.LastCommit != 2 {
		t.Fatalf("LastCommit = %d, want 2", st.LastCommit)
	}
	if !st.Submitted[3]["stats"] {
		t.Fatalf("submit record lost: %+v", st.Submitted)
	}
	cks := st.CheckpointsFor(2)
	if len(cks) != 1 || cks[0].Step != 2 {
		t.Fatalf("CheckpointsFor(2) = %+v", cks)
	}
}

func TestKillAt(t *testing.T) {
	k := KillAt(PhaseMidSubmit, 3)
	if k(PhaseMidSubmit, 2) || k(PhasePreAdmit, 3) {
		t.Fatal("fired early")
	}
	if !k(PhaseMidSubmit, 3) {
		t.Fatal("did not fire at target")
	}
	if k(PhaseMidSubmit, 3) || k(PhaseMidSubmit, 4) {
		t.Fatal("fired twice")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2-longer"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("content = %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file litter: %s", e.Name())
		}
	}
}
