// Package recovery implements the durable run-recovery substrate: an
// append-only log of CRC frames (Log) and, on top of it, the
// write-ahead step journal. Each record is appended with one write and
// one fsync, so it is durable when Append returns and costs the same at
// step 10 000 as at step 1; a crash mid-append leaves a torn last frame
// that fails its length or CRC check, which open stops at and the next
// append truncates. Whole files that are replaced rather than grown (bp
// checkpoints, exported artifacts) go through WriteFileAtomic:
// temp-file + fsync + rename, either the old file or the new one.
//
// The journal records the step commit protocol — step admitted → tasks
// submitted → checkpoint bound → step committed — and a resumed
// pipeline replays it to find the last committed step and the
// checkpoint files that cover it, whose step is the codec base-state
// epoch to re-seed.
//
// The package also hosts the crash-injection plumbing the crash-matrix
// soak drives: a KillFunc evaluated at every journal phase boundary
// and a Kill switch that freezes all durable writes, simulating the
// process dying at exactly that boundary. Everything here is
// standard-library only, so the checkpoint writer (internal/bp) and
// the pipeline (internal/core) can both build on it without cycles.
package recovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Phase names a journal phase boundary — the instants the crash matrix
// kills the pipeline at.
type Phase int

const (
	// PhasePreAdmit fires before the step's admit record is written:
	// the step leaves no durable trace at all.
	PhasePreAdmit Phase = iota
	// PhaseMidSubmit fires after the step's first submit record: the
	// journal shows a partially submitted step with no commit.
	PhaseMidSubmit
	// PhaseMidCheckpoint fires after the checkpoint files are written
	// but before the journal's ckpt record binds them: the files exist
	// on disk but are not trusted by resume.
	PhaseMidCheckpoint
	// PhasePostCommit fires immediately after a commit record lands:
	// the cleanest possible crash, everything up to the step durable.
	PhasePostCommit
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhasePreAdmit:
		return "pre-admit"
	case PhaseMidSubmit:
		return "mid-submit"
	case PhaseMidCheckpoint:
		return "mid-checkpoint"
	case PhasePostCommit:
		return "post-commit"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// ErrKilled is the outcome of a run aborted by an injected crash: the
// journal froze at a phase boundary and every rank stopped at the next
// step boundary.
var ErrKilled = errors.New("recovery: run killed at journal phase boundary")

// KillFunc decides, at each phase boundary of each step, whether the
// injected crash fires. Implementations must be safe for concurrent
// use: the post-commit boundary is evaluated on the drain goroutine.
type KillFunc func(phase Phase, step int) bool

// KillAt returns a KillFunc that fires exactly once, at the first
// evaluation of the given phase boundary with step >= the given step
// (a phase may not occur at the exact step, e.g. a checkpoint cadence
// skipping it).
func KillAt(phase Phase, step int) KillFunc {
	var fired atomic.Bool
	return func(p Phase, s int) bool {
		if p != phase || s < step {
			return false
		}
		return fired.CompareAndSwap(false, true)
	}
}

// Record kinds, in protocol order.
const (
	KindAdmit      = "admit"  // step entered the pipeline
	KindSubmit     = "submit" // one in-transit task submitted for the step
	KindCheckpoint = "ckpt"   // checkpoint files written and bound
	KindCommit     = "commit" // step's results all settled durably
)

// Record is one journal entry. Only the fields relevant to a kind are
// populated.
type Record struct {
	Kind string `json:"kind"`
	Step int    `json:"step"`
	// Analysis names the submitted route (KindSubmit).
	Analysis string `json:"analysis,omitempty"`
	// Files lists the per-rank checkpoint file names, relative to the
	// journal directory (KindCheckpoint).
	Files []string `json:"files,omitempty"`
	// Digests maps analysis name to the hex digest of its stored
	// result for the step (KindCommit), so two journals' views of a
	// step can be compared without the results themselves.
	Digests map[string]string `json:"digests,omitempty"`
}

const journalFile = "journal.wal"

// CheckpointFile returns the canonical per-rank checkpoint file name
// for a step, relative to the journal directory.
func CheckpointFile(step, rank int) string {
	return fmt.Sprintf("ckpt-%05d-r%03d.bp", step, rank)
}

// Journal is the durable write-ahead step journal: one JSON record per
// Log frame in journal.wal. An append costs one marshalled record, one
// write and one fsync however long the run has been; a torn or corrupt
// tail is tolerated by stopping at the first bad frame.
type Journal struct {
	dir string

	mu      sync.Mutex
	log     *Log
	records []Record
	dead    bool
}

// Open creates the journal directory if needed and loads any existing
// journal, tolerating a torn tail. It creates no file: journal.wal
// appears with the first Append.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: open journal dir: %w", err)
	}
	j := &Journal{dir: dir}
	var err error
	j.log, err = OpenLog(filepath.Join(dir, journalFile), func(payload []byte) bool {
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			return false
		}
		j.records = append(j.records, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Records returns a copy of the journal's records in append order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.records...)
}

// Kill freezes the journal: every subsequent durable write becomes a
// no-op returning ErrKilled, simulating the process dying at this
// instant. State already on disk stays exactly as it is.
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dead = true
}

// Killed reports whether Kill has been called.
func (j *Journal) Killed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dead
}

// Fsyncs returns the number of fsync calls the journal has issued: one
// per record, plus the directory sync that made journal.wal's creation
// durable.
func (j *Journal) Fsyncs() int64 { return j.log.Fsyncs() }

// Append durably appends one record: it is on disk, fsynced, when
// Append returns nil. Returns ErrKilled without touching disk after
// Kill.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrKilled
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("recovery: encode record: %w", err)
	}
	if err := j.log.Append(payload); err != nil {
		return err
	}
	j.records = append(j.records, rec)
	return nil
}

// Close releases journal.wal's descriptor; the run engine calls it when
// Run or Resume returns. Records stay readable.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// State is the resume-relevant summary of a journal.
type State struct {
	// LastCommit is the highest step up to which every step 1..s has a
	// commit record (0 when nothing committed). Resume restarts the
	// live run at LastCommit+1.
	LastCommit int
	// Commits maps committed step -> its commit record.
	Commits map[int]Record
	// Checkpoints lists ckpt records in append order.
	Checkpoints []Record
	// Submitted maps step -> set of analyses with submit records —
	// work a dead process had in flight, which a resumed run counts as
	// replayed when it re-submits.
	Submitted map[int]map[string]bool
}

// Analyze folds a journal's records into a State.
func Analyze(records []Record) State {
	st := State{
		Commits:   make(map[int]Record),
		Submitted: make(map[int]map[string]bool),
	}
	for _, r := range records {
		switch r.Kind {
		case KindCommit:
			st.Commits[r.Step] = r
		case KindCheckpoint:
			st.Checkpoints = append(st.Checkpoints, r)
		case KindSubmit:
			m := st.Submitted[r.Step]
			if m == nil {
				m = make(map[string]bool)
				st.Submitted[r.Step] = m
			}
			m[r.Analysis] = true
		}
	}
	for s := 1; ; s++ {
		if _, ok := st.Commits[s]; !ok {
			break
		}
		st.LastCommit = s
	}
	return st
}

// CheckpointsFor returns the ckpt records usable to resume at
// LastCommit = step: those with Step <= step, newest first.
func (st State) CheckpointsFor(step int) []Record {
	var out []Record
	for _, r := range st.Checkpoints {
		if r.Step <= step {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Step > out[k].Step })
	return out
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, renames it into place, and fsyncs the
// directory — a crash at any instant leaves either the previous file
// or the complete new one, never a truncated mix. It is the shared
// crash-safe writer for the bp checkpoint files and the artifact
// exporters.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(e error) error {
		tmp.Close()
		os.Remove(tmpName)
		return e
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}
