package core

import (
	"errors"
	"fmt"
	"hash/crc64"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/bp"
	"insitu/internal/mergetree"
	"insitu/internal/obs"
	"insitu/internal/recovery"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// RecoveryConfig enables durable run recovery: every step passes
// through a write-ahead journal (admitted → submitted → committed),
// simulation state is checkpointed to bp files every Every steps, and
// a crashed run can be continued with Resume from the last committed
// step, bit-identically to the uninterrupted run. It is also the
// "recovery" block of a pipeline config, hence the json tags.
type RecoveryConfig struct {
	// Dir holds the journal and the per-rank checkpoint files.
	Dir string `json:"dir"`
	// Every is the checkpoint cadence in steps (default 5).
	Every int `json:"every_steps,omitempty"`
	// Kill, when non-nil, is consulted at every journal phase boundary
	// on rank 0; returning true freezes all durable writes from that
	// point on, simulating a process crash for the chaos matrix. The
	// in-memory run drains normally (its unjournaled work is discarded
	// by Resume), and Run returns recovery.ErrKilled. It is not a config
	// key: only Go code (the crash matrix) sets it.
	Kill recovery.KillFunc `json:"-"`
}

// RecoveryReport summarizes the recovery plane's work during one run.
type RecoveryReport struct {
	ResumedFrom    int     // last committed step the run continued from (0 = fresh)
	CheckpointStep int     // checkpoint the simulation state was restored at
	ReplayedTasks  int64   // resubmissions of journaled-but-uncommitted tasks
	Commits        int64   // commit records appended this run
	Checkpoints    int64   // checkpoint records appended this run
	JournalFsyncs  int64   // fsync calls issued by the journal
	ResumeSeconds  float64 // wall time from Resume to first live step

	// CheckpointBytes sums the bp files every rank wrote this run.
	CheckpointBytes int64
	// CheckpointWriteSeconds is rank 0's wall time from the start of
	// its checkpoint write to the checkpoint barrier, summed over this
	// run's checkpoints: the collective file-per-process write.
	CheckpointWriteSeconds float64
	// CheckpointReadSeconds is the wall time Resume or Replay spent
	// reading checkpoint files back (0 on a fresh run).
	CheckpointReadSeconds float64
}

// recState is the pipeline's recovery plane: the journal, the
// in-order committer's cursor, and resume bookkeeping.
type recState struct {
	j     *recovery.Journal
	every int
	kill  recovery.KillFunc

	// The run's plan, fixed before the SPMD loop starts.
	mode       RunMode
	resumeFrom int                      // last contiguously committed step (≤ steps)
	ckptStep   int                      // checkpoint a Resume's ranks restore at (0 = from scratch)
	restore    map[int][]sim.Checkpoint // step -> checkpoint by rank, each dropped once its rank restored it
	// prevSubmitted holds the (step, analysis) pairs the dead process
	// journaled a submit for. Live steps start beyond resumeFrom, so
	// submitting one of them again is a replayed task.
	prevSubmitted map[int]map[string]bool
	t0            time.Time

	mu          sync.Mutex
	nextCommit  int     // lowest uncommitted step
	maxStepped  int     // highest step whose submissions are all in
	readSeconds float64 // the plan's checkpoint reads

	// commitMu makes the commit loop single-flight: the step loop and
	// the drain goroutine may both observe a step become commit-ready,
	// and without it both would journal a commit record for it.
	commitMu sync.Mutex

	// Wall times in ns: from Resume to rank 0's first live step, and
	// rank 0's checkpoint writes to the barrier.
	resumeWall atomic.Int64
	writeWall  atomic.Int64

	replayed  atomic.Int64
	commits   atomic.Int64
	ckpts     atomic.Int64
	ckptBytes atomic.Int64
}

// recKill consults the injected kill function at one phase boundary
// and, on a hit, freezes the journal — everything before this call is
// durable, everything after is lost, exactly like a crash between the
// two writes.
func (p *Pipeline) recKill(phase recovery.Phase, step int) {
	rec := p.rec
	if rec.kill == nil || rec.j.Killed() {
		return
	}
	if rec.kill(phase, step) {
		rec.j.Kill()
		p.event(obs.CatSim, "recovery", "recovery.kill", obs.Str("phase", phase.String()), obs.Int("step", step))
	}
}

// plan fixes, before the rank loops start, where a Resume's or a
// Replay's steps come from. It reads the checkpoints at or below its
// last step back, newest first, each once (readCheckpoint), and passes
// over with a warning one that fails its CRCs or its check. A Resume
// restores the newest usable checkpoint K at or below the last
// contiguously committed step C (none: from scratch) and re-steps to C
// without submitting, so no committed task reaches the queue again; a
// resubmitted journaled-but-uncommitted submit counts as replayed. A
// Replay walks every usable checkpoint in step order, and is refused
// with ErrNoCheckpoint when none is left.
func (p *Pipeline) plan(steps int, mode RunMode) error {
	rec := p.rec
	rec.mode, rec.t0 = mode, time.Now()
	if mode == RunFresh {
		return nil
	}
	st := recovery.Analyze(rec.j.Records())
	last, move := steps, "replay skips"
	if mode == RunResume {
		rec.resumeFrom = min(st.LastCommit, steps)
		last, move = rec.resumeFrom, "resume falls back past"
		rec.nextCommit = rec.resumeFrom + 1
		rec.prevSubmitted = st.Submitted
		p.walk = p.walk[rec.resumeFrom:]
	}
	rec.restore = make(map[int][]sim.Checkpoint)
	var planned []int
	for _, cand := range st.CheckpointsFor(last) {
		if _, seen := rec.restore[cand.Step]; seen {
			continue
		}
		cks, err := p.readCheckpoint(cand, move)
		if err != nil {
			p.warns = append(p.warns, err)
			continue
		}
		rec.restore[cand.Step] = cks
		if mode == RunResume {
			rec.ckptStep = cand.Step
			break
		}
		planned = append(planned, cand.Step)
	}
	if mode == RunResume {
		return nil
	}
	if len(planned) == 0 {
		return errors.Join(fmt.Errorf("%w: %s, steps 1..%d", ErrNoCheckpoint, rec.j.Dir(), steps), errors.Join(p.warns...))
	}
	slices.Reverse(planned)
	p.walk = planned
	return nil
}

// readCheckpoint reads a checkpoint's rank files back, timed, CRCs
// checked, and runs sim.CheckCheckpoint on each rank's fields, so every
// rank restores a checkpoint it returns. Its error names the plan's
// move, and wraps ErrDecompMismatch for another decomposition.
func (p *Pipeline) readCheckpoint(cand recovery.Record, move string) ([]sim.Checkpoint, error) {
	start := time.Now()
	defer func() { p.rec.readSeconds += time.Since(start).Seconds() }()
	if n := p.sim.Ranks(); len(cand.Files) != n {
		return nil, fmt.Errorf("core: %s checkpoint %d: %w: %d rank files for %d ranks", move, cand.Step, ErrDecompMismatch, len(cand.Files), n)
	}
	cks := make([]sim.Checkpoint, len(cand.Files))
	for rank, name := range cand.Files {
		fields, err := bp.ReadFile(filepath.Join(p.rec.j.Dir(), name))
		if err == nil {
			cks[rank], err = p.sim.CheckCheckpoint(rank, cand.Step, fields)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s checkpoint %d: rank %d unusable: %w", move, cand.Step, rank, err)
		}
	}
	return cks, nil
}

// journaling returns the recovery plane the run writes to: nil without
// one and in a replay, which writes nothing.
func (p *Pipeline) journaling() *recState {
	if p.rec == nil || p.rec.mode == RunReplay {
		return nil
	}
	return p.rec
}

// noteStepped tells the committer every submission for step is in, and
// tries to advance the commit cursor.
func (p *Pipeline) noteStepped(step int) {
	rec := p.rec
	rec.mu.Lock()
	if step > rec.maxStepped {
		rec.maxStepped = step
	}
	rec.mu.Unlock()
	p.maybeCommitSteps()
}

// maybeCommitSteps advances the in-order commit cursor: a step commits
// once it has fully stepped and every due hybrid analysis has a stored
// result. The commit record carries a digest of each result, so a
// resumed run can be checked for bit-identical convergence against the
// original. Called from rank 0's step loop and from the drain
// goroutine; rec.mu is never held across p.mu or a journal append.
func (p *Pipeline) maybeCommitSteps() {
	rec := p.journaling()
	if rec == nil {
		return
	}
	rec.commitMu.Lock()
	defer rec.commitMu.Unlock()
	for {
		rec.mu.Lock()
		s := rec.nextCommit
		stepped := s <= rec.maxStepped
		rec.mu.Unlock()
		if !stepped {
			return
		}
		digests, ready := p.commitDigests(s)
		if !ready {
			return
		}
		r := recovery.Record{Kind: recovery.KindCommit, Step: s, Digests: digests}
		if err := rec.j.Append(r); err != nil {
			return // journal dead: nothing after this point is durable
		}
		rec.commits.Add(1)
		rec.mu.Lock()
		if s >= rec.nextCommit {
			rec.nextCommit = s + 1
		}
		rec.mu.Unlock()
		p.recKill(recovery.PhasePostCommit, s)
	}
}

// commitDigests reports whether step s is commit-ready — every due
// hybrid analysis has drained to a stored result — and digests every
// due analysis result present at s.
func (p *Pipeline) commitDigests(s int) (map[string]string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	digests := make(map[string]string)
	for _, rt := range p.routes {
		if !rt.due(s) {
			continue
		}
		out, ok := rt.results[s]
		if rt.stage != nil && !ok {
			return nil, false
		}
		if ok {
			digests[rt.name] = ResultDigest(out)
		}
	}
	return digests, true
}

// ResultDigest hashes a stored analysis result into the short stable
// token the recovery journal commits — exported so equivalence tests can
// compare whole runs result by result without depending on the journal:
// two runs of one config agree digest for digest. %v formatting
// is deterministic for the value shapes analyses store (fmt sorts map
// keys), and byValue first replaces what %v would print as a heap
// address.
func ResultDigest(v any) string {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	fmt.Fprintf(h, "%v", byValue(v))
	return fmt.Sprintf("%016x", h.Sum64())
}

// byValue returns the form of a result that %v prints without heap
// addresses: a top-level pointer is dereferenced, a topology result's
// tree (a graph of node pointers) is stood in for by its sorted arc
// list, a contingency result's table by its encoding, and a Degraded
// wrapper by its value's form.
func byValue(v any) any {
	switch r := v.(type) {
	case Degraded:
		r.Value = byValue(r.Value)
		return r
	case *TopologyResult:
		if r != nil && r.Tree != nil {
			return struct {
				Arcs     []mergetree.Arc
				Stream   mergetree.StreamStats
				Features []mergetree.Feature
			}{r.Tree.Arcs(), r.Stream, r.Features}
		}
	case *ContingencyResult:
		if r != nil && r.Table != nil {
			return struct {
				VarX, VarY string
				Derived    stats.ContingencyDerived
				Table      []byte
			}{r.VarX, r.VarY, r.Derived, r.Table.AppendMarshal(nil)}
		}
	}
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		return rv.Elem().Interface()
	}
	return v
}

// recoveryReport snapshots the plane for the run report.
func (rec *recState) report() *RecoveryReport {
	return &RecoveryReport{
		ResumedFrom:            rec.resumeFrom,
		CheckpointStep:         rec.ckptStep,
		ReplayedTasks:          rec.replayed.Load(),
		Commits:                rec.commits.Load(),
		Checkpoints:            rec.ckpts.Load(),
		JournalFsyncs:          rec.j.Fsyncs(),
		ResumeSeconds:          time.Duration(rec.resumeWall.Load()).Seconds(),
		CheckpointBytes:        rec.ckptBytes.Load(),
		CheckpointWriteSeconds: time.Duration(rec.writeWall.Load()).Seconds(),
		CheckpointReadSeconds:  rec.readSeconds,
	}
}

// markResumed records the resume latency when rank 0 reaches its first
// live step.
func (rec *recState) markResumed() { rec.resumeWall.Store(int64(time.Since(rec.t0))) }
