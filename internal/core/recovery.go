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
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/obs"
	"insitu/internal/recovery"
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

	// Resume and Replay plans, fixed before the SPMD loop starts.
	resume     bool
	resumeFrom int                     // last contiguously committed step (≤ steps)
	ckptStep   int                     // checkpoint the ranks restore at (0 = from scratch)
	ckptFields [][]*grid.Field         // restored fields, by rank
	replay     map[int][][]*grid.Field // a Replay's steps -> checkpoint fields by rank, dropped once restored (nil: not replaying)
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

// planResume reads the journal back and fixes the resume plan: the
// last contiguously committed step, the newest checkpoint at or below
// it whose every rank file passes its CRCs (corrupt or missing files
// fall back to the next older checkpoint), and the set of
// journaled-but-uncommitted submits whose resubmission is counted as a
// replay. Committed steps need no guard: resumePrologue re-steps them
// without submitting, so none of their tasks reaches the queue again.
func (p *Pipeline) planResume(steps int) {
	rec := p.rec
	st := recovery.Analyze(rec.j.Records())
	rec.resumeFrom = st.LastCommit
	if rec.resumeFrom > steps {
		rec.resumeFrom = steps
	}
	for _, cand := range st.CheckpointsFor(rec.resumeFrom) {
		if len(cand.Files) != p.sim.Ranks() {
			continue
		}
		if fields, err := p.readCheckpoint(cand, "resume falls back past"); err == nil {
			rec.ckptStep, rec.ckptFields = cand.Step, fields
			break
		}
	}
	rec.nextCommit = rec.resumeFrom + 1
	rec.prevSubmitted = st.Submitted
	p.walk = p.walk[rec.resumeFrom:]
}

// planReplay makes the readable checkpoints at or below steps, in step
// order, the replay's step list and keeps their fields for the ranks.
// It refuses one cut for another decomposition and a journal with none.
func (p *Pipeline) planReplay(steps int) error {
	rec, dc := p.rec, p.sim.Decomp()
	cands := recovery.Analyze(rec.j.Records()).CheckpointsFor(steps)
	slices.Reverse(cands) // oldest first; of two records for one step, the newer
	rec.replay = make(map[int][][]*grid.Field, len(cands))
	p.walk = p.walk[:0]
	var skipped []error
	for _, cand := range cands {
		if _, seen := rec.replay[cand.Step]; seen {
			continue
		}
		if len(cand.Files) != dc.Ranks() {
			return fmt.Errorf("%w: checkpoint %d has %d rank files for %d ranks", ErrDecompMismatch, cand.Step, len(cand.Files), dc.Ranks())
		}
		fields, err := p.readCheckpoint(cand, "replay skips")
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		for rank, fl := range fields {
			for _, f := range fl {
				if f.Box != dc.Block(rank) {
					return fmt.Errorf("%w: checkpoint %d rank %d holds %v, the rank owns %v", ErrDecompMismatch, cand.Step, rank, f.Box, dc.Block(rank))
				}
			}
		}
		rec.replay[cand.Step] = fields
		p.walk = append(p.walk, cand.Step)
	}
	if len(p.walk) == 0 {
		return errors.Join(fmt.Errorf("%w: %s, steps 1..%d", ErrNoCheckpoint, rec.j.Dir(), steps), errors.Join(skipped...))
	}
	return nil
}

// readCheckpoint reads a checkpoint's rank files back, timed, CRCs
// checked; a file that does not read is a warning naming the plan's move.
func (p *Pipeline) readCheckpoint(cand recovery.Record, plan string) ([][]*grid.Field, error) {
	start := time.Now()
	defer func() { p.rec.readSeconds += time.Since(start).Seconds() }()
	fields := make([][]*grid.Field, len(cand.Files))
	for rank, name := range cand.Files {
		var err error
		if fields[rank], err = bp.ReadFile(filepath.Join(p.rec.j.Dir(), name)); err != nil {
			err = fmt.Errorf("core: %s checkpoint %d: rank %d unusable: %w", plan, cand.Step, rank, err)
			p.recordWarn(err)
			return nil, err
		}
	}
	return fields, nil
}

// journaling returns the recovery plane the run writes to: nil without
// one and in a replay, which writes nothing.
func (p *Pipeline) journaling() *recState {
	if p.rec == nil || p.rec.replay != nil {
		return nil
	}
	return p.rec
}

// recordWarn files a non-fatal condition the report should surface.
// Resume-time checkpoint fallbacks land here: the run still succeeds
// off an older checkpoint, but the corruption is never silent.
func (p *Pipeline) recordWarn(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.warns = append(p.warns, err)
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
// address. One field stays out of the digest because it is not a
// function of the config: the streaming topology incorporates subtrees
// in payload arrival order, so its Stream.SpliceOps work counter
// differs from run to run while the tree it builds does not.
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
			stream := r.Stream
			if r.arrivalOrdered {
				stream.SpliceOps = 0
			}
			return struct {
				Arcs     []mergetree.Arc
				Stream   mergetree.StreamStats
				Features []mergetree.Feature
			}{r.Tree.Arcs(), stream, r.Features}
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
