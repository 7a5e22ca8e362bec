package workload

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"insitu/internal/core"
	"insitu/internal/recovery"
	"insitu/internal/registry"
)

// crashMatrixRun builds examples/configs/crashmatrix.json journaling into
// dir, with kill as the injected crash (nil for the golden run and for
// resumes).
func crashMatrixRun(t *testing.T, dir string, kill recovery.KillFunc) *registry.Built {
	t.Helper()
	cfg := loadExample(t, "crashmatrix")
	cfg.Recovery.Dir, cfg.Recovery.Kill = dir, kill
	return buildExample(t, cfg)
}

// cmGolden is the uninterrupted run every crash cell must converge to.
type cmGolden struct {
	steps   int
	rep     *core.Report
	digests map[int]map[string]string // step -> analysis -> result digest
	ckpts   map[string][]byte         // final-step checkpoint file -> bytes
}

func goldenCrashRun(t *testing.T) *cmGolden {
	t.Helper()
	dir := t.TempDir()
	b := crashMatrixRun(t, dir, nil)
	p, steps := b.Pipeline, b.Config.Steps
	rep, err := p.Run(steps)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	if rep.Recovery == nil || rep.Recovery.Commits != int64(steps) {
		t.Fatalf("golden run: recovery = %+v, want %d commits", rep.Recovery, steps)
	}
	g := &cmGolden{
		steps:   steps,
		rep:     rep,
		digests: make(map[int]map[string]string),
		ckpts:   make(map[string][]byte),
	}
	j, err := recovery.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := recovery.Analyze(j.Records())
	if st.LastCommit != steps {
		t.Fatalf("golden journal: last commit %d, want %d", st.LastCommit, steps)
	}
	for s, c := range st.Commits {
		g.digests[s] = c.Digests
	}
	for rank := 0; rank < p.Sim().Ranks(); rank++ {
		name := recovery.CheckpointFile(steps, rank)
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("golden checkpoint: %v", err)
		}
		g.ckpts[name] = data
	}
	return g
}

// assertClean checks the leak invariants the matrix demands of every
// run, crashed or resumed: zero pinned payload regions and a fully
// re-settled credit account.
func assertClean(t *testing.T, label string, p *core.Pipeline) {
	t.Helper()
	if n := p.PinnedRegions(); n != 0 {
		t.Errorf("%s: %d pinned regions leaked", label, n)
	}
	if c := p.Credits(); c != nil {
		if c.Available() != c.Total() || c.Outstanding() != 0 {
			t.Errorf("%s: credits leaked: available %d / total %d, outstanding %d",
				label, c.Available(), c.Total(), c.Outstanding())
		}
	}
}

// assertConverged checks one crash cell's resumed run against the
// golden: every step durably committed with identical result digests,
// every live step's stored result deep-equal to the golden's, and the
// final checkpoint files byte-identical.
func assertConverged(t *testing.T, g *cmGolden, dir string, p2 *core.Pipeline, rep2 *core.Report) {
	t.Helper()
	j, err := recovery.Open(dir)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	st := recovery.Analyze(j.Records())
	if st.LastCommit != g.steps {
		t.Errorf("journal: last commit %d, want %d", st.LastCommit, g.steps)
	}
	for s := 1; s <= g.steps; s++ {
		c, ok := st.Commits[s]
		if !ok {
			t.Errorf("step %d never committed", s)
			continue
		}
		if !reflect.DeepEqual(c.Digests, g.digests[s]) {
			t.Errorf("step %d digests diverge: got %v, golden %v", s, c.Digests, g.digests[s])
		}
	}
	from := rep2.Recovery.ResumedFrom
	for name, m := range g.rep.Results {
		for s, want := range m {
			if s <= from {
				continue
			}
			if got := rep2.Results[name][s]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s@%d: resumed result diverges from golden", name, s)
			}
		}
	}
	for name, want := range g.ckpts {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("final checkpoint %s: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("final checkpoint %s differs from golden", name)
		}
	}
	assertClean(t, "resumed", p2)
}

// TestCrashMatrix is the recovery plane's chaos gate, run on
// examples/configs/crashmatrix.json: the journaled, checkpointing hybrid
// run is killed at every journal phase boundary — before the step's
// admit record, between the per-route submit records, after the
// checkpoint files but before their journal record, and right after a
// commit — at early, middle, and final steps, then resumed, and must
// converge bit-identically to the golden run (per-step commit digests,
// live results, final checkpoint files) with zero resource leaks — and,
// for the corruption cell, fall back cleanly to the next older
// checkpoint when the newest one fails its CRCs.
//
// Why the file is tuned as it is: the delta codec covers every route, so
// a resume must re-anchor base state correctly; and overload control is
// armed with thresholds nothing can reach, so the admission ladder
// deterministically holds every step at the full rung while the credit
// account stays live — the matrix can then assert that credits
// re-settle exactly once across a crash/resume pair. The cells' steps
// assume the file's 10 steps and checkpoint cadence of 2.
func TestCrashMatrix(t *testing.T) {
	g := goldenCrashRun(t)

	cells := []struct {
		phase recovery.Phase
		step  int
	}{
		{recovery.PhasePreAdmit, 1}, {recovery.PhasePreAdmit, 5}, {recovery.PhasePreAdmit, 10},
		{recovery.PhaseMidSubmit, 2}, {recovery.PhaseMidSubmit, 5}, {recovery.PhaseMidSubmit, 10},
		{recovery.PhaseMidCheckpoint, 2}, {recovery.PhaseMidCheckpoint, 6}, {recovery.PhaseMidCheckpoint, 10},
		{recovery.PhasePostCommit, 1}, {recovery.PhasePostCommit, 5}, {recovery.PhasePostCommit, 10},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(fmt.Sprintf("%s@%d", cell.phase, cell.step), func(t *testing.T) {
			// Cells are independent: each owns its journal directory and
			// only reads the shared golden. Running them in parallel keeps
			// the 13-cell matrix inside a tolerable wall-clock budget.
			t.Parallel()
			dir := t.TempDir()
			p1 := crashMatrixRun(t, dir, recovery.KillAt(cell.phase, cell.step)).Pipeline
			_, err := p1.Run(g.steps)
			if !errors.Is(err, recovery.ErrKilled) {
				t.Fatalf("crashed run: err = %v, want ErrKilled", err)
			}
			assertClean(t, "crashed", p1)

			p2 := crashMatrixRun(t, dir, nil).Pipeline
			rep2, err := p2.Resume(g.steps)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if cell.phase == recovery.PhaseMidSubmit && rep2.Recovery.ReplayedTasks < 1 {
				t.Errorf("mid-submit cell replayed %d tasks, want >= 1", rep2.Recovery.ReplayedTasks)
			}
			assertConverged(t, g, dir, p2, rep2)
		})
	}

	t.Run("corrupt-checkpoint-fallback", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		p1 := crashMatrixRun(t, dir, recovery.KillAt(recovery.PhasePostCommit, 6)).Pipeline
		_, err := p1.Run(g.steps)
		if !errors.Is(err, recovery.ErrKilled) {
			t.Fatalf("crashed run: err = %v, want ErrKilled", err)
		}
		// Bit-flip a payload byte of the newest checkpoint's rank-0
		// file: resume must reject it on CRC and fall back to step 4.
		victim := filepath.Join(dir, recovery.CheckpointFile(6, 0))
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		data[64] ^= 0x01
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}

		p2 := crashMatrixRun(t, dir, nil).Pipeline
		rep2, err := p2.Resume(g.steps)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if rep2.Recovery.ResumedFrom != 6 {
			t.Errorf("resumed from %d, want 6", rep2.Recovery.ResumedFrom)
		}
		if rep2.Recovery.CheckpointStep != 4 {
			t.Errorf("restored at checkpoint %d, want fallback to 4", rep2.Recovery.CheckpointStep)
		}
		if len(rep2.Warnings) == 0 {
			t.Error("checkpoint fallback produced no warning")
		}
		assertConverged(t, g, dir, p2, rep2)
	})
}
