package core

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"insitu/internal/bufpool"
	"insitu/internal/grid"
	"insitu/internal/mergetree"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

// driveInSitu steps a 2-rank simulation and calls each(ctx, step) on
// every rank after every step, between two barriers — the in-situ slot
// of the rank loop, without the transit tier behind it.
func driveInSitu(t testing.TB, steps int, each func(ctx *Ctx, step int)) {
	t.Helper()
	cfg := sim.DefaultConfig(grid.NewBox(32, 16, 12), 2, 1, 1)
	cfg.KernelRate = 0.6
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.RunAll(s, func(rk *sim.Rank) error {
		r := rk.Comm()
		ctx := &Ctx{Comm: r, Sim: rk, Global: cfg.Global, Owned: rk.OwnedBox(), Decomp: s.Decomp(), State: make(map[string]any)}
		for step := 1; step <= steps; step++ {
			rk.Step()
			ctx.Step = step
			r.Barrier()
			each(ctx, step)
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// inSituStageAllocs steps a 2-rank simulation for steps steps and runs
// the stages in the in-situ slot, each alone between barriers. It
// returns, per stage and step, the bytes and objects that stage
// allocated on both ranks, and the size of one rank's block.
//
// Each payload goes back to the buffer pool once every stage of the
// step has been measured, as the pipeline recycles it after the pull.
// Before the first step every class up to 64 KiB is given one idle
// buffer per payload a step can hold, the slack a running pipeline's
// pool keeps: a stage whose payload changes class (the subtree shrinks
// as the field smooths) then takes no buffer another stage's payload
// came back in, and each stage's count is its own. The pool's free
// lists never drop a buffer at a collection, so the measurement is the
// same on every run, under -race too. The
// collector is off while the ranks run, and they run on one P: a
// collection empties the runtime's caches of blocked-goroutine
// records, and with two Ps those records drift from one P's cache to
// the other's, so a barrier would allocate one now and then. (The
// worker pool keeps the width it was sized to at start-up.)
func inSituStageAllocs(t *testing.T, steps int, stages []HybridAnalysis) (allocBytes, allocObjs [][]uint64, blockBytes uint64) {
	allocBytes, allocObjs = make([][]uint64, len(stages)), make([][]uint64, len(stages))
	for i := range stages {
		allocBytes[i], allocObjs[i] = make([]uint64, steps+1), make([]uint64, steps+1)
	}
	var m0, m1 runtime.MemStats
	payloads := [2][][]byte{make([][]byte, len(stages)), make([][]byte, len(stages))} // [rank][stage]
	for n := 256; n <= 64<<10; n *= 2 {
		spare := make([][]byte, 2*len(stages))
		for i := range spare {
			spare[i] = bufpool.Get(n)
		}
		for _, b := range spare {
			bufpool.Put(b)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	driveInSitu(t, steps, func(ctx *Ctx, step int) {
		rank0 := ctx.Comm.ID() == 0
		if rank0 {
			blockBytes = uint64(8 * ctx.Owned.Size())
		}
		for i, stage := range stages {
			if rank0 {
				runtime.ReadMemStats(&m0)
			}
			ctx.Comm.Barrier()
			payload, err := stage.InSituStage(ctx)
			if err != nil {
				t.Error(err)
			}
			payloads[ctx.Comm.ID()][i] = payload
			ctx.Comm.Barrier()
			if rank0 {
				runtime.ReadMemStats(&m1)
				allocBytes[i][step] = m1.TotalAlloc - m0.TotalAlloc
				allocObjs[i][step] = m1.Mallocs - m0.Mallocs
			}
		}
		ctx.Comm.Barrier()
		for _, p := range payloads[ctx.Comm.ID()] {
			bufpool.Put(p)
		}
	})
	return allocBytes, allocObjs, blockBytes
}

// TestInSituStagesAllocateFlat is the O(1) guard of the in-situ read
// path: the hybrid stats, topology, viz, auto-correlation and
// contingency stages of both ranks together allocate no more around
// step 30 than around step 5 (at most 1.25x), and less than one copy of
// one rank's block — they read the simulation's memory, they do not
// extract it. Before, the statistics stage alone copied 14 blocks per
// rank per step, the subtree sweep built a node and a map entry per
// cell, the viz stage built the down-sampled block before marshalling it
// and the auto-correlation stage copied the block twice. A step's cost
// is what all stages allocate in it, taken at the cheapest whole step of
// a window (steps 3-12 and 23-32), so a stage that copies on one step
// and another stage that copies on the next still fail.
//
// Once warm, the statistics, auto-correlation and contingency stages
// allocate nothing at all: the statistics stage learns into the rank's
// model in Ctx.State (before, it built a model, an accumulator per
// variable and a payload every step, some 30 objects a rank), the
// auto-correlation stage packs its accumulators straight into the
// pooled buffer (before, a bytes.Buffer and a slice per lag, 4 objects
// on two ranks), the contingency stage bins into the rank's table in
// Ctx.State (before, a table every step, 4 objects on two ranks), and
// each payload buffer is the one the last payload came back in.
func TestInSituStagesAllocateFlat(t *testing.T) {
	const steps = 32
	stages := []HybridAnalysis{&StatsHybrid{}, NewTopologyHybrid(), NewVizHybrid(64, 48, 1), NewVizHybrid(64, 48, 8), &AutoCorrHybrid{Lags: []int{1, 2}}, &ContingencyHybrid{}}
	allocBytes, allocObjs, blockBytes := inSituStageAllocs(t, steps, stages)
	totals := make([]uint64, steps+1) // [step], all stages
	for i := range stages {
		for step, b := range allocBytes[i] {
			totals[step] += b
		}
	}
	early, late := slices.Min(totals[3:13]), slices.Min(totals[23:33])
	if late >= blockBytes {
		t.Errorf("in-situ stages allocate %d B a step, a copy of one rank's block is %d B: they are copying what they only read", late, blockBytes)
	}
	if float64(late) > 1.25*float64(early) {
		t.Errorf("in-situ stages allocate %d B around step 30, %d B around step 5: the cost of a step grows", late, early)
	}
	for _, i := range []int{0, 4, 5} {
		for step, objs := range allocObjs[i][3:] {
			if objs != 0 {
				t.Errorf("the warm %s stage allocates %d objects at step %d on two ranks, want 0", stages[i].Name(), objs, step+3)
			}
		}
	}
}

// TestInSituStagesMatchCopies: what the stages learn, sweep, sample
// and correlate in place is, byte for byte, what they produced from
// rk.Field copies, a fresh tree per step, a down-sampled field and a
// correlator whose ring holds its own copies.
func TestInSituStagesMatchCopies(t *testing.T) {
	st, cont, topo := &StatsHybrid{}, &ContingencyHybrid{}, NewTopologyHybrid()
	viz1, viz8 := NewVizHybrid(64, 48, 1), NewVizHybrid(64, 48, 8)
	ac := &AutoCorrHybrid{Lags: []int{1, 2}}
	driveInSitu(t, 4, func(ctx *Ctx, step int) {
		model := stats.NewModel()
		for _, v := range sim.VarNames {
			model.LearnFieldParallel(ctx.Sim.Field(v))
		}
		table, _ := stats.NewContingency(0, 2.5, 16, 0, 0.3, 16)
		if err := table.UpdateBatch(ctx.Sim.Field("T").Data, ctx.Sim.Field("Y_OH").Data); err != nil {
			t.Error(err)
		}
		ext := ctx.Owned.Grow(1).Intersect(ctx.Global)
		subtree, err := mergetree.LocalSubtree(ctx.Sim.GhostedField("T").Extract(ext), ctx.Global, ctx.Owned, ctx.Comm.ID(), mergetree.KeepOverlapMaxima)
		if err != nil {
			t.Error(err)
			return
		}
		ref, ok := ctx.State["autocorr-ref"].(*stats.AutoCorrelator)
		if !ok {
			ref, _ = stats.NewAutoCorrelator(ac.Lags...)
			ctx.State["autocorr-ref"] = ref
		}
		ref.Push(ctx.Sim.Field("T").Data)
		owned := ctx.Sim.GhostedField("T").Extract(ctx.Owned)
		for _, c := range []struct {
			stage HybridAnalysis
			want  []byte
		}{
			{st, model.AppendMarshal(nil)}, {cont, table.AppendMarshal(nil)}, {topo, subtree.AppendMarshal(nil)},
			{viz1, downsampled(owned, 1).Marshal()}, {viz8, downsampled(owned, 8).Marshal()},
			{ac, ref.AppendMarshal(nil)},
		} {
			got, err := c.stage.InSituStage(ctx)
			if err != nil {
				t.Error(err)
				continue
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("step %d rank %d: %s payload differs from the one built from copies", step, ctx.Comm.ID(), c.stage.Name())
			}
			bufpool.Put(got)
		}
	})
}

// downsampled is f at every factor-th global grid point, as a field on
// the down-sampled index space, by a plain loop over At.
func downsampled(f *grid.Field, factor int) *grid.Field {
	var sub grid.Box
	for d := 0; d < 3; d++ {
		sub.Lo[d] = (f.Box.Lo[d] + factor - 1) / factor
		sub.Hi[d] = (f.Box.Hi[d] + factor - 1) / factor
	}
	g := grid.NewField(f.Name, sub)
	for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
		for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
			for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
				g.Set(i, j, k, f.At(i*factor, j*factor, k*factor))
			}
		}
	}
	return g
}

// TestAutoCorrRingRecycledAcrossRuns: the ring slots of a pipeline
// run's auto-correlation route go back when its rank loops end, and a
// second run of the stage fills its ring with them: over the steps
// that fill the ring both ranks together allocate less than one slot.
func TestAutoCorrRingRecycledAcrossRuns(t *testing.T) {
	const steps = 3
	ac := &AutoCorrHybrid{Lags: []int{1, 2}}
	simCfg := sim.DefaultConfig(grid.NewBox(32, 16, 12), 2, 1, 1) // driveInSitu's decomposition
	simCfg.KernelRate = 0.6
	p, err := NewPipeline(DefaultConfig(simCfg))
	if err != nil {
		t.Fatal(err)
	}
	p.Register(ac)
	if _, err := p.Run(steps); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	var allocBytes, slotBytes uint64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	driveInSitu(t, len(ac.Lags), func(ctx *Ctx, step int) {
		rank0 := ctx.Comm.ID() == 0
		if rank0 {
			slotBytes = uint64(8 * ctx.Owned.Size())
			runtime.ReadMemStats(&m0)
		}
		ctx.Comm.Barrier()
		payload, err := ac.InSituStage(ctx)
		if err != nil {
			t.Error(err)
		}
		ctx.Comm.Barrier()
		if rank0 {
			runtime.ReadMemStats(&m1)
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		bufpool.Put(payload)
	})
	if allocBytes >= slotBytes {
		t.Errorf("after a pipeline run, the auto-correlation stage allocates %d B filling its ring, one ring slot is %d B: the run's slots were not handed back", allocBytes, slotBytes)
	}
}
