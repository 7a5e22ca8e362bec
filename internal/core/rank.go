package core

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"insitu/internal/bp"
	"insitu/internal/bufpool"
	"insitu/internal/codec"
	"insitu/internal/comm"
	"insitu/internal/dart"
	"insitu/internal/dataspaces"
	"insitu/internal/grid"
	"insitu/internal/obs"
	"insitu/internal/overload"
	"insitu/internal/recovery"
	"insitu/internal/sim"
)

// rankRun is one simulation rank's pass through the Fig. 5 stages: the
// state that lives across steps — the rank's block of the simulation,
// its DART endpoint, the analysis context, the per-route codec keys —
// plus the admission verdicts of the step in flight. Both slices are
// indexed like Pipeline.routes.
type rankRun struct {
	p   *Pipeline
	r   *comm.Rank
	rk  *sim.Rank
	ep  *dart.Endpoint
	ctx *Ctx
	// codecKeys holds one key per hybrid route (analysis × rank — one
	// producer stream each), precomputed so the hot loop does not build
	// strings. The key carries the tenant's prefix: the codec registry
	// is shared, and two tenants running the same analysis must not
	// chain their delta streams.
	codecKeys []string

	// Set by admit, read by the stages after it. A route with no
	// verdict holds the zero decision: full level, not credited, not a
	// probe.
	decisions []admitDecision
}

// rankLoop is one rank's simulation + in-situ schedule: the stages of
// Fig. 5, once per step of p.walk. However it ends, killed too, it
// hands the rank's sim storage and in-situ merge-tree scratch back.
func (p *Pipeline) rankLoop(r *comm.Rank) error {
	rr, err := p.newRankRun(r)
	if err != nil {
		return err
	}
	defer func() {
		rr.rk.Release()
		putSubtreeScratch(rr.ctx)
	}()
	rr.resumePrologue()
	for _, step := range p.walk {
		if killed := rr.journalAdmit(step); killed {
			return nil
		}
		whole := rr.begin(stageStep, "", step)
		solver := rr.begin(stageSim, "", step)
		rr.simStep(step)
		rr.end(solver)
		rr.ctx.Step = step
		rr.admit(step)
		if staged := rr.inSitu(step); staged {
			rr.submit(step)
		}
		rr.checkpointCommit(step)
		rr.end(whole)
	}
	return nil
}

// A stage is one timed part of a rank's step. begin and end are the
// rank's stage seam: the only clock reads that time a stage, and the
// only writers of the sinks its kind feeds (DESIGN.md §5d).
type stage struct {
	kind  stageKind
	route string
	step  int
	start time.Time
}

type stageKind uint8

const (
	stageSim        stageKind = iota // simStep: the collector's sim time, rank 0's sim.step span
	stageInSitu                      // an in-situ route, a hybrid reduction or fallback: the collector's in-situ time
	stageStep                        // the whole step: the collector's step wall, the step-wall histogram
	stageCheckpoint                  // the checkpoint write, to rank 0's barrier: the recovery report's write time
)

// begin opens a stage of a kind, for a route ("" for none) and a step.
func (rr *rankRun) begin(kind stageKind, route string, step int) stage {
	return stage{kind, route, step, time.Now()}
}

// end closes s and writes its record to every sink of its kind.
func (rr *rankRun) end(s stage) {
	p, end := rr.p, time.Now()
	d := end.Sub(s.start)
	switch s.kind {
	case stageSim:
		p.col.RecordSimStep(s.step, d)
		if pl := p.sched.plane; pl != nil && rr.r.ID() == 0 {
			pl.Recorder().Record(0, obs.CatSim, "sim", "sim.step", s.start, end,
				append([]obs.Attr{obs.Int("step", s.step)}, p.labels...)...)
		}
	case stageInSitu:
		p.col.RecordInSitu(s.route, s.step, d)
	case stageStep:
		p.col.RecordStepWall(s.step, d)
		if p.stepWall != nil {
			p.stepWall.Observe(d.Seconds())
		}
	case stageCheckpoint:
		p.rec.writeWall.Add(int64(d))
	}
}

func (p *Pipeline) newRankRun(r *comm.Rank) (*rankRun, error) {
	rk, err := p.sim.NewRank(r)
	if err != nil {
		return nil, err
	}
	rr := &rankRun{
		p: p, r: r, rk: rk,
		ep: p.rankEps[r.ID()],
		ctx: &Ctx{
			Comm:   r,
			Sim:    rk,
			Global: p.cfg.Sim.Global,
			Owned:  rk.OwnedBox(),
			Decomp: p.sim.Decomp(),
			State:  make(map[string]any),
		},
		codecKeys: make([]string, len(p.routes)),
		decisions: make([]admitDecision, len(p.routes)),
	}
	for i, rt := range p.routes {
		if rt.stage != nil {
			rr.codecKeys[i] = codec.Key(p.prefix+rt.name, r.ID())
		}
	}
	return rr, nil
}

// resumePrologue brings a Resume's ranks to the first live step: it
// runs the sim stage from the checkpoint step K through the last
// committed step C (at K the restore of the planned checkpoint, then
// the solver's steps) without submitting anything (so no committed
// task runs twice), so live stepping starts just past the commit line.
// When a live step follows, it re-seeds the base of every route
// configured for the delta codec with the payload the committed
// boundary step produced. Only delta needs it: a quantize route's
// consumer never held the raw values, so its first live frame is
// spatial-only, and its levels are the same either way.
func (rr *rankRun) resumePrologue() {
	p, rec := rr.p, rr.p.rec
	if rec == nil || rec.mode != RunResume {
		return
	}
	for s := max(rec.ckptStep, 1); s <= rec.resumeFrom; s++ {
		rr.simStep(s)
	}
	if rec.resumeFrom >= 1 && len(p.walk) > 0 {
		rr.ctx.Step = rec.resumeFrom
		for i, rt := range p.routes {
			if rt.stage == nil || rt.spec.ID != codec.Delta || !rt.due(rec.resumeFrom) {
				continue
			}
			payload, err := rt.stage.InSituStage(rr.ctx)
			if err != nil {
				p.recordErr(fmt.Errorf("core: resume reseed %s rank %d: %w", rt.name, rr.r.ID(), err))
				continue
			}
			p.sched.codecs.SeedBase(rr.codecKeys[i], rec.resumeFrom, payload)
			bufpool.Put(payload)
		}
	}
	if rr.r.ID() == 0 {
		rec.markResumed()
	}
}

// simStep is the sim stage: the restore of the rank's checkpoint the
// plan holds for step (every step of a Replay, the checkpoint step of
// a Resume), else the solver's step. The plan checked the checkpoint,
// so every rank restores it and meets the others in Restore's halo
// exchange.
func (rr *rankRun) simStep(step int) {
	if rec := rr.p.rec; rec != nil {
		if cks, ok := rec.restore[step]; ok {
			id := rr.r.ID()
			rr.rk.Restore(cks[id])
			cks[id] = sim.Checkpoint{} // pasted: the fields can go
			return
		}
	}
	rr.rk.Step()
}

// journalAdmit is the journal phase boundary at the top of a step. A
// kill injected here (or left behind by the drain goroutine's
// post-commit boundary) stops every rank together before the step runs
// — ranks never diverge on collectives; otherwise rank 0 journals the
// step as admitted.
func (rr *rankRun) journalAdmit(step int) (killed bool) {
	p, rec := rr.p, rr.p.journaling()
	if rec == nil {
		return false
	}
	if rr.r.ID() == 0 {
		p.recKill(recovery.PhasePreAdmit, step)
	}
	if rr.r.Broadcast(0, rec.j.Killed()).(bool) {
		return true
	}
	if rr.r.ID() == 0 {
		if err := rec.j.Append(recovery.Record{Kind: recovery.KindAdmit, Step: step}); err != nil && !errors.Is(err, recovery.ErrKilled) {
			p.recordErr(fmt.Errorf("core: journal admit step %d: %w", step, err))
		}
	}
	return false
}

// admit decides how this step's hybrid work may use the transit tier.
// With an admission plane, rank 0 runs the breaker + ladder pass to
// reach one verdict per due hybrid route and broadcasts them so every
// rank takes the same branch (the in-situ fallbacks use collectives).
// Without one every due route is simply submitted.
func (rr *rankRun) admit(step int) {
	p, r := rr.p, rr.r
	clear(rr.decisions)
	if p.ov == nil || !slices.ContainsFunc(p.routes, func(rt *route) bool { return rt.stage != nil && rt.due(step) }) {
		return
	}
	var decs []admitDecision
	if r.ID() == 0 {
		decs = p.admitStep(rr.ep, step)
	}
	copy(rr.decisions, r.Broadcast(0, decs).([]admitDecision))
}

// inSitu runs every analysis due at this step on the rank: in-situ
// analyses to completion, hybrid ones through reduceEncodeRegister. It
// reports whether any hybrid route staged data for the transit tier.
func (rr *rankRun) inSitu(step int) (staged bool) {
	for i, rt := range rr.p.routes {
		if !rt.due(step) {
			continue
		}
		if rt.stage != nil {
			staged = rr.reduceEncodeRegister(i, step) || staged
		} else if out, store := rr.runInSitu(rt, step, "in-situ"); store && out != nil {
			rr.p.storeResult(rt, step, out)
		}
	}
	return staged
}

// runInSitu runs one route's step to completion on the ranks: an
// in-situ route, or a hybrid route's in-situ rung (RunFallback, when
// the analysis has one). It reports whether rank 0 should store the
// output. Analysis errors are recorded but never abort the rank: a rank
// that stops stepping would deadlock the others' collectives, so the
// loop always keeps participating.
func (rr *rankRun) runInSitu(rt *route, step int, what string) (out any, store bool) {
	var err error
	s := rr.begin(stageInSitu, rt.name, step)
	if rt.inSitu != nil {
		out, err = rt.inSitu(rr.ctx)
	}
	rr.end(s)
	if err != nil {
		rr.p.recordErr(fmt.Errorf("core: %s %s step %d rank %d: %w", what, rt.name, step, rr.r.ID(), err))
	}
	return out, err == nil && rr.r.ID() == 0
}

// reduceEncodeRegister is one hybrid route's in-situ half for a step:
// apply the admission verdict (shed, fall back in-situ, or pick the
// shaped stage and the rung's codec), run the in-situ reduction, encode
// the payload, pin it on the rank's endpoint and announce it to
// DataSpaces. It reports whether the route heads for the transit tier —
// true even when the stage then fails, because the other ranks still
// meet at the data-ready barrier.
func (rr *rankRun) reduceEncodeRegister(i, step int) bool {
	p, r := rr.p, rr.r
	rt, dec := p.routes[i], rr.decisions[i]
	switch dec.Level {
	case overload.LevelShed:
		// Shed: no work at all this step, only an explicit
		// marker so the step is never silently missing.
		if r.ID() == 0 {
			p.storeResult(rt, step, Degraded{Reason: dec.Reason})
		}
		return false
	case overload.LevelInSitu:
		// An analysis without a fallback still stores an explicit
		// Degraded marker, so the step is never silently lost.
		if out, store := rr.runInSitu(rt, step, "in-situ fallback"); store {
			p.storeResult(rt, step, Degraded{Reason: dec.Reason, Value: out})
		}
		return false
	}
	s := rr.begin(stageInSitu, rt.name, step)
	var payload []byte
	var err error
	if dec.Level == overload.LevelShaped {
		payload, err = rt.shaped.InSituStageShaped(rr.ctx)
	} else {
		payload, err = rt.stage.InSituStage(rr.ctx)
	}
	rr.end(s)
	if err != nil {
		p.recordErr(fmt.Errorf("core: in-situ stage %s step %d rank %d: %w", rt.name, step, r.ID(), err))
		return true
	}
	h, err := p.registerPayload(rr.ep, rt, ladderSpec(dec.Level, rt.spec), rr.codecKeys[i], step, payload)
	if err != nil {
		p.recordErr(fmt.Errorf("core: register %s step %d rank %d: %w", rt.name, step, r.ID(), err))
		return true
	}
	p.sched.ds.Put(dataspaces.Descriptor{
		Tenant:  p.tenant,
		Name:    rt.name,
		Version: step,
		Rank:    r.ID(),
		Handle:  h,
	})
	return true
}

// submit is the data-ready announcement: once every rank has registered
// its block, rank 0 creates the in-transit task of each staged route.
func (rr *rankRun) submit(step int) {
	p := rr.p
	rr.r.Barrier()
	if rr.r.ID() != 0 {
		return
	}
	var deadline time.Time
	if p.cfg.StepBudget > 0 {
		deadline = time.Now().Add(p.cfg.StepBudget)
	}
	for i, rt := range p.routes {
		if rt.stage == nil || !rt.due(step) || rr.decisions[i].Level > overload.LevelShaped {
			continue // not a hybrid route's step, or shed or fell back in-situ: nothing staged
		}
		rr.submitTask(rt, step, rr.decisions[i], deadline)
	}
}

// submitTask hands one route's registered blocks to the transit tier
// as a task and journals the submission. A refused task is disposed of
// on the spot: its inputs are unpinned, its credit returned, and the
// step stored as shed.
func (rr *rankRun) submitTask(rt *route, step int, dec admitDecision, deadline time.Time) {
	p, name := rr.p, rt.name
	// Ordered by producing rank, so in-transit payload slices are
	// deterministic.
	inputs := p.sched.ds.TakeT(p.tenant, name, step)
	slices.SortStableFunc(inputs, func(a, b dataspaces.Descriptor) int { return cmp.Compare(a.Rank, b.Rank) })
	spec := dataspaces.TaskSpec{
		Tenant: p.tenant, Analysis: name, Step: step, Inputs: inputs, Deadline: deadline,
		Account: dec.Account, Probe: dec.Probe, Shaped: dec.Level == overload.LevelShaped,
	}
	var err error
	if !dec.Probe && rt.poison != nil && rt.poison.State() != overload.Closed {
		// The drain goroutine quarantined the route after this step's
		// admission pass; only a half-open probe may reach the queue.
		err = fmt.Errorf("core: submit %s/%s: %w", p.tenant, name, overload.ErrQuarantined)
	} else {
		_, err = p.sched.ds.SubmitSpec(spec)
	}
	if err != nil {
		p.shedSubmitted(rt, step, inputs, dec, err)
	} else {
		p.mu.Lock()
		p.submitted++
		p.mu.Unlock()
		if rec := p.journaling(); rec != nil {
			// A submit the dead process journaled but never committed.
			if rec.prevSubmitted[step][name] {
				rec.replayed.Add(1)
			}
			if err := rec.j.Append(recovery.Record{Kind: recovery.KindSubmit, Step: step, Analysis: name}); err != nil && !errors.Is(err, recovery.ErrKilled) {
				p.recordErr(fmt.Errorf("core: journal submit %s step %d: %w", name, step, err))
			}
			p.recKill(recovery.PhaseMidSubmit, step)
		}
	}
}

// checkpointCommit closes the step on the recovery plane: the
// checkpoint, on its cadence, is a collective write (every rank's bp
// file, then one journal record); the commit advance is rank 0's alone
// and also fires from the drain goroutine as in-transit results land.
func (rr *rankRun) checkpointCommit(step int) {
	p, rec := rr.p, rr.p.journaling()
	if rec == nil {
		return
	}
	if step%rec.every == 0 {
		rr.writeCheckpoint(step)
	}
	if rr.r.ID() == 0 {
		p.noteStepped(step)
	}
}

// writeCheckpoint writes this rank's bp checkpoint file for step and,
// on rank 0 after the barrier, times the collective write and journals
// the checkpoint record. A dead journal writes nothing: a crash earlier
// in the step must not leave newer durable state behind it.
func (rr *rankRun) writeCheckpoint(step int) {
	p, r, rec := rr.p, rr.r, rr.p.rec
	s := rr.begin(stageCheckpoint, "", step)
	if !rec.j.Killed() {
		path := filepath.Join(rec.j.Dir(), recovery.CheckpointFile(step, r.ID()))
		// Each variable's owned block, straight from the live field: the
		// bytes of CheckpointFields' copies, without the copies.
		fields := make([]*grid.Field, len(sim.VarNames))
		for i, name := range sim.VarNames {
			fields[i] = rr.rk.GhostedField(name)
		}
		n, err := bp.WriteFile(path, fields, rr.rk.OwnedBox())
		if err != nil {
			p.recordErr(fmt.Errorf("core: checkpoint step %d rank %d: %w", step, r.ID(), err))
		}
		rec.ckptBytes.Add(n)
	}
	r.Barrier()
	if r.ID() != 0 {
		return
	}
	rr.end(s)
	p.recKill(recovery.PhaseMidCheckpoint, step)
	files := make([]string, r.Size())
	for i := range files {
		files[i] = recovery.CheckpointFile(step, i)
	}
	ckpt := recovery.Record{Kind: recovery.KindCheckpoint, Step: step, Files: files}
	if err := rec.j.Append(ckpt); err != nil {
		return
	}
	rec.ckpts.Add(1)
}
