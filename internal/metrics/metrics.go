// Package metrics is a pipeline run's Table II ledger: the per-step
// timing breakdown the paper's evaluation reports (simulation time,
// per-analysis in-situ time, data movement time and size, and
// in-transit time — Table II and Fig. 6) plus each step's
// simulation-side wall time. Collection is thread-safe; simulation
// ranks and staging buckets record concurrently. On the rank side the
// ledger has one writer, core's stage seam (rankRun.end), which records
// the sim, in-situ and step-wall stages; the staging side reaches it
// only through core.Pipeline.handleResult's RecordTransit.
//
// The package is a plain ledger behind core.Report and knows nothing of
// the observability plane: core.Pipeline samples a Collector's
// aggregates into the run's obs.Registry, and TableII is the
// human-facing view. It counts no step outcomes: Resilience and
// Overload are only the shapes of the summaries core.Report carries,
// which core fills from its own tallies and the fabric's counters.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Breakdown aggregates the cost of one analysis over a run.
type Breakdown struct {
	Steps       int           // number of analysis invocations
	InSitu      time.Duration // total of per-step maxima across ranks
	MoveModeled time.Duration // total modeled data-movement time
	MoveWall    time.Duration // total measured pull wall time
	MoveBytes   int64         // total intermediate bytes moved
	InTransit   time.Duration // total in-transit compute wall time
}

// PerStep returns the breakdown averaged per invocation.
func (b Breakdown) PerStep() Breakdown {
	if b.Steps == 0 {
		return b
	}
	n := time.Duration(b.Steps)
	return Breakdown{
		Steps:       1,
		InSitu:      b.InSitu / n,
		MoveModeled: b.MoveModeled / n,
		MoveWall:    b.MoveWall / n,
		MoveBytes:   b.MoveBytes / int64(b.Steps),
		InTransit:   b.InTransit / n,
	}
}

// Resilience aggregates a tenant's fault-handling counters: how the
// stack absorbed what the injector perturbed. Each count is the
// tenant's own except Requeues, which every tenant sharing the bucket
// pool reads alike.
type Resilience struct {
	Retries          int64 // retried pulls of the tenant's regions
	ChecksumFailures int64 // corrupted pulls of the tenant's regions caught by CRC32
	Requeues         int64 // staging task attempts pushed back (fabric-wide)
	DeadLetters      int64 // the tenant's tasks that exhausted their attempt budget
	DegradedSteps    int64 // the tenant's analysis steps that fell back fully in-situ or dead-lettered
}

// Overload aggregates a tenant's overload-control counters: how often
// backpressure denied it admission, how its admission ladder shaped or
// shed work, and how its per-route circuit breakers moved.
type Overload struct {
	CreditsDenied      int64 // transit credits the tenant's admission pass was refused (account dry)
	StepsDelta         int64 // analysis steps admitted with delta encoding
	StepsQuantized     int64 // analysis steps admitted with quantized payload
	StepsShaped        int64 // analysis steps admitted at reduced payload
	StepsShed          int64 // analysis steps dropped with a shed marker
	StepsFallback      int64 // analysis steps forced in-situ by an admission verdict
	BreakerOpens       int64 // entries into open across all routes: trips and failed probes' re-opens
	BreakerTransitions int64 // all breaker state transitions
}

// Collector gathers samples during a pipeline run.
type Collector struct {
	mu sync.Mutex

	simMax map[int]time.Duration // step -> simulation time, max over ranks

	inSituMax map[string]map[int]time.Duration // analysis -> step -> max over ranks
	move      map[string]*Breakdown            // movement + in-transit accumulation

	stepWall map[int]time.Duration // step -> max simulation-side wall time over ranks
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		simMax:    make(map[int]time.Duration),
		inSituMax: make(map[string]map[int]time.Duration),
		move:      make(map[string]*Breakdown),
		stepWall:  make(map[int]time.Duration),
	}
}

// RecordSimStep records one rank's simulation time for a step; the
// per-step maximum across ranks is kept (the step completes when the
// slowest rank does).
func (c *Collector) RecordSimStep(step int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > c.simMax[step] {
		c.simMax[step] = d
	}
}

// RecordInSitu records one rank's in-situ time for an analysis at a
// step, keeping the per-step maximum.
func (c *Collector) RecordInSitu(analysis string, step int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.inSituMax[analysis]
	if !ok {
		m = make(map[int]time.Duration)
		c.inSituMax[analysis] = m
	}
	if d > m[step] {
		m[step] = d
	}
}

// RecordTransit records the staging-side costs of one in-transit task.
func (c *Collector) RecordTransit(analysis string, moveModeled, moveWall time.Duration, bytes int64, inTransit time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.move[analysis]
	if !ok {
		b = &Breakdown{}
		c.move[analysis] = b
	}
	b.MoveModeled += moveModeled
	b.MoveWall += moveWall
	b.MoveBytes += bytes
	b.InTransit += inTransit
}

// RecordStepWall records one rank's total simulation-side wall time
// for a step (solver + in-situ stages + admission + submission),
// keeping the per-step maximum across ranks. The brownout soak bounds
// this against an unloaded baseline.
func (c *Collector) RecordStepWall(step int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > c.stepWall[step] {
		c.stepWall[step] = d
	}
}

// StepWalls returns the per-step maximum simulation-side wall times,
// indexed by step, for every recorded step.
func (c *Collector) StepWalls() map[int]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]time.Duration, len(c.stepWall))
	for s, d := range c.stepWall {
		out[s] = d
	}
	return out
}

// MaxStepWall returns the largest per-step simulation-side wall time.
func (c *Collector) MaxStepWall() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max time.Duration
	for _, d := range c.stepWall {
		if d > max {
			max = d
		}
	}
	return max
}

// SimTime returns the total and per-step average simulation time.
func (c *Collector) SimTime() (total, perStep time.Duration, steps int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.simMax {
		total += d
	}
	steps = len(c.simMax)
	if steps > 0 {
		perStep = total / time.Duration(steps)
	}
	return
}

// Analyses returns the recorded analysis names, sorted.
func (c *Collector) Analyses() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	for name := range c.inSituMax {
		seen[name] = true
	}
	for name := range c.move {
		seen[name] = true
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Total returns the accumulated breakdown for one analysis.
func (c *Collector) Total(analysis string) Breakdown {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b Breakdown
	if m, ok := c.inSituMax[analysis]; ok {
		b.Steps = len(m)
		for _, d := range m {
			b.InSitu += d
		}
	}
	if mv, ok := c.move[analysis]; ok {
		b.MoveModeled = mv.MoveModeled
		b.MoveWall = mv.MoveWall
		b.MoveBytes = mv.MoveBytes
		b.InTransit = mv.InTransit
	}
	return b
}

// TableII renders the collected data in the layout of the paper's
// Table II: per-step in-situ time, data movement time and size, and
// in-transit time per analysis.
func (c *Collector) TableII() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-42s %14s %14s %14s %14s\n",
		"analysis", "in-situ", "movement", "moved (MB)", "in-transit")
	for _, name := range c.Analyses() {
		b := c.Total(name).PerStep()
		mb := float64(b.MoveBytes) / 1e6
		fmt.Fprintf(&sb, "%-42s %14s %14s %14.2f %14s\n",
			name, fmtDur(b.InSitu), fmtDur(b.MoveModeled), mb, fmtDur(b.InTransit))
	}
	return sb.String()
}

// fmtDur renders a duration for a fixed-width table column. Precision
// steps down as magnitude grows so the rendered string never exceeds
// the 14-character column: sub-minute durations keep microsecond
// precision, sub-hour durations millisecond, anything longer second —
// without this, an hour-scale duration ("1h23m45.678901s") overflows
// its column and drifts every column after it.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "—"
	case d < time.Minute:
		return d.Round(time.Microsecond).String()
	case d < time.Hour:
		return d.Round(time.Millisecond).String()
	default:
		return d.Round(time.Second).String()
	}
}
