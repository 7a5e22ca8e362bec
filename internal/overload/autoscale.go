package overload

import "sync"

// AutoscaleConfig tunes the staging-bucket autoscaler. It is also the
// "fabric.autoscale" block of a pipeline config, hence the json tags.
type AutoscaleConfig struct {
	// Min and Max bound the bucket-pool size (Min default 1; Max
	// default Min, i.e. scaling disabled until widened).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// QueueHighPerBucket marks pressure when the task-queue depth
	// exceeds this many tasks per active bucket (default 2).
	QueueHighPerBucket int `json:"queue_high_per_bucket,omitempty"`
	// GrowAfter is the consecutive pressured observations needed to
	// grow by one bucket (default 2).
	GrowAfter int `json:"grow_after,omitempty"`
	// ShrinkAfter is the consecutive idle observations needed to shrink
	// by one bucket (default 4: shrink far more cautiously than grow).
	ShrinkAfter int `json:"shrink_after,omitempty"`
}

// ladderHigh is the admission-ladder rung at or past which any
// tenant's worst route marks the pool pressured.
const ladderHigh = LevelShaped

func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.QueueHighPerBucket <= 0 {
		c.QueueHighPerBucket = 2
	}
	if c.GrowAfter <= 0 {
		c.GrowAfter = 2
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 4
	}
	return c
}

// AutoscaleSignals is one observation of the shared staging tier: the
// live obs signals (queue-depth gauge, free buckets, worst ladder
// rung) plus the current pool size.
type AutoscaleSignals struct {
	// QueueDepth is the shared task-queue depth.
	QueueDepth int
	// FreeBuckets is how many buckets are blocked waiting for work.
	FreeBuckets int
	// Active is the current bucket-pool size.
	Active int
	// MaxLevel is the worst admission-ladder rung across all tenants'
	// routes (LevelFull when every route is healthy).
	MaxLevel Level
}

// Autoscaler is the hysteretic grow/shrink policy for the shared
// bucket pool. Like the rest of this package it is pure policy: the
// scheduler feeds it observations and applies its verdicts to
// staging.Area.
type Autoscaler struct {
	cfg AutoscaleConfig

	mu   sync.Mutex
	hot  int
	cold int

	grows   int64
	shrinks int64
}

// NewAutoscaler returns an autoscaler with the given tuning.
func NewAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	return &Autoscaler{cfg: cfg.withDefaults()}
}

// Observe folds one observation in and returns the pool delta to
// apply: +1 grow, -1 shrink, 0 hold. Pressure (deep queue per bucket,
// or a tenant pushed to ladderHigh) grows after GrowAfter consecutive
// observations; idleness (empty queue, spare buckets, all ladders at
// full) shrinks after ShrinkAfter; anything else holds and clears both
// streaks.
func (a *Autoscaler) Observe(sig AutoscaleSignals) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	pressured := sig.QueueDepth > a.cfg.QueueHighPerBucket*sig.Active ||
		sig.MaxLevel >= ladderHigh
	idle := sig.QueueDepth == 0 && sig.FreeBuckets > 1 && sig.MaxLevel == LevelFull
	switch {
	case pressured && sig.Active < a.cfg.Max:
		a.cold = 0
		a.hot++
		if a.hot >= a.cfg.GrowAfter {
			a.hot = 0
			a.grows++
			return +1
		}
	case idle && sig.Active > a.cfg.Min:
		a.hot = 0
		a.cold++
		if a.cold >= a.cfg.ShrinkAfter {
			a.cold = 0
			a.shrinks++
			return -1
		}
	default:
		a.hot, a.cold = 0, 0
	}
	return 0
}

// Grows returns the total grow verdicts issued.
func (a *Autoscaler) Grows() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.grows
}

// Shrinks returns the total shrink verdicts issued.
func (a *Autoscaler) Shrinks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.shrinks
}
