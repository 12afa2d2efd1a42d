package service

import (
	"math"
	"time"

	"occamy/internal/scenario"
)

// Live run progress
//
// The scenario engine loops publish deterministic samples (virtual
// clock, processed-event count) at every chunk boundary; this file is
// the other half of that split: it reads the wall clock, derives the
// rates, and publishes the combined snapshot onto the job's atomic
// pointer, where status polls read it lock-free. Keeping the wall-clock
// reads here — the service layer, outside the deterministic core — is
// what lets the detrand/nogoroutine gates keep passing over scenario
// (pinned by internal/lint/testdata fixtures).

// progressSample is the internal snapshot a running job publishes.
type progressSample struct {
	simNow   float64 // virtual seconds completed
	simTotal float64 // nominal horizon, virtual seconds (warmup+duration)
	events   uint64  // cumulative engine events processed
	wall     time.Duration
	// Sweep jobs report point-granular progress instead of a virtual
	// clock: pointsTotal > 0 marks a sweep sample.
	pointsDone  int
	pointsTotal int
}

// Progress is the live-progress block of a JobStatus: how far a running
// job has gotten and how fast it is simulating. All fields derive from
// one atomic sample, so a poll never sees a half-updated snapshot.
type Progress struct {
	// Fraction is completion in [0,1]: virtual time over the nominal
	// horizon for runs (clamped — gated scenarios may overrun the
	// horizon chasing stragglers), grid points done over grid size for
	// sweeps. Forced to 1 once the job is done, so pollers can treat it
	// as monotone non-decreasing ending at 1.
	Fraction float64 `json:"fraction"`
	// SimSeconds/SimTotalSeconds are the virtual clock and the nominal
	// horizon (run jobs; zero for sweeps).
	SimSeconds      float64 `json:"sim_seconds,omitempty"`
	SimTotalSeconds float64 `json:"sim_total_seconds,omitempty"`
	// Events is the cumulative processed-event count — the numerator of
	// the ROADMAP headline metric.
	Events uint64 `json:"events,omitempty"`
	// WallSeconds is wall-clock time since the job started running.
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec and SimPerWall are the derived rates: simulated
	// events per wall second, and virtual seconds per wall second.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	SimPerWall   float64 `json:"sim_per_wall,omitempty"`
	// PointsDone/PointsTotal are sweep grid progress (sweep jobs only).
	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`
}

// runProgressFunc builds the scenario.ProgressFunc a run job publishes
// through: it stamps each deterministic sample with the wall clock and
// stores it atomically. Called from the job's own worker goroutine.
func (j *Job) runProgressFunc() scenario.ProgressFunc {
	started := time.Now()
	return func(p scenario.RunProgress) {
		j.progress.Store(&progressSample{
			simNow:   p.SimNow.Seconds(),
			simTotal: p.SimHorizon.Seconds(),
			events:   p.Events,
			wall:     time.Since(started),
		})
	}
}

// SweepProgressFunc builds the pointDone hook a sweep job publishes
// through, one call per landed grid point. Points complete concurrently
// (experiments.RunGrid on a worker, the shard fan-out on the router);
// the swap loop below keeps the published done-count monotone without a
// lock.
func (j *Job) SweepProgressFunc() func() {
	started := time.Now()
	return func() {
		for {
			prev := j.progress.Load()
			next := &progressSample{pointsTotal: j.points, pointsDone: 1, wall: time.Since(started)}
			if prev != nil {
				next.pointsDone = prev.pointsDone + 1
			}
			if j.progress.CompareAndSwap(prev, next) {
				return
			}
		}
	}
}

// progressStatus renders the published sample for a JobStatus; the
// caller holds the ledger lock (the sample itself is read atomically —
// the lock only covers the state/timestamps consulted alongside it).
// nil until the run first reports, and nil forever for cache hits,
// which never run.
func (j *Job) progressStatus() *Progress {
	p := j.progress.Load()
	if p == nil {
		return nil
	}
	out := &Progress{
		SimSeconds:      p.simNow,
		SimTotalSeconds: p.simTotal,
		Events:          p.events,
		WallSeconds:     p.wall.Seconds(),
		PointsDone:      p.pointsDone,
		PointsTotal:     p.pointsTotal,
	}
	switch {
	case p.pointsTotal > 0:
		out.Fraction = float64(p.pointsDone) / float64(p.pointsTotal)
	case p.simTotal > 0:
		out.Fraction = math.Min(1, p.simNow/p.simTotal)
	}
	if j.state == JobDone {
		out.Fraction = 1
	}
	if w := p.wall.Seconds(); w > 0 {
		out.EventsPerSec = float64(p.events) / w
		out.SimPerWall = p.simNow / w
	}
	return out
}
