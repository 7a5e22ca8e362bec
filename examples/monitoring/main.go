// Monitoring: the concurrent-analysis advantages the paper's §V lists
// — "computational steering, on-the-fly visualization, and feature
// tracking" — combined into a live run monitor.
//
// Every step, the pipeline derives global statistics in-transit,
// assesses the temperature field for σ-outliers (candidate ignition
// kernels), tracks OH features across steps, and renders an
// auto-ranged frame whose transfer function steers itself to the
// evolving data. The console output is what a scientist would watch
// while the simulation runs.
//
//	go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"os"

	"insitu/internal/core"
	"insitu/internal/grid"
	"insitu/internal/imagestore"
	"insitu/internal/obs"
	"insitu/internal/render"
	"insitu/internal/sim"
	"insitu/internal/stats"
)

func main() {
	simCfg := sim.DefaultConfig(grid.NewBox(40, 24, 12), 2, 2, 1)
	simCfg.KernelRate = 0.9
	cfg := core.DefaultConfig(simCfg)
	cfg.DSServers, cfg.Buckets = 2, 3
	dir, err := os.MkdirTemp("", "monitoring-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := imagestore.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	cfg.Store = st
	p, err := core.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}

	statsH := &core.StatsHybrid{Vars: []string{"T", "Y_OH"}}
	assess := &core.AssessTestInSitu{Sigma: 3}
	track := &core.TrackingHybrid{Threshold: 0.05}
	viz := core.NewVizHybrid(240, 160, 2)
	viz.AutoRange = true
	rec := p.EnableObs().Recorder()

	p.Register(statsH)
	p.Register(assess)
	p.Register(track)
	p.Register(viz)

	const steps = 20
	fmt.Printf("monitoring %d steps of the lifted-flame proxy...\n\n", steps)
	rep, err := p.Run(steps)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%5s %10s %10s %10s %10s %10s\n",
		"step", "T max", "T mean", "outliers", "features", "tracked")
	var prevTrack *core.TrackingStepResult
	for s := 1; s <= steps; s++ {
		derived := rep.Result(statsH.Name(), s).(map[string]stats.Derived)
		at := rep.Result(assess.Name(), s).(*core.AssessTestResult)
		tr := rep.Result(track.Name(), s).(*core.TrackingStepResult)
		tracked := 0
		if prevTrack != nil {
			if ms, err := core.JoinTracking(prevTrack, tr); err == nil {
				tracked = len(ms)
			}
		}
		prevTrack = tr
		fmt.Printf("%5d %10.3f %10.3f %10d %10d %10d\n",
			s, derived["T"].Max, derived["T"].Mean, at.Extremes, len(tr.Features), tracked)
	}

	// The final auto-ranged frame, as the image store filed it.
	png, _, err := st.Frame(imagestore.Spec{Var: viz.FrameVar(), Step: steps, Cam: render.CameraName(0)})
	if err == nil {
		err = os.WriteFile("monitor-final.png", png, 0o644)
	}
	if err != nil {
		fmt.Println("\nmonitor-final.png not written:", err)
	} else {
		fmt.Println("\nwrote monitor-final.png (auto-ranged transfer function)")
	}

	// Feature lineage over the whole run: kernel inception,
	// dissipation, merges and splits.
	if g, err := core.BuildTrackGraph(rep, track, steps); err == nil {
		fmt.Printf("\nfeature lineage: %s\n", g.Summarize(true).Format())
	}

	// The run's execution timeline: simulation vs staging buckets.
	fmt.Println()
	fmt.Println(obs.Gantt(rec, 90))
}
