package workload

import (
	"cmp"
	"fmt"
	"os"
	"strings"
	"time"

	"insitu/internal/bp"
	"insitu/internal/core"
	"insitu/internal/metrics"
	"insitu/internal/registry"
)

// TableIRow is one column of the paper's Table I: a pipeline run of a
// table2 config, measured at laptop scale, beside its paper-scale I/O
// modeled through the calibrated Lustre model.
type TableIRow struct {
	Paper     PaperRef // the column the config's name keys
	SimRanks  int
	DSServers int
	Buckets   int
	Volume    [3]int

	// Measured at laptop scale: the sim's time per step with the
	// config's analyses running, and the recovery reports of the run
	// that wrote the checkpoint and of the resume that read it back.
	SimStep time.Duration
	Fresh   core.RecoveryReport
	Resumed core.RecoveryReport

	// Post-processing on the same checkpoint: a replay's read and its
	// in-situ plus in-transit time per step, and the run's.
	ReplayRead, ReplayAnalysis, CoupledAnalysis time.Duration

	// Modeled at paper scale through the calibrated Lustre model.
	ModeledPaperRead  time.Duration
	ModeledPaperWrite time.Duration
}

// RunTableI measures one Table I column on the pipeline: it runs cfg
// for `steps` steps with a recovery block that checkpoints at the last
// step, into a new directory under parent ("": the system's), then
// builds cfg again to resume, which reads that checkpoint back, and to
// replay it. cfg's name selects the paper column; cfg is unchanged.
func RunTableI(cfg *registry.Config, steps int, parent string) (*TableIRow, error) {
	paper, ok := paperTableI[cfg.Name]
	if !ok {
		return nil, fmt.Errorf("workload: no Table I column for config %q", cfg.Name)
	}
	dir, err := os.MkdirTemp(parent, "table1-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := *cfg
	c.Recovery = &core.RecoveryConfig{Dir: dir, Every: steps}
	var reps [3]*core.Report
	for i, mode := range []core.RunMode{core.RunFresh, core.RunResume, core.RunReplay} {
		b, err := registry.Build(&c)
		if err != nil {
			return nil, err
		}
		rs, err := b.Run(steps, mode)
		b.Close()
		if err != nil {
			return nil, err
		}
		reps[i] = rs[b.Tenants[0].Name]
	}
	fresh, resumed, replayed := reps[0], reps[1], reps[2]
	if got := resumed.Recovery.CheckpointStep; got != steps {
		return nil, fmt.Errorf("workload: resume restored checkpoint %d, want %d", got, steps)
	}

	sc := c.Tenants[0].Sim
	row := &TableIRow{
		Paper:     paper,
		SimRanks:  sc.PX * sc.PY * sc.PZ,
		DSServers: cmp.Or(c.Fabric.DSServers, 2),
		Buckets:   c.TransitBuckets(),
		Volume:    [3]int{sc.NX, sc.NY, sc.NZ},
		Fresh:     *fresh.Recovery,
		Resumed:   *resumed.Recovery,
	}
	_, row.SimStep, _ = fresh.Metrics.SimTime()
	row.ReplayRead = time.Duration(replayed.Recovery.CheckpointReadSeconds * float64(time.Second))
	row.ReplayAnalysis = analysisPerStep(replayed.Metrics)
	row.CoupledAnalysis = analysisPerStep(fresh.Metrics)
	paperBytes := int64(paper.DataGB * 1e9)
	row.ModeledPaperRead = bp.LustreReadTime(paperBytes, paper.SimRanks)
	row.ModeledPaperWrite = bp.LustreWriteTime(paperBytes, paper.SimRanks)
	return row, nil
}

// analysisPerStep sums every route's in-situ and in-transit time per
// step of a run.
func analysisPerStep(col *metrics.Collector) time.Duration {
	var d time.Duration
	for _, name := range col.Analyses() {
		b := col.Total(name).PerStep()
		d += b.InSitu + b.InTransit
	}
	return d
}

// FormatTableI renders rows in the layout of the paper's Table I.
func FormatTableI(rows []*TableIRow) string {
	var sb strings.Builder
	col := func(vals ...string) {
		fmt.Fprintf(&sb, "%-38s", vals[0])
		for _, v := range vals[1:] {
			fmt.Fprintf(&sb, " %26s", v)
		}
		sb.WriteByte('\n')
	}
	names := []string{""}
	simCores := []string{"No. of simulation/in-situ cores"}
	dsCores := []string{"No. of DataSpaces-service cores"}
	trCores := []string{"No. of in-transit cores"}
	vol := []string{"Volume size"}
	vars := []string{"No. of variables"}
	data := []string{"Data size (GB)"}
	simT := []string{"Simulation time (sec.)"}
	ioR := []string{"I/O read time (sec.)"}
	ioW := []string{"I/O write time (sec.)"}
	coupled := []string{"Analysis, coupled (sec./step)"}
	post := []string{"Post-processing (sec.)"}
	for _, r := range rows {
		p, d := r.Paper, r.Volume
		names = append(names, fmt.Sprintf("%d [scaled: %d ranks]", p.Cores, r.SimRanks))
		simCores = append(simCores, fmt.Sprintf("%d [paper %d]", r.SimRanks, p.SimRanks))
		dsCores = append(dsCores, fmt.Sprintf("%d [paper %d]", r.DSServers, p.DSCores))
		trCores = append(trCores, fmt.Sprintf("%d [paper %d]", r.Buckets, p.TransitCores))
		vol = append(vol, fmt.Sprintf("%dx%dx%d [paper %dx%dx%d]",
			d[0], d[1], d[2], p.Volume[0], p.Volume[1], p.Volume[2]))
		vars = append(vars, fmt.Sprintf("%d", p.Variables))
		data = append(data, fmt.Sprintf("%.4f [paper %.1f]",
			float64(r.Fresh.CheckpointBytes)/1e9, p.DataGB))
		simT = append(simT, fmt.Sprintf("%.3f [paper %.2f]",
			r.SimStep.Seconds(), p.SimTime.Seconds()))
		ioR = append(ioR, fmt.Sprintf("%.3f [model %.2f, paper %.2f]",
			r.Resumed.CheckpointReadSeconds, r.ModeledPaperRead.Seconds(), p.IORead.Seconds()))
		ioW = append(ioW, fmt.Sprintf("%.3f [model %.2f, paper %.2f]",
			r.Fresh.CheckpointWriteSeconds, r.ModeledPaperWrite.Seconds(), p.IOWrite.Seconds()))
		coupled = append(coupled, fmt.Sprintf("%.3f [in-situ + in-transit]", r.CoupledAnalysis.Seconds()))
		w, rd, a := r.Fresh.CheckpointWriteSeconds, r.ReplayRead.Seconds(), r.ReplayAnalysis.Seconds()
		post = append(post, fmt.Sprintf("%.3f = w %.3f + r %.3f + a %.3f [model I/O %.2f]",
			w+rd+a, w, rd, a, (r.ModeledPaperWrite+r.ModeledPaperRead).Seconds()))
	}
	col(names...)
	col(simCores...)
	col(dsCores...)
	col(trCores...)
	col(vol...)
	col(vars...)
	col(data...)
	col(simT...)
	col(ioR...)
	col(ioW...)
	col(coupled...)
	col(post...)
	return sb.String()
}
