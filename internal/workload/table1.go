package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insitu/internal/bp"
	"insitu/internal/comm"
	"insitu/internal/grid"
	"insitu/internal/sim"
)

// TableIRow is one column of the paper's Table I, with measured
// laptop-scale values and modeled paper-scale values side by side.
type TableIRow struct {
	Scenario Scenario

	// Measured at laptop scale.
	SimRanks       int
	MeasuredStep   time.Duration // wall time per simulation step
	MeasuredWrite  time.Duration // file-per-process checkpoint write
	MeasuredRead   time.Duration // checkpoint read-back
	CheckpointByte int64

	// Modeled at paper scale through the calibrated Lustre model.
	ModeledPaperRead  time.Duration
	ModeledPaperWrite time.Duration
}

// RunTableI executes one scenario's Table I measurement: advance the
// simulation `steps` steps timing each, then write and read back a
// file-per-process checkpoint in dir.
func RunTableI(sc Scenario, steps int, dir string) (*TableIRow, error) {
	s, err := sim.New(sc.Sim)
	if err != nil {
		return nil, err
	}
	row := &TableIRow{Scenario: sc, SimRanks: s.Ranks()}

	type rankOut struct {
		fields []*grid.Field
		err    error
	}
	outs := make([]rankOut, s.Ranks())
	start := time.Now()
	comm.Run(s.Ranks(), func(r *comm.Rank) {
		rk, err := s.NewRank(r)
		if err != nil {
			outs[r.ID()].err = err
			return
		}
		rk.RunSteps(steps)
		outs[r.ID()].fields = rk.CheckpointFields()
	})
	row.MeasuredStep = time.Since(start) / time.Duration(steps)
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}

	// File-per-process checkpoint write.
	wStart := time.Now()
	var total int64
	for rank, o := range outs {
		n, err := bp.WriteFile(filepath.Join(dir, fmt.Sprintf("rank-%04d.bp", rank)), o.fields)
		if err != nil {
			return nil, err
		}
		total += n
	}
	row.MeasuredWrite = time.Since(wStart)
	row.CheckpointByte = total

	// Read-back.
	rStart := time.Now()
	for rank := range outs {
		if _, err := bp.ReadFile(filepath.Join(dir, fmt.Sprintf("rank-%04d.bp", rank))); err != nil {
			return nil, err
		}
	}
	row.MeasuredRead = time.Since(rStart)

	// Paper-scale I/O through the Lustre model.
	paperBytes := int64(sc.Paper.DataGB * 1e9)
	row.ModeledPaperRead = bp.LustreReadTime(paperBytes, sc.Paper.SimRanks)
	row.ModeledPaperWrite = bp.LustreWriteTime(paperBytes, sc.Paper.SimRanks)
	return row, nil
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
	for _, r := range rows {
		p := r.Scenario.Paper
		names = append(names, fmt.Sprintf("%d [scaled: %d ranks]", p.Cores, r.SimRanks))
		simCores = append(simCores, fmt.Sprintf("%d [paper %d]", r.SimRanks, p.SimRanks))
		dsCores = append(dsCores, fmt.Sprintf("%d [paper %d]", r.Scenario.DSServers, p.DSCores))
		trCores = append(trCores, fmt.Sprintf("%d [paper %d]", r.Scenario.Buckets, p.TransitCores))
		d := r.Scenario.Sim.Global.Dims()
		vol = append(vol, fmt.Sprintf("%dx%dx%d [paper %dx%dx%d]",
			d[0], d[1], d[2], p.Volume[0], p.Volume[1], p.Volume[2]))
		vars = append(vars, fmt.Sprintf("%d", p.Variables))
		data = append(data, fmt.Sprintf("%.4f [paper %.1f]",
			float64(r.CheckpointByte)/1e9, p.DataGB))
		simT = append(simT, fmt.Sprintf("%.3f [paper %.2f]",
			r.MeasuredStep.Seconds(), p.SimTime.Seconds()))
		ioR = append(ioR, fmt.Sprintf("%.3f [model %.2f, paper %.2f]",
			r.MeasuredRead.Seconds(), r.ModeledPaperRead.Seconds(), p.IORead.Seconds()))
		ioW = append(ioW, fmt.Sprintf("%.3f [model %.2f, paper %.2f]",
			r.MeasuredWrite.Seconds(), r.ModeledPaperWrite.Seconds(), p.IOWrite.Seconds()))
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
	return sb.String()
}

// CleanDir removes the checkpoint files RunTableI produced.
func CleanDir(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
