// Command genckpt advances the S3D proxy and writes a file-per-process
// BP-lite checkpoint — the conventional post-processing input that
// cmd/mtree consumes:
//
//	genckpt -steps 10 -outdir /tmp/ckpt
//	mtree -var T -threshold 1.2 /tmp/ckpt/rank-*.bp
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"insitu/internal/bp"
	"insitu/internal/grid"
	"insitu/internal/sim"
)

func main() {
	var (
		nx, ny, nz = flag.Int("nx", 48, "global grid x"), flag.Int("ny", 32, "global grid y"), flag.Int("nz", 12, "global grid z")
		px, py, pz = flag.Int("px", 2, "ranks in x"), flag.Int("py", 2, "ranks in y"), flag.Int("pz", 1, "ranks in z")
		steps      = flag.Int("steps", 10, "simulation steps before the checkpoint")
		outdir     = flag.String("outdir", ".", "output directory")
		seed       = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	cfg := sim.DefaultConfig(grid.NewBox(*nx, *ny, *nz), *px, *py, *pz)
	cfg.Seed = *seed
	s, err := sim.New(cfg)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fail(err)
	}
	err = sim.RunAll(s, func(rk *sim.Rank) error {
		rk.RunSteps(*steps)
		path := filepath.Join(*outdir, fmt.Sprintf("rank-%04d.bp", rk.Comm().ID()))
		n, err := bp.WriteFile(path, rk.CheckpointFields())
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, n)
		return nil
	})
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "genckpt:", err)
	os.Exit(1)
}
